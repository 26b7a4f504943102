// Client mode: talk to a running atsd analysis server instead of the
// local store.  `atsregress submit` uploads conformance cases or
// serialized traces and renders the server's drift verdict with the
// same exit-code contract as the offline diff/check commands; `ping`
// probes server health (the CI smoke test polls it for readiness).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"repro/internal/server"
)

// serverFlags registers the client-mode connection flags on fs.
func serverFlags(fs *flag.FlagSet) (base *string, timeout *time.Duration) {
	base = fs.String("server", "", "atsd base URL (e.g. http://127.0.0.1:7341)")
	timeout = fs.Duration("timeout", 60*time.Second, "HTTP request timeout")
	return base, timeout
}

func cmdPing(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ping", flag.ContinueOnError)
	base, timeout := serverFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *base == "" {
		return fmt.Errorf("ping: -server URL is required")
	}
	client := &http.Client{Timeout: *timeout}
	resp, err := client.Get(strings.TrimRight(*base, "/") + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("ping: server returned %s", resp.Status)
	}
	fmt.Fprintf(stdout, "ok %s\n", *base)
	return nil
}

// cmdSubmit uploads each file to the server — conformance case JSON to
// /v1/cases, ATSC traces to /v1/traces, auto-detected by content —
// and reports drift verdicts.  Returns regressed=true when any
// submission drifted from its baseline.
func cmdSubmit(args []string, stdout io.Writer) (bool, error) {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	base, timeout := serverFlags(fs)
	experiment := fs.String("experiment", "", "experiment name (required for traces; cases default to \"conformance\")")
	save := fs.Bool("save", false, "promote each submission's profile to the experiment baseline")
	threshold := fs.Float64("threshold", 0, "severity threshold for trace analysis (0 = server default)")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if *base == "" {
		return false, fmt.Errorf("submit: -server URL is required")
	}
	if fs.NArg() == 0 {
		return false, fmt.Errorf("submit: no case or trace files given")
	}
	client := &http.Client{Timeout: *timeout}
	regressed := false
	for _, path := range fs.Args() {
		rep, err := submitFile(client, *base, path, *experiment, *save, *threshold)
		if err != nil {
			return regressed, fmt.Errorf("%s: %w", path, err)
		}
		tags := ""
		if rep.Cached {
			tags += " (cached)"
		}
		if rep.Saved {
			tags += " (saved)"
		}
		fmt.Fprintf(stdout, "%s: %s %s profile %.12s%s\n",
			path, rep.Kind, rep.Experiment, rep.ProfileHash, tags)
		if rep.Diff != nil {
			fmt.Fprint(stdout, rep.Diff.Render())
		}
		if rep.Drift {
			regressed = true
		}
	}
	if regressed {
		fmt.Fprintln(stdout, "SUBMIT FAILED: performance regressions detected")
	}
	return regressed, nil
}

// submitFile posts one file and decodes the server's report.
func submitFile(client *http.Client, base, path, experiment string, save bool, threshold float64) (*server.Report, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	q := url.Values{}
	if experiment != "" {
		q.Set("experiment", experiment)
	}
	if save {
		q.Set("save", "1")
	}
	var endpoint string
	switch {
	case bytes.HasPrefix(blob, []byte("ATSC")):
		endpoint = "/v1/traces"
		if experiment == "" {
			return nil, fmt.Errorf("trace submissions need -experiment")
		}
		if threshold > 0 {
			q.Set("threshold", fmt.Sprintf("%g", threshold))
		}
	default:
		endpoint = "/v1/cases" // case JSON; the server validates it
	}
	u := strings.TrimRight(base, "/") + endpoint
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	resp, err := client.Post(u, contentTypeFor(endpoint), bytes.NewReader(blob))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK, http.StatusUnprocessableEntity:
		var rep server.Report
		if err := json.Unmarshal(body, &rep); err != nil {
			return nil, fmt.Errorf("decoding server response: %v", err)
		}
		if rep.Status == server.StatusError {
			return nil, fmt.Errorf("server analysis failed: %s", rep.Error)
		}
		if rep.Status != "" {
			return &rep, nil
		}
		// 422 without a report payload: a plain validation error.
		fallthrough
	default:
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			return nil, fmt.Errorf("server returned %s: %s", resp.Status, e.Error)
		}
		return nil, fmt.Errorf("server returned %s", resp.Status)
	}
}

func contentTypeFor(endpoint string) string {
	if endpoint == "/v1/cases" {
		return "application/json"
	}
	return "application/octet-stream"
}
