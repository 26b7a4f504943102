// Documentation conformance checks (`make docs`): the repository's
// markdown must not rot.  Two properties are enforced: every relative
// link in the curated docs resolves to a file in the repository, and the
// README's command-line reference stays in sync with the flags the cmd/
// binaries actually define.
package repro_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/asl"
)

// docFiles are the curated documents the link check walks.  Scratch files
// (ISSUE/PAPER/SNIPPETS notes) are exempt: they quote external material.
var docFiles = []string{
	"README.md",
	"DESIGN.md",
	"EXPERIMENTS.md",
	"ROADMAP.md",
	"doc/API.md",
	"doc/ARCHITECTURE.md",
	"doc/ASL.md",
	"doc/FORMATS.md",
	"doc/PERFORMANCE.md",
}

// mdLink matches [text](target); targets with spaces or nested parens are
// not used in this repository.
var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// TestDocsLinks resolves every relative markdown link against the tree.
func TestDocsLinks(t *testing.T) {
	for _, file := range docFiles {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Errorf("%s: %v (listed in docFiles)", file, err)
			continue
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") ||
				strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") ||
				strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (resolved %s)", file, m[1], resolved)
			}
		}
	}
}

// flagDefs match flag definitions on the `flag` package or a FlagSet
// conventionally named fs: flag.String("name", …), fs.Float64Var(&v,
// "name", …), flag.Var(v, "name", …).
var flagDefs = []*regexp.Regexp{
	regexp.MustCompile(`\b(?:flag|fs)\.(?:Bool|Int|Int64|Uint|Uint64|Float64|String|Duration)\(\s*"([^"]+)"`),
	regexp.MustCompile(`\b(?:flag|fs)\.(?:Bool|Int|Int64|Uint|Uint64|Float64|String|Duration)Var\(\s*&[^,]+,\s*"([^"]+)"`),
	regexp.MustCompile(`\b(?:flag|fs)\.Var\(\s*[^,]+,\s*"([^"]+)"`),
}

// cmdFlags scans the non-test sources of one cmd/ binary for the flag
// names it defines.
func cmdFlags(t *testing.T, dir string) []string {
	t.Helper()
	srcs, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var names []string
	for _, src := range srcs {
		if strings.HasSuffix(src, "_test.go") {
			continue
		}
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, re := range flagDefs {
			for _, m := range re.FindAllStringSubmatch(string(data), -1) {
				if !seen[m[1]] {
					seen[m[1]] = true
					names = append(names, m[1])
				}
			}
		}
	}
	return names
}

// rowFlag matches a `-flag` mention (optionally followed by an argument
// placeholder inside the same code span) in a README table row.
var rowFlag = regexp.MustCompile("`-([A-Za-z][A-Za-z0-9-]*)")

// TestDocsCLIReference keeps the README's command-line table honest:
// every cmd/ binary has a table row, every flag a binary defines is
// mentioned in that row, and every `-flag` the row names is defined.
func TestDocsCLIReference(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)

	dirs, err := filepath.Glob("cmd/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no cmd/ binaries found")
	}
	for _, dir := range dirs {
		tool := filepath.Base(dir)
		row := ""
		for _, line := range strings.Split(readme, "\n") {
			if strings.HasPrefix(line, fmt.Sprintf("| `%s` |", tool)) {
				row = line
				break
			}
		}
		if row == "" {
			t.Errorf("README.md: no command-line table row for %s", tool)
			continue
		}
		defined := map[string]bool{}
		for _, name := range cmdFlags(t, dir) {
			defined[name] = true
			if !strings.Contains(row, "-"+name) {
				t.Errorf("README.md: %s row does not mention its -%s flag", tool, name)
			}
		}
		for _, m := range rowFlag.FindAllStringSubmatch(row, -1) {
			if !defined[m[1]] {
				t.Errorf("README.md: %s row names -%s, which the binary does not define", tool, m[1])
			}
		}
	}
}

// TestDocsASLReference keeps doc/ASL.md in sync with the language the
// asl package actually implements: every injection primitive (with its
// detection claim), every severity helper, and every metric function
// must appear in the reference.
func TestDocsASLReference(t *testing.T) {
	data, err := os.ReadFile("doc/ASL.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	for _, p := range asl.Primitives() {
		if !strings.Contains(doc, "`"+p.Name+"`") {
			t.Errorf("doc/ASL.md: injection primitive %s undocumented", p.Name)
		}
		if p.Detects != "" && !strings.Contains(doc, p.Detects) {
			t.Errorf("doc/ASL.md: %s's detection %q undocumented", p.Name, p.Detects)
		}
	}
	mentions := func(name string) bool {
		return strings.Contains(doc, "`"+name+"`") || strings.Contains(doc, "`"+name+"(")
	}
	for _, name := range asl.ParamFuncs {
		if !mentions(name) {
			t.Errorf("doc/ASL.md: severity helper %s undocumented", name)
		}
	}
	for _, name := range asl.MetricFuncs {
		if !mentions(name) {
			t.Errorf("doc/ASL.md: metric function %s undocumented", name)
		}
	}
}
