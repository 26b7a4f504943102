// Command atstrace renders a serialized event trace as a Vampir-style
// ASCII timeline (the visualization stand-in for paper Figs 3.2–3.4) and
// optionally dumps the flat region profile or the raw events.
//
// Usage:
//
//	atstrace trace.atsc
//	atstrace -width 160 -profile trace.atsc
//	atstrace -events trace.atsc | head
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("atstrace: ")
	var (
		width    = flag.Int("width", 100, "timeline width in columns")
		profile  = flag.Bool("profile", false, "print the flat region profile")
		calltree = flag.Bool("calltree", false, "print the call-tree profile")
		events   = flag.Bool("events", false, "dump raw events")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		log.Fatal("usage: atstrace [-width n] [-profile] [-calltree] [-events] <trace file>")
	}
	tr, err := trace.ReadFile(flag.Arg(0))
	if err != nil {
		log.Fatalf("reading trace: %v", err)
	}
	fmt.Print(trace.Timeline(tr, trace.TimelineOptions{Width: *width}))
	if *profile {
		fmt.Println()
		fmt.Print(trace.ComputeStats(tr).Profile())
	}
	if *calltree {
		fmt.Println()
		fmt.Print(trace.ComputePathProfile(tr).RenderTree(tr))
	}
	if *events {
		fmt.Println()
		for _, ev := range tr.Events {
			fmt.Printf("%.9f %-7s %-7s path=%q peer=%d tag=%d bytes=%d coll=%v match=%d\n",
				ev.Time, ev.Loc, ev.Kind, tr.PathString(ev.Path),
				ev.Peer, ev.Tag, ev.Bytes, ev.Coll, ev.Match)
		}
	}
}
