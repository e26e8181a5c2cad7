package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestExperimentsUpToDate holds the checked-in EXPERIMENTS.md to the
// generator byte for byte, so every changed number or verdict of the
// reproduction arrives as a diff of that file. The explorer's bounds are
// part of the output, so they cannot shrink under -race, where the test
// would take about a minute; CI runs it in a step without -race.
func TestExperimentsUpToDate(t *testing.T) {
	if raceEnabled {
		t.Skip("runs at the explorer's full bound without -race")
	}
	var got bytes.Buffer
	if err := render(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	if line, g, w, differ := firstDiff(got.String(), string(want)); differ {
		t.Fatalf("EXPERIMENTS.md is stale at line %d:\n  generated: %q\n  file:      %q\n"+
			"regenerate it with: go run ./cmd/repro > EXPERIMENTS.md", line, g, w)
	}
}

// firstDiff returns the first line (1-based) where a and b differ, with
// that line of each ("" past the end of one).
func firstDiff(a, b string) (line int, la, lb string, differ bool) {
	if a == b {
		return 0, "", "", false
	}
	as, bs := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; ; i++ {
		la, lb = "", ""
		if i < len(as) {
			la = as[i]
		}
		if i < len(bs) {
			lb = bs[i]
		}
		if la != lb || i >= len(as) || i >= len(bs) {
			return i + 1, la, lb, true
		}
	}
}
