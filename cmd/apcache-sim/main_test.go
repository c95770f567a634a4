package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"apcache/internal/study/bench"
)

// TestRunOnePrintsReport exercises the rendering path against a cheap
// experiment.
func TestRunOnePrintsReport(t *testing.T) {
	e, ok := bench.Get("fig2")
	if !ok {
		t.Fatalf("fig2 missing")
	}
	// Capture stdout.
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := runOne(e, bench.Options{Quick: true, Seed: 1})
	w.Close()
	os.Stdout = old
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("runOne: %v", runErr)
	}
	out := buf.String()
	for _, want := range []string{"fig2", "Pvr", "Omega", "note:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
