package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"sdem/internal/experiments"
)

// TestRunAllMatchesCommittedOutput renders "-run all" at the default
// flags and byte-compares it to the committed experiments_full.txt, so
// any change to a published table shows up as a test failure. After an
// intended change, regenerate the file with
//
//	go run ./cmd/experiments -run all > experiments_full.txt
func TestRunAllMatchesCommittedOutput(t *testing.T) {
	want, err := os.ReadFile("../../experiments_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	cfg := experiments.Config{Seeds: 10, Tasks: 60, Cores: 8, Workers: 2, Seed: 1}
	for _, name := range allRuns {
		if err := dispatch(&got, cfg, name, ""); err != nil {
			t.Fatal(err)
		}
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			t.Fatalf("-run all differs from experiments_full.txt at line %d:\n got: %q", i+1, gl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("-run all renders %d lines, experiments_full.txt has %d", len(gl), len(wl))
	}
}
