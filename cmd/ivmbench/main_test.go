package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleExperimentSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small experiment")
	}
	if err := run("fig3", "GEO", "correlated", "small", 3, 2, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunWritesJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small experiment")
	}
	dir := t.TempDir()
	if err := run("fig3", "GEO", "correlated", "small", 3, 2, dir); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(filepath.Join(dir, "BENCH_fig3.json"))
	if err != nil {
		t.Fatal(err)
	}
	var results []map[string]any
	if err := json.Unmarshal(buf, &results); err != nil {
		t.Fatalf("BENCH_fig3.json is not valid JSON: %v", err)
	}
	if len(results) == 0 {
		t.Fatal("BENCH_fig3.json holds no results")
	}
	if _, ok := results[0]["Results"]; !ok {
		t.Error("BENCH_fig3.json results lack the Results field")
	}
}

func TestRunErrors(t *testing.T) {
	for _, tc := range []struct {
		why                       string
		experiment, dataset, mode string
		wantIn                    string
	}{
		{"unknown experiment", "nope", "", "", "unknown experiment"},
		{"unknown dataset", "fig3", "nope", "", "unknown dataset"},
		// The parse error itself, not a generic one.
		{"unknown mode", "fig3", "GEO", "nope", `unknown batch mode "nope"`},
		// Fixed-panel experiments refuse the panel flags instead of
		// ignoring them; they fail before running anything.
		{"-dataset on a fixed panel", "fig6", "GEO", "", "fixes its own panel"},
		{"-mode on a fixed panel", "fig10a", "", "correlated", "fixes its own panel"},
		{"-dataset on all", "all", "PTF-5", "", "fixes its own panel"},
	} {
		err := run(tc.experiment, tc.dataset, tc.mode, "small", 0, 0, "")
		if err == nil || !strings.Contains(err.Error(), tc.wantIn) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.why, err, tc.wantIn)
		}
	}
}
