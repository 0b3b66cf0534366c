package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// benchmarkJSON is the part of BENCHMARK.json the harness reads.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON() (*benchmarkJSON, error) {
	buf, err := os.ReadFile(filepath.Join(repoRoot(), "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkJSON
	if err := json.Unmarshal(buf, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// verdict is one row of a comparison.
type verdict string

const (
	better     verdict = "better"
	worse      verdict = "worse"
	unchanged  verdict = "unchanged"
	unresolved verdict = "unresolved"
)

// judge compares the medians of two sets of runs of one metric on one
// workload under the metric's bound. The change is taken as a share of the
// old median, signed so that positive is worse. When either side's
// run-to-run spread (quartile distance over median) is wider than the
// bound, a difference of the bound's size cannot be told from noise, and
// the row is unresolved, whatever the medians say.
func judge(old, new []float64, lowerIsBetter bool, bound float64) (v verdict, change, spread float64) {
	mo, mn := median(old), median(new)
	if mo != 0 {
		change = (mn - mo) / mo
	}
	if !lowerIsBetter {
		change = -change
	}
	for _, vals := range [][]float64{old, new} {
		if sp, ok := quartileSpread(vals); ok && len(vals) >= 4 && sp > spread {
			spread = sp
		}
	}
	switch {
	case spread > bound:
		return unresolved, change, spread
	case change > bound:
		return worse, change, spread
	case change < -bound:
		return better, change, spread
	}
	return unchanged, change, spread
}

// compareFiles prints one row per end-to-end metric and workload and
// reports whether any row is worse.
func compareFiles(w io.Writer, oldPath, newPath string) (anyWorse bool, err error) {
	bj, err := readBenchmarkJSON()
	if err != nil {
		return false, err
	}
	load := func(path string) (map[string]map[string][]float64, *resultSet, error) {
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		var set resultSet
		if err := json.Unmarshal(buf, &set); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		return groupRuns(&set), &set, nil
	}
	oldBy, oldSet, err := load(oldPath)
	if err != nil {
		return false, err
	}
	newBy, newSet, err := load(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "old: %s  commit %s  %d run(s)\nnew: %s  commit %s  %d run(s)\n",
		oldPath, oldSet.Env.GitCommit, oldSet.Runs, newPath, newSet.Env.GitCommit, newSet.Runs)
	fmt.Fprintf(w, "%-16s %-22s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "old", "new", "change", "spread", "bound", "verdict")
	counts := make(map[verdict]int)
	for _, wl := range bj.Workloads {
		for _, m := range bj.EndToEnd {
			o, n := oldBy[wl.Name][m.Name], newBy[wl.Name][m.Name]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			v, change, spread := judge(o, n, m.Better != "higher", m.Bound)
			counts[v]++
			fmt.Fprintf(w, "%-16s %-22s %12.4f %12.4f %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				wl.Name, m.Name, median(o), median(n), 100*change, 100*spread, 100*m.Bound, v)
		}
	}
	fmt.Fprintf(w, "%d better, %d worse, %d unchanged, %d unresolved (change is signed so that + is worse)\n",
		counts[better], counts[worse], counts[unchanged], counts[unresolved])
	return counts[worse] > 0, nil
}
