// Command benchmark is the repository's one benchmark: four workloads
// against the real engine, in-process, each in its own process invocation.
//
//	go run ./benchmark --workload ingest-sparse --seed 1 --seconds 15 --trace 0
//
// runs one workload and prints, as the last line of standard output, the
// JSON object BENCHMARK.json's contract asks for. Without --workload it
// runs all four (each as a child process of its own) and writes one result
// file. README.md has the modes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run in this process; empty runs all four, each in a child process")
		seed     = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 15, "how long one run measures")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		smoke    = flag.Bool("smoke", false, "tiny scale: exercises every code path of all four workloads in seconds")
		runs     = flag.Int("runs", 1, "all-workloads mode: runs per workload, on seeds seed, seed+1, ...")
		out      = flag.String("out", "", "write the full result as JSON to this file")
		results  = flag.String("results", "", "directory for trace files and scratch data (default benchmark/results)")
		record   = flag.Bool("record", false, "all-workloads mode: append the envelope and end-to-end summary to benchmark/history.jsonl")
		compare  = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	)
	flag.Parse()
	if *results == "" {
		*results = filepath.Join(repoRoot(), "benchmark", "results")
	}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(2, "usage: benchmark -compare old.json new.json")
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(2, "compare: %v", err)
		}
		if worse {
			os.Exit(1)
		}
	case *workload != "":
		cfg, ok := findWorkload(*workload)
		if !ok {
			fatal(2, "unknown workload %q", *workload)
		}
		res, err := runWorkload(cfg, runOpts{seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke, resultsDir: *results})
		if err != nil {
			fatal(1, "%s: %v", cfg.Name, err)
		}
		if *out != "" {
			if err := writeJSON(*out, res); err != nil {
				fatal(1, "%v", err)
			}
		}
		printResult(res)
		if !res.Correct {
			os.Exit(1)
		}
	default:
		if err := runAll(*seed, *seconds, *trace != 0, *smoke, *runs, *out, *results, *record); err != nil {
			fatal(1, "%v", err)
		}
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}

// repoRoot is the nearest directory at or above the working directory that
// holds BENCHMARK.json; the working directory if none does.
func repoRoot() string {
	wd, err := os.Getwd()
	if err != nil {
		return "."
	}
	for dir := wd; ; dir = filepath.Dir(dir) {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir
		}
		if dir == filepath.Dir(dir) {
			return wd
		}
	}
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// printResult prints every metric by name and unit, the checks, and as the
// last line the contract's JSON object.
func printResult(res *result) { printResultTo(os.Stdout, res) }

func printResultTo(w io.Writer, res *result) {
	mode, metrics, defs := "end-to-end (tracing off)", res.EndToEnd, endToEndMetrics
	if res.Trace {
		mode, metrics, defs = "per-layer (traced run)", res.PerLayer, perLayerMetrics
	}
	fmt.Fprintf(w, "workload %s  seed %d  %gs  %s\n", res.Workload, res.Seed, res.Seconds, mode)
	fmt.Fprintf(w, "  why: %s\n", res.Why)
	e := res.Env
	fmt.Fprintf(w, "  env: %s, %s, nproc %d, GOMAXPROCS %d, commit %s\n", e.GoVersion, e.CPUModel, e.NProc, e.GOMAXPROCS, e.GitCommit)
	s := res.Sizes
	fmt.Fprintf(w, "  sizes: %d repetitions, base %d cells in %d chunks, %d batches of %d delta cells, %d queries, %d recoveries\n",
		s.Reps, s.BaseCells, s.BaseChunks, s.Batches, s.DeltaCells, s.Queries, s.Recoveries)
	for _, d := range defs {
		m := metrics[d.Name]
		note := ""
		if m.Note != "" {
			note = "  (" + m.Note + ")"
		}
		fmt.Fprintf(w, "  %-40s %14.4f %-8s%s\n", d.Name, m.Value, m.Unit, note)
	}
	for _, c := range res.Checks {
		mark := "ok  "
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Fprintf(w, "  %s %s: %s\n", mark, c.Name, c.Detail)
	}
	fmt.Fprintf(w, "  ops_failed_share %d/%d, wall %.1fs\n", res.Failed, res.Attempted, res.WallS)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]value)}
	for _, d := range defs {
		line.Metrics[d.Name] = value{Value: metrics[d.Name].Value, Unit: d.Unit}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		fatal(1, "%v", err)
	}
	fmt.Fprintln(w, string(buf))
}

// resultSet is the result file of an all-workloads invocation.
type resultSet struct {
	Env     envelope  `json:"env"`
	Seed    int64     `json:"seed"`
	Runs    int       `json:"runs"`
	Seconds float64   `json:"seconds"`
	Trace   bool      `json:"trace"`
	Smoke   bool      `json:"smoke"`
	When    string    `json:"when"`
	Results []*result `json:"results"`
}

// runAll runs every workload, each run in a child process of its own so
// that peak RSS, the heap and the collector's state belong to one workload.
func runAll(seed int64, seconds float64, trace, smoke bool, runs int, out, results string, record bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(results, 0o755); err != nil {
		return err
	}
	traceArg, outName := "0", "latest.json"
	if trace {
		traceArg, outName = "1", "latest-trace.json"
	}
	set := &resultSet{Env: readEnvelope(), Seed: seed, Runs: runs, Seconds: seconds, Trace: trace, Smoke: smoke, When: time.Now().UTC().Format(time.RFC3339)}
	failed := false
	for run := 0; run < runs; run++ {
		for _, w := range workloads {
			tmp := filepath.Join(results, fmt.Sprintf("child-%d.json", os.Getpid()))
			args := []string{
				"-workload", w.Name, "-seed", fmt.Sprint(seed + int64(run)), "-seconds", fmt.Sprint(seconds),
				"-trace", traceArg, "-out", tmp, "-results", results,
			}
			if smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run()
			buf, readErr := os.ReadFile(tmp)
			os.Remove(tmp)
			if readErr != nil {
				return fmt.Errorf("%s: no result (%v)", w.Name, runErr)
			}
			var res result
			if err := json.Unmarshal(buf, &res); err != nil {
				return fmt.Errorf("%s: %v", w.Name, err)
			}
			set.Results = append(set.Results, &res)
			if runErr != nil || !res.Correct {
				failed = true
			}
		}
	}
	if out == "" {
		out = filepath.Join(results, outName)
	}
	if err := writeJSON(out, set); err != nil {
		return err
	}
	printSummary(set)
	fmt.Printf("result file: %s\n", out)
	if record {
		if err := appendHistory(set); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("a workload failed a check")
	}
	return nil
}

// printSummary prints, per workload, every metric's median over the runs
// and, from four runs on, its quartile spread.
func printSummary(set *resultSet) {
	defs := endToEndMetrics
	if set.Trace {
		defs = perLayerMetrics
	}
	by := groupRuns(set)
	fmt.Printf("\nsummary: %d run(s) per workload, median [quartile spread]\n", set.Runs)
	for _, w := range workloads {
		g, ok := by[w.Name]
		if !ok {
			continue
		}
		fmt.Printf("%s\n", w.Name)
		for _, d := range defs {
			vals := g[d.Name]
			line := fmt.Sprintf("  %-40s %14.4f %-8s", d.Name, median(vals), d.Unit)
			if sp, ok := quartileSpread(vals); ok && len(vals) >= 4 {
				line += fmt.Sprintf(" [%.1f%%]", 100*sp)
			}
			fmt.Println(line)
		}
	}
}

// groupRuns collects each metric's values over the runs, per workload.
func groupRuns(set *resultSet) map[string]map[string][]float64 {
	by := make(map[string]map[string][]float64)
	for _, res := range set.Results {
		g := by[res.Workload]
		if g == nil {
			g = make(map[string][]float64)
			by[res.Workload] = g
		}
		for _, m := range []map[string]metric{res.EndToEnd, res.PerLayer} {
			for name, v := range m {
				g[name] = append(g[name], v.Value)
			}
		}
	}
	return by
}

// appendHistory appends one line to benchmark/history.jsonl: the envelope
// and each workload's end-to-end medians. The file is the repository's
// performance trajectory; nothing but -record writes it.
func appendHistory(set *resultSet) error {
	if set.Trace {
		return fmt.Errorf("-record takes an untraced run: end-to-end metrics are measured with tracing off")
	}
	type line struct {
		When      string                        `json:"when"`
		Env       envelope                      `json:"env"`
		Seed      int64                         `json:"seed"`
		Runs      int                           `json:"runs"`
		Seconds   float64                       `json:"seconds"`
		Smoke     bool                          `json:"smoke"`
		Generator map[string]genParams          `json:"generator"`
		Sizes     map[string]sizes              `json:"sizes"`
		Medians   map[string]map[string]float64 `json:"end_to_end_medians"`
	}
	l := line{
		When: set.When, Env: set.Env, Seed: set.Seed, Runs: set.Runs, Seconds: set.Seconds, Smoke: set.Smoke,
		Generator: make(map[string]genParams), Sizes: make(map[string]sizes), Medians: make(map[string]map[string]float64),
	}
	for _, res := range set.Results {
		l.Generator[res.Workload] = res.Generator
		l.Sizes[res.Workload] = res.Sizes
	}
	for w, g := range groupRuns(set) {
		l.Medians[w] = make(map[string]float64)
		for _, d := range endToEndMetrics {
			l.Medians[w][d.Name] = median(g[d.Name])
		}
	}
	buf, err := json.Marshal(l)
	if err != nil {
		return err
	}
	path := filepath.Join(repoRoot(), "benchmark", "history.jsonl")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(buf, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("recorded: %s\n", path)
	return nil
}
