// Command ivmbench regenerates the tables and figures of the paper's
// evaluation (Section 6 and Appendix C) on the simulated cluster.
//
// Usage:
//
//	ivmbench -experiment fig3 -dataset PTF-5 -mode correlated
//	ivmbench -experiment all -scale small
//	ivmbench -experiment fig6
//
// Experiments: fig3, fig5, fig6, fig9, fig10a, fig10b, fig10c, scaling,
// ablations, fabric, kernel, all. -dataset and -mode narrow the per-panel
// experiments (fig3, fig5, fig9, fabric); the others fix their own panel.
// Datasets: PTF-5, PTF-25, GEO.
// Modes: real, random, correlated, periodic ("real" maps to "random" for
// GEO, as in the paper).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"github.com/arrayview/arrayview/internal/bench"
	"github.com/arrayview/arrayview/internal/workload"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "fig3|fig5|fig6|fig9|fig10a|fig10b|fig10c|scaling|ablations|fabric|kernel|all")
		dataset    = flag.String("dataset", "", "PTF-5|PTF-25|GEO, for fig3|fig5|fig9|fabric (default: every dataset)")
		mode       = flag.String("mode", "", "real|random|correlated|periodic, for fig3|fig5|fig9|fabric (default: every mode)")
		scale      = flag.String("scale", "default", "default|small")
		nodes      = flag.Int("nodes", 0, "override worker node count (default: 8)")
		seed       = flag.Int64("seed", 0, "override dataset seed")
		jsonDir    = flag.String("json", "", "also write machine-readable BENCH_<experiment>.json files to this directory")
	)
	flag.Parse()

	if err := run(*experiment, *dataset, *mode, *scale, *nodes, *seed, *jsonDir); err != nil {
		fmt.Fprintln(os.Stderr, "ivmbench:", err)
		os.Exit(1)
	}
}

// perPanelExperiments take their panels from -dataset/-mode; every other
// experiment fixes its own panel, so narrowing it is an error rather than a
// flag silently ignored.
var perPanelExperiments = map[string]bool{"fig3": true, "fig5": true, "fig9": true, "fabric": true}

func run(experiment, dataset, mode, scale string, nodes int, seed int64, jsonDir string) error {
	mkSpec := func(ds bench.Dataset, m workload.BatchMode) bench.Spec {
		var s bench.Spec
		if scale == "small" {
			s = bench.SmallSpec(ds, m)
		} else {
			s = bench.DefaultSpec(ds, m)
		}
		if nodes > 0 {
			s.Nodes = nodes
		}
		if seed != 0 {
			s.PTF.Seed = seed
			s.GEO.Seed = seed
		}
		return s
	}

	// Resolve the panel flags once, before anything runs.
	datasets := bench.Datasets()
	if dataset != "" {
		ds, err := bench.ParseDataset(dataset)
		if err != nil {
			return err
		}
		datasets = []bench.Dataset{ds}
	}
	var modes []workload.BatchMode
	if mode != "" {
		m, err := workload.ParseMode(mode)
		if err != nil {
			return err
		}
		modes = []workload.BatchMode{m}
	}
	if (dataset != "" || mode != "") && !perPanelExperiments[experiment] {
		return fmt.Errorf("-dataset/-mode narrow only fig3|fig5|fig9|fabric; %s fixes its own panel", experiment)
	}
	modesFor := func(ds bench.Dataset) []workload.BatchMode {
		switch {
		case modes != nil:
			return modes
		case ds == bench.GEO:
			return []workload.BatchMode{workload.Random, workload.Correlated, workload.Periodic}
		default:
			return []workload.BatchMode{workload.Real, workload.Correlated, workload.Periodic}
		}
	}

	out := os.Stdout
	// collected gathers every experiment's typed result for -json output,
	// keyed by experiment name.
	collected := make(map[string][]any)
	record := func(name string, v any) { collected[name] = append(collected[name], v) }

	perPanel := func(name string, fn func(spec bench.Spec) (any, error)) error {
		for _, ds := range datasets {
			for _, m := range modesFor(ds) {
				r, err := fn(mkSpec(ds, m))
				if err != nil {
					return err
				}
				record(name, r)
				fmt.Fprintln(out)
			}
		}
		return nil
	}

	runOne := func(name string) error {
		switch name {
		case "fig3":
			return perPanel(name, func(s bench.Spec) (any, error) { return bench.Fig3(out, s) })
		case "fig5":
			return perPanel(name, func(s bench.Spec) (any, error) { return bench.Fig5(out, s) })
		case "fig9":
			return perPanel(name, func(s bench.Spec) (any, error) { return bench.Fig9(out, s) })
		case "fabric":
			// Both fabrics: the in-process baseline and the TCP loopback
			// daemons, so the JSON output carries phase breakdowns and
			// per-node counters for each.
			return perPanel(name, func(s bench.Spec) (any, error) {
				local, err := bench.FabricValidation(out, s, false)
				if err != nil {
					return nil, err
				}
				fmt.Fprintln(out)
				tcp, err := bench.FabricValidation(out, s, true)
				if err != nil {
					return nil, err
				}
				return []any{local, tcp}, nil
			})
		case "fig6":
			spec := mkSpec(bench.PTF5, workload.Real)
			spec.PTF.NumBatches = 1
			r, err := bench.Fig6(out, spec)
			if err != nil {
				return err
			}
			record(name, r)
			return nil
		case "fig10a":
			sizes := []int{50, 100, 200, 400, 800, 1600}
			if scale == "small" {
				sizes = []int{50, 100, 200}
			}
			r, err := bench.Fig10a(out, mkSpec(bench.PTF25, workload.Real), sizes)
			if err != nil {
				return err
			}
			record(name, r)
			return nil
		case "fig10b":
			total, counts := 4000, []int{1, 2, 5, 10, 20}
			if scale == "small" {
				total, counts = 800, []int{1, 2, 5}
			}
			r, err := bench.Fig10b(out, mkSpec(bench.PTF25, workload.Real), total, counts)
			if err != nil {
				return err
			}
			record(name, r)
			return nil
		case "scaling":
			counts := []int{2, 4, 8, 16, 32}
			if scale == "small" {
				counts = []int{2, 4, 8}
			}
			r, err := bench.Scaling(out, mkSpec(bench.PTF5, workload.Real), counts)
			if err != nil {
				return err
			}
			record(name, r)
			return nil
		case "kernel":
			r, err := bench.Kernel(out)
			if err != nil {
				return err
			}
			record(name, r)
			return nil
		case "fig10c":
			r, err := bench.Fig10c(out, mkSpec(bench.PTF25, workload.Real), []float64{0.1, 0.2, 0.8})
			if err != nil {
				return err
			}
			record(name, r)
			return nil
		case "ablations":
			spec := mkSpec(bench.GEO, workload.Correlated)
			a1, err := bench.AblationPairOrder(out, mkSpec(bench.PTF5, workload.Real))
			if err != nil {
				return err
			}
			record(name, a1)
			fmt.Fprintln(out)
			a2, err := bench.AblationWindow(out, spec, nil)
			if err != nil {
				return err
			}
			record(name, a2)
			fmt.Fprintln(out)
			a3, err := bench.AblationCPUQuota(out, spec, nil)
			if err != nil {
				return err
			}
			record(name, a3)
			fmt.Fprintln(out)
			a4, err := bench.AblationLambda(out, spec, nil)
			if err != nil {
				return err
			}
			record(name, a4)
			fmt.Fprintln(out)
			a5, err := bench.AblationCellPruning(out, mkSpec(bench.PTF5, workload.Real))
			if err != nil {
				return err
			}
			record(name, a5)
			return nil
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
	}

	runAll := func() error {
		for _, name := range []string{"fig3", "fig5", "fig6", "fig9", "fig10a", "fig10b", "fig10c", "scaling", "ablations"} {
			fmt.Fprintf(out, "==== %s ====\n", name)
			if err := runOne(name); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
		return nil
	}

	var err error
	if experiment == "all" {
		err = runAll()
	} else {
		err = runOne(experiment)
	}
	if err != nil {
		return err
	}
	return writeJSON(jsonDir, collected)
}

// writeJSON dumps each experiment's collected results to
// <dir>/BENCH_<experiment>.json. A no-op when dir is empty.
func writeJSON(dir string, collected map[string][]any) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, results := range collected {
		buf, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return fmt.Errorf("marshaling %s results: %w", name, err)
		}
		path := filepath.Join(dir, "BENCH_"+name+".json")
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}
