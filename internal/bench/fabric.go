package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"github.com/arrayview/arrayview/internal/maintain"
)

// FabricValidationResult holds, for each strategy, the per-batch
// ledger-predicted maintenance cost next to the measured wall-clock of
// executing the same plan on the chosen fabric, the per-phase breakdown of
// that wall-clock, and the per-node fabric counters accumulated over the
// sequence. The predicted numbers are deterministic (they come from the
// cost model, not the clock) and are identical across fabrics; the
// measured numbers are what the machine actually did.
type FabricValidationResult struct {
	Spec    Spec
	TCP     bool
	Results map[string]*SeqResult
}

// FabricValidation runs the three strategies over identical data and
// reports measured wall-clock execution time per batch alongside the
// ledger-predicted cost. With tcp=false the plans execute on the default
// in-process fabric; with tcp=true each strategy gets a fresh set of
// loopback node daemons and every chunk crosses real sockets.
func FabricValidation(w io.Writer, spec Spec, tcp bool) (*FabricValidationResult, error) {
	out := &FabricValidationResult{Spec: spec, TCP: tcp, Results: make(map[string]*SeqResult)}
	for _, name := range maintain.StrategyNames() {
		data, err := spec.Generate() // seeded: identical across strategies
		if err != nil {
			return nil, err
		}
		res, err := runBatches(spec, name, data, tcp)
		if err != nil {
			return nil, fmt.Errorf("bench: fabric validation %s: %w", name, err)
		}
		out.Results[name] = res
	}
	out.WriteTable(w)
	return out, nil
}

// WriteTable renders the human-readable report: the per-batch
// predicted-vs-measured table, a per-strategy phase breakdown, and the
// per-node fabric counters. Strategies may have produced differing batch
// counts (a failed or truncated run); each row indexes only its own
// strategy's batches.
func (r *FabricValidationResult) WriteTable(w io.Writer) {
	fabricName := "local (in-process)"
	if r.TCP {
		fabricName = "tcp (loopback daemons)"
	}
	fmt.Fprintf(w, "Fabric validation — ledger-predicted vs measured execution: %s / %s on %s\n",
		r.Spec.Dataset, r.Spec.Mode, fabricName)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "batch\tstrategy\tpredicted (s)\tmeasured (s)\ttransfers\n")
	names := maintain.StrategyNames()
	n := 0
	for _, name := range names {
		if res := r.Results[name]; res != nil && len(res.Batches) > n {
			n = len(res.Batches)
		}
	}
	for i := 0; i < n; i++ {
		for _, name := range names {
			res := r.Results[name]
			if res == nil || i >= len(res.Batches) {
				continue
			}
			b := res.Batches[i]
			fmt.Fprintf(tw, "%d\t%s\t%.4f\t%.4f\t%d\n", i+1, name, b.Maintenance, b.Exec, b.Transfers)
		}
	}
	tw.Flush()

	for _, name := range names {
		res := r.Results[name]
		if res == nil {
			continue
		}
		if s := phaseSummary(res); s != "" {
			fmt.Fprintf(w, "phases (%s): %s\n", name, s)
		}
	}
	for _, name := range names {
		res := r.Results[name]
		if res == nil || len(res.Fabric) == 0 {
			continue
		}
		fmt.Fprintf(w, "fabric counters (%s):\n", name)
		for node, st := range res.Fabric {
			fmt.Fprintf(w, "  node %d: reqs=%d out=%dB in=%dB frames=%d/%d retries=%d reconnects=%d pool=%d/%d\n",
				node, st.Net.TotalRequests(), st.Net.BytesOut, st.Net.BytesIn,
				st.Net.FramesOut, st.Net.FramesIn, st.Net.Retries, st.Net.Reconnects,
				st.Net.PoolHits, st.Net.PoolMisses)
		}
	}
}

// phaseSummary sums each phase over a sequence's batches and renders the
// totals in pipeline order. Busy seconds are summed (they measure work);
// for phases that ran concurrent spans inside a batch the union wall-clock
// is summed alongside and rendered separately, since adding busy time
// across overlapped spans double-books elapsed time.
func phaseSummary(res *SeqResult) string {
	type agg struct {
		busy, wall float64
		concurrent bool
	}
	totals := make(map[string]*agg)
	var order []string
	for _, b := range res.Batches {
		for _, p := range b.Phases {
			a, ok := totals[p.Name]
			if !ok {
				a = &agg{}
				totals[p.Name] = a
				order = append(order, p.Name)
			}
			a.busy += p.Seconds
			a.wall += p.WallSeconds
			if p.MaxConcurrent > 1 {
				a.concurrent = true
			}
		}
	}
	s := ""
	for i, name := range order {
		if i > 0 {
			s += " · "
		}
		a := totals[name]
		if a.concurrent {
			s += fmt.Sprintf("%s busy %.4fs wall %.4fs", name, a.busy, a.wall)
		} else {
			s += fmt.Sprintf("%s %.4fs", name, a.busy)
		}
	}
	return s
}
