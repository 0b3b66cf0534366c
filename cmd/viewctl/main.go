// Command viewctl is a quick inspection tool: it builds a dataset and
// view, applies batches with a chosen strategy, and prints the plan,
// per-node ledger, and verification status for each batch.
//
// Usage:
//
//	viewctl -dataset PTF-5 -mode correlated -strategy reassign -batches 5
//	viewctl -dataset GEO -strategy baseline -verify
//
// With -serve it is instead a client for an ivmserve daemon started with
// the same dataset flags: -query issues one snapshot-isolated query and
// -stats prints the daemon's health counters.
//
//	viewctl -dataset PTF-5 -serve 127.0.0.1:7420 -query view
//	viewctl -dataset PTF-5 -serve 127.0.0.1:7420 -query linf:2 -qmode complete
//	viewctl -dataset PTF-5 -serve 127.0.0.1:7420 -stats
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/bench"
	"github.com/arrayview/arrayview/internal/engine"
	"github.com/arrayview/arrayview/internal/query"
	"github.com/arrayview/arrayview/internal/serve"
	"github.com/arrayview/arrayview/internal/shape"
	"github.com/arrayview/arrayview/internal/view"
)

func main() {
	var (
		cfg      engine.Config
		dataset  = flag.String("dataset", "PTF-5", "PTF-5|PTF-25|GEO")
		modeName = flag.String("mode", "", "real|random|correlated|periodic")
		batches  = flag.Int("batches", 0, "limit number of batches (default: all)")
		small    = flag.Bool("small", true, "use the test-scale dataset")
		verify   = flag.Bool("verify", false, "verify the view against recomputation after each batch")
		expire   = flag.Bool("expire", false, "after the batches, delete the oldest slab and maintain the retraction")
		serveAt  = flag.String("serve", "", "ivmserve daemon address; switches viewctl into query-client mode")
		querySp  = flag.String("query", "", "query shape: \"view\", or kind:radius with kind l1|l2|linf (with -serve)")
		qmode    = flag.String("qmode", "auto", "auto|view|complete (with -serve -query)")
		stats    = flag.Bool("stats", false, "print the serving daemon's health counters (with -serve)")
	)
	flag.StringVar(&cfg.Strategy, "strategy", "reassign", "baseline|differential|reassign")
	flag.BoolVar(&cfg.Distributed, "distributed", false, "run the data plane over TCP node daemons instead of in-process stores")
	flag.StringVar(&cfg.Connect, "connect", "", "comma-separated ivmnode addresses (with -distributed; default: spawn loopback daemons)")
	flag.Parse()

	spec, err := bench.ParseSpec(*dataset, *modeName, *small)
	switch {
	case err != nil:
	case *serveAt != "":
		err = runClient(spec, *serveAt, *querySp, *qmode, *stats)
	default:
		err = run(cfg, spec, *batches, *verify, *expire)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "viewctl:", err)
		os.Exit(1)
	}
}

// runClient speaks to an ivmserve daemon. The daemon and client must be
// started with the same dataset flags: the view definition (and so the
// result schema) is derived from the dataset's configuration rather than
// shipped over the wire.
func runClient(spec bench.Spec, addr, querySpec, qmode string, stats bool) error {
	def, err := spec.View()
	if err != nil {
		return err
	}
	c, err := serve.NewClient(addr, def.Schema(), nil)
	if err != nil {
		return err
	}
	defer c.Close()

	if stats {
		st, err := c.Stats()
		if err != nil {
			return err
		}
		fmt.Printf("epoch=%d pins=%d retained=%d (%d bytes)\n", st.Epoch, st.Pins, st.Retained, st.RetainedBytes)
		fmt.Printf("cache: hits=%d misses=%d rate=%.2f resident=%d bytes\n",
			st.CacheHits, st.CacheMisses, st.HitRate(), st.CacheBytes)
		fmt.Printf("admission: queries=%d rejected=%d\n", st.Queries, st.Rejected)
		a := st.Adaptive
		fmt.Printf("adaptive: heavy=%d light=%d pending=%d chunks (%d cells) deferred=%d lazy-mats=%d drained=%d flips=%d/%d memo=%d/%d hits/misses\n",
			a.HeavyChunks, a.LightChunks, a.PendingChunks, a.PendingCells,
			a.Deferred, a.LazyMats, a.Drained, a.Promotions, a.Demotions,
			a.MemoHits, a.MemoMisses)
		d := st.Durable
		fmt.Printf("durable: commits=%d rollbacks=%d checkpoints=%d wal=%d bytes seg=%d bytes fsyncs=%d\n",
			d.Commits, d.Rollbacks, d.Checkpoints, d.WALBytes, d.SegBytes, d.Syncs)
		fp := st.FastPath
		fmt.Printf("fast path: view=%d/%d hits/misses resident=%d bytes evicted=%d invalidated=%d memo=%d/%d hits/misses\n",
			fp.ViewHits, fp.ViewMisses, fp.ViewBytes, fp.ViewEvictions,
			fp.ViewInvalidations, fp.MemoHits, fp.MemoMisses)
	}
	if querySpec == "" {
		if !stats {
			return fmt.Errorf("nothing to do: pass -query or -stats with -serve")
		}
		return nil
	}

	sh, err := parseQueryShape(def, querySpec)
	if err != nil {
		return err
	}
	var m query.Mode
	switch qmode {
	case "auto":
		m = query.Auto
	case "view":
		m = query.ForceView
	case "complete":
		m = query.ForceComplete
	default:
		return fmt.Errorf("unknown query mode %q", qmode)
	}
	res, err := c.Query(sh, m)
	if err != nil {
		return err
	}
	path := "complete join"
	if res.UseView {
		path = "differential (via view)"
	}
	fmt.Printf("query %s: %d groups at epoch %d, answered by %s\n",
		sh, res.Array.NumCells(), res.Epoch, path)
	return nil
}

// parseQueryShape resolves the -query flag: "view" (or empty) reuses the
// view's own shape; "l1:R", "l2:R", "linf:R" build an Lp ball of radius R
// over the base array's dimensionality.
func parseQueryShape(def *view.Definition, s string) (*shape.Shape, error) {
	if s == "" || s == "view" {
		return def.Pred.Shape, nil
	}
	kind, radiusStr, ok := strings.Cut(s, ":")
	if !ok {
		return nil, fmt.Errorf("bad -query %q: want \"view\" or kind:radius", s)
	}
	r, err := strconv.ParseInt(radiusStr, 10, 64)
	if err != nil || r < 0 {
		return nil, fmt.Errorf("bad -query radius %q", radiusStr)
	}
	dims := len(def.Alpha.Dims)
	switch strings.ToLower(kind) {
	case "l1":
		return shape.L1(dims, r), nil
	case "l2":
		return shape.L2(dims, r), nil
	case "linf":
		return shape.Linf(dims, r), nil
	default:
		return nil, fmt.Errorf("unknown query shape kind %q", kind)
	}
}

func run(cfg engine.Config, spec bench.Spec, batches int, verify, expire bool) error {
	data, err := spec.Generate()
	if err != nil {
		return err
	}
	if err := spec.Describe(&cfg, data); err != nil {
		return err
	}
	h, err := engine.Open(cfg)
	if err != nil {
		return err
	}
	defer h.Close()
	cl, m := h.Cluster(), h.Maintainer()

	fmt.Printf("view: %s\n", h.Def())
	fabricName := "in-process"
	if cfg.Distributed {
		fabricName = "tcp"
	}
	fmt.Printf("cluster: %d nodes (%s fabric); base: %d cells in %d chunks\n\n",
		cl.NumNodes(), fabricName, data.Base.NumCells(), data.Base.NumChunks())

	toRun := data.Batches
	if batches > 0 && batches < len(toRun) {
		toRun = toRun[:batches]
	}
	for i, batch := range toRun {
		rep, err := m.ApplyBatch(batch)
		if err != nil {
			return fmt.Errorf("batch %d: %w", i+1, err)
		}
		fmt.Printf("batch %d: %d cells in %d chunks\n", i+1, batch.NumCells(), batch.NumChunks())
		fmt.Printf("  %s\n", rep.Plan)
		fmt.Printf("  units=%d triples=%d\n", rep.NumUnits, rep.NumTriples)
		fmt.Printf("  maintenance=%.4fs (simulated)  optimization=%.6fs (measured)\n",
			rep.MaintenanceSeconds, rep.OptimizationSeconds)
		fmt.Printf("  ledger: %s\n", rep.Ledger)
		if cfg.Distributed {
			if s := rep.Trace.String(); s != "" {
				fmt.Printf("  spans: %s\n", s)
			}
		}
		if verify {
			if err := h.Verify(); err != nil {
				return fmt.Errorf("batch %d: %w", i+1, err)
			}
			fmt.Printf("  verified: view equals recomputation\n")
		}
	}
	if expire {
		base, err := cl.Gather(h.Def().Alpha.Name)
		if err != nil {
			return err
		}
		// Retract the cells of the oldest first-dimension slab.
		cut := base.Schema().Dims[0].Start + base.Schema().Dims[0].ChunkSize
		del := array.New(base.Schema())
		base.EachCell(func(p array.Point, tup array.Tuple) bool {
			if p[0] < cut {
				_ = del.Set(p, tup)
			}
			return true
		})
		if del.NumCells() == 0 {
			fmt.Println("expire: nothing to retract")
			return nil
		}
		rep, err := m.ApplyDelete(del)
		if err != nil {
			return fmt.Errorf("expire: %w", err)
		}
		fmt.Printf("expired %d cells: maintenance=%.4fs (simulated)\n", del.NumCells(), rep.MaintenanceSeconds)
		if verify {
			if err := h.Verify(); err != nil {
				return fmt.Errorf("expire: %w", err)
			}
			fmt.Printf("  verified: view equals recomputation\n")
		}
	}
	return nil
}
