// Command ivmserve is the query-serving daemon: it builds (or connects to)
// a cluster, loads a dataset, materializes the view, and then answers
// shape-based similarity-join queries over the transport frame protocol at
// snapshot isolation — while applying maintenance batches in the
// background. Point viewctl -serve at it to query.
//
// Usage:
//
//	ivmserve -dataset PTF-5 -listen :7420 -interval 500ms
//	ivmserve -dataset PTF-5 -stream -interval 100ms
//	ivmserve -dataset GEO -distributed -listen 127.0.0.1:7420
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"

	"github.com/arrayview/arrayview/internal/bench"
	"github.com/arrayview/arrayview/internal/engine"
	"github.com/arrayview/arrayview/internal/maintain"
	"github.com/arrayview/arrayview/internal/obs"
)

func main() {
	// The system's settings bind straight into the composition root's
	// description; what is left is the workload and the feed loop's pacing.
	var (
		cfg      engine.Config
		dataset  = flag.String("dataset", "PTF-5", "PTF-5|PTF-25|GEO")
		mode     = flag.String("mode", "", "real|random|correlated|periodic")
		small    = flag.Bool("small", true, "use the test-scale dataset")
		interval = flag.Duration("interval", 500*time.Millisecond, "delay between background maintenance batches (0 disables maintenance)")
		metrics  = flag.String("metrics", "", "serve JSON health metrics over HTTP on this address (host:port; empty disables)")
		batches  = flag.Int("batches", 0, "limit background batches (default: all, then idle)")
	)
	flag.StringVar(&cfg.Strategy, "strategy", "reassign", "baseline|differential|reassign")
	flag.BoolVar(&cfg.Distributed, "distributed", false, "run the data plane over TCP node daemons instead of in-process stores")
	flag.StringVar(&cfg.Connect, "connect", "", "comma-separated ivmnode addresses (with -distributed; default: spawn loopback daemons)")
	flag.StringVar(&cfg.Listen, "listen", "127.0.0.1:7420", "query-serving listen address")
	flag.BoolVar(&cfg.Streamed, "stream", false, "maintain through the pipelined streaming graph instead of batch-at-a-time (self-join views only)")
	flag.BoolFunc("adaptive", "heavy-light adaptive maintenance: eager hot chunks, lazy cold chunks materialized on query touch (self-join views only)", func(s string) error {
		on, err := strconv.ParseBool(s)
		if on {
			cfg.Adaptive = adaptiveConfig()
		}
		return err
	})
	flag.IntVar(&cfg.Serve.MaxConcurrent, "concurrency", 0, "max concurrent queries (default 8)")
	flag.IntVar(&cfg.Serve.QueueDepth, "queue", 0, "admission queue depth (default 2x concurrency)")
	flag.DurationVar(&cfg.Serve.QueryTimeout, "qtimeout", 0, "per-query deadline (default 30s)")
	flag.StringVar(&cfg.DataDir, "data-dir", "", "WAL-backed durable chunk store directory; recovers committed state on startup (in-process stores only)")
	flag.Int64Var(&cfg.Serve.ViewCacheBytes, "view-cache", 0, "assembled-view cache budget in bytes (default 256MiB; negative disables view caching)")
	flag.IntVar(&cfg.Serve.JoinWorkers, "join-workers", 0, "snapshot-join fan-out width (default GOMAXPROCS; 1 forces serial)")
	flag.Parse()

	spec, err := bench.ParseSpec(*dataset, *mode, *small)
	if err == nil {
		err = run(cfg, spec, *interval, *batches, *metrics)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ivmserve:", err)
		os.Exit(1)
	}
}

// adaptiveConfig is the daemon's heavy-light tuning: the defaults, with the
// classifier projecting out the time dimension (a chunk's persistent identity
// is its pointing, not the slab it landed in).
func adaptiveConfig() *maintain.AdaptiveConfig {
	cfg := maintain.DefaultAdaptiveConfig()
	cfg.Project = maintain.DropDims(0)
	return &cfg
}

// run opens the system cfg describes over the spec's dataset, feeds it the
// dataset's batches every interval (at most maxBatches of them when that is
// positive) while it serves queries, and shuts it down on SIGINT/SIGTERM.
func run(cfg engine.Config, spec bench.Spec, interval time.Duration, maxBatches int, metrics string) error {
	data, err := spec.Generate()
	if err != nil {
		return err
	}
	if err := spec.Describe(&cfg, data); err != nil {
		return err
	}
	// With -data-dir an earlier run's committed state is recovered before
	// serving, and every commit from here on is durable against kill -9.
	h, err := engine.Open(cfg)
	if err != nil {
		return err
	}
	defer h.Close()
	cl, srv := h.Cluster(), h.Server()
	if cfg.Distributed {
		fmt.Printf("data plane: %d node daemons over TCP\n", cl.NumNodes())
	}
	if rec := h.Recovered(); rec != nil {
		fmt.Printf("recovered %s at barrier %d (%s), %d batches applied, epoch %d\n",
			cfg.DataDir, rec.Seq, rec.Kind, rec.Applied, rec.Epoch)
	}
	if metrics != "" {
		ms, err := obs.StartMetrics(metrics, func() any { return srv.Stats() })
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer ms.Close()
		fmt.Printf("metrics on http://%s\n", ms.Addr())
	}
	fmt.Printf("view: %s\n", h.Def())
	fmt.Printf("cluster: %d nodes; base: %d cells in %d chunks\n",
		cl.NumNodes(), data.Base.NumCells(), data.Base.NumChunks())
	fmt.Printf("serving queries on %s at epoch %d\n", srv.Addr(), cl.Epochs().Current())

	// The input feed resumes at the durable applied-batch cursor.
	toRun := data.Batches
	if maxBatches > 0 && maxBatches < len(toRun) {
		toRun = toRun[:maxBatches]
	}
	total := len(toRun)
	applied := min(h.Resume(), total)
	toRun = toRun[applied:]

	// Background maintenance: each batch commits and publishes a new epoch
	// while queries keep answering against their pinned snapshots. One loop
	// feeds every maintenance mode; the mode is the driver behind Submit.
	stop := make(chan struct{})
	maintDone := make(chan struct{})
	go func() {
		defer close(maintDone)
		var reports sync.WaitGroup
		submitted := 0
		defer func() {
			reports.Wait()
			reportDrained(h, submitted)
		}()
		if interval <= 0 {
			return
		}
		for i, b := range toRun {
			select {
			case <-stop:
				return
			case <-time.After(interval):
			}
			n := applied + i + 1
			tk, err := h.Submit(b)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ivmserve: submit %d: %v\n", n, err)
				return
			}
			submitted++
			// The graph resolves a ticket at its sink, batches behind it
			// already in the pipeline; the other drivers already have.
			reports.Add(1)
			report := func() {
				defer reports.Done()
				reportBatch(n, total, tk.Wait())
			}
			if cfg.Streamed {
				go report()
			} else {
				report()
			}
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	signal.Stop(sig)
	// Graceful shutdown: stop feeding and admitting queries, then Close
	// drains the driver, materializes deferred deltas and only then fsyncs
	// and closes the WAL — an acknowledged batch is never lost.
	close(stop)
	srv.Close()
	<-maintDone
	err = h.Close()
	st := srv.Stats()
	fmt.Printf("final: epoch=%d queries=%d rejected=%d cache-hit-rate=%.2f retained=%dB\n",
		st.Epoch, st.Queries, st.Rejected, st.HitRate(), st.RetainedBytes)
	if fp := st.FastPath; fp.ViewHits+fp.ViewMisses+fp.MemoHits+fp.MemoMisses > 0 {
		fmt.Printf("fast path: view=%d/%d hits/misses (%d patched, %dB cached, %d evicted, %d invalidated) memo=%d/%d\n",
			fp.ViewHits, fp.ViewMisses, fp.ViewPatches, fp.ViewBytes, fp.ViewEvictions, fp.ViewInvalidations,
			fp.MemoHits, fp.MemoMisses)
	}
	if h.Durable() != nil {
		d := st.Durable
		fmt.Printf("durable: commits=%d rollbacks=%d checkpoints=%d wal=%dB seg=%dB fsyncs=%d\n",
			d.Commits, d.Rollbacks, d.Checkpoints, d.WALBytes, d.SegBytes, d.Syncs)
	}
	return err
}

// reportBatch prints one batch's terminal outcome: the same line for every
// mode, plus the driver's detail.
func reportBatch(n, total int, res engine.Result) {
	if res.Err != nil {
		fmt.Fprintf(os.Stderr, "ivmserve: batch %d failed (rolled back): %v\n", n, res.Err)
		return
	}
	detail := ""
	switch {
	case res.Adaptive != nil:
		detail = fmt.Sprintf(" (%d eager, %d deferred)", res.Adaptive.HeavyChunks, res.Adaptive.LightChunks)
	case res.Stream != nil:
		plan := map[bool]string{true: "reused", false: "solved"}[res.Stream.Reused]
		detail = fmt.Sprintf(" (plan %s, %d retries)", plan, res.Stream.Retries)
	}
	fmt.Printf("batch %d/%d committed; epoch %d%s\n", n, total, res.Epoch, detail)
}

// reportDrained prints the driver's summary once every submitted batch is
// terminal. The feed is over, so the graph is flushed first: its per-stage
// counters are final only once the stage goroutines have exited.
func reportDrained(h *engine.Handle, submitted int) {
	if g := h.Graph(); g != nil {
		g.Drain()
		st := g.Stats()
		fmt.Printf("pipeline drained: solves=%d reuses=%d retries=%d aborts=%d\n",
			st.Router.Solves, st.Router.Reuses, st.Retries, st.Aborts)
		for _, sg := range st.Stages {
			fmt.Printf("  stage %-9s entered=%d done=%d stalls=%d stall=%.3fs busy=%.3fs\n",
				sg.Name, sg.Entered, sg.Done, sg.Stalls, sg.StallSeconds, sg.BusySeconds)
		}
		return
	}
	fmt.Printf("maintenance drained: %d batches applied\n", submitted)
	if am := h.Adaptive(); am != nil {
		st := am.Stats()
		fmt.Printf("adaptive: heavy=%d/%d pending=%d entries (%d cells) memo=%d/%d hits/misses\n",
			st.HeavyClasses, st.SeenClasses, st.Pending.Entries, st.Pending.Cells,
			st.Memo.Hits, st.Memo.Misses)
	}
}
