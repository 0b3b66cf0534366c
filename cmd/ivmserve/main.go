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
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/bench"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/maintain"
	"github.com/arrayview/arrayview/internal/obs"
	"github.com/arrayview/arrayview/internal/query"
	"github.com/arrayview/arrayview/internal/serve"
	"github.com/arrayview/arrayview/internal/stream"
	"github.com/arrayview/arrayview/internal/transport"
	"github.com/arrayview/arrayview/internal/view"
	"github.com/arrayview/arrayview/internal/wal"
	"github.com/arrayview/arrayview/internal/workload"
)

// options are the daemon's settings, one field per flag.
type options struct {
	dataset, mode, strategy string
	small, distributed      bool
	connect                 string
	listen, metrics         string
	dataDir                 string
	interval                time.Duration
	streamed, adaptive      bool
	batches                 int
	serve                   serve.Config
}

func main() {
	var o options
	flag.StringVar(&o.dataset, "dataset", "PTF-5", "PTF-5|PTF-25|GEO")
	flag.StringVar(&o.mode, "mode", "", "real|random|correlated|periodic")
	flag.StringVar(&o.strategy, "strategy", "reassign", "baseline|differential|reassign")
	flag.BoolVar(&o.small, "small", true, "use the test-scale dataset")
	flag.BoolVar(&o.distributed, "distributed", false, "run the data plane over TCP node daemons instead of in-process stores")
	flag.StringVar(&o.connect, "connect", "", "comma-separated ivmnode addresses (with -distributed; default: spawn loopback daemons)")
	flag.StringVar(&o.listen, "listen", "127.0.0.1:7420", "query-serving listen address")
	flag.DurationVar(&o.interval, "interval", 500*time.Millisecond, "delay between background maintenance batches (0 disables maintenance)")
	flag.BoolVar(&o.streamed, "stream", false, "maintain through the pipelined streaming graph instead of batch-at-a-time (self-join views only)")
	flag.BoolVar(&o.adaptive, "adaptive", false, "heavy-light adaptive maintenance: eager hot chunks, lazy cold chunks materialized on query touch (self-join views only)")
	flag.StringVar(&o.metrics, "metrics", "", "serve JSON health metrics over HTTP on this address (host:port; empty disables)")
	flag.IntVar(&o.batches, "batches", 0, "limit background batches (default: all, then idle)")
	flag.IntVar(&o.serve.MaxConcurrent, "concurrency", 0, "max concurrent queries (default 8)")
	flag.IntVar(&o.serve.QueueDepth, "queue", 0, "admission queue depth (default 2x concurrency)")
	flag.DurationVar(&o.serve.QueryTimeout, "qtimeout", 0, "per-query deadline (default 30s)")
	flag.StringVar(&o.dataDir, "data-dir", "", "WAL-backed durable chunk store directory; recovers committed state on startup (in-process stores only)")
	flag.Int64Var(&o.serve.ViewCacheBytes, "view-cache", 0, "assembled-view cache budget in bytes (default 256MiB; negative disables view caching)")
	flag.IntVar(&o.serve.JoinWorkers, "join-workers", 0, "snapshot-join fan-out width (default GOMAXPROCS; 1 forces serial)")
	flag.BoolVar(&o.serve.DisableFastPath, "no-fastpath", false, "disable the query fast path (view cache, plan memo, parallel joins)")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "ivmserve:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.dataDir != "" && o.distributed {
		return fmt.Errorf("-data-dir journals in-process stores; it cannot be combined with -distributed")
	}
	ds, err := bench.ParseDataset(o.dataset)
	if err != nil {
		return err
	}
	mode := workload.Real
	if ds == bench.GEO {
		mode = workload.Random
	}
	if o.mode != "" {
		if mode, err = workload.ParseMode(o.mode); err != nil {
			return err
		}
	}
	planner, ok := maintain.Strategies()[o.strategy]
	if !ok {
		return fmt.Errorf("unknown strategy %q", o.strategy)
	}
	var spec bench.Spec
	if o.small {
		spec = bench.SmallSpec(ds, mode)
	} else {
		spec = bench.DefaultSpec(ds, mode)
	}

	data, err := spec.Generate()
	if err != nil {
		return err
	}
	// With -data-dir the chunk stores are WAL-backed: an earlier run's
	// committed state is recovered before serving, and every commit from
	// here on is durable against kill -9.
	var dur *wal.Durable
	var rec *wal.Recovered
	if o.dataDir != "" {
		if dur, rec, err = wal.Open(wal.NewOSFS(o.dataDir), spec.Nodes, wal.Options{}); err != nil {
			return fmt.Errorf("durable store: %w", err)
		}
	}
	var cl *cluster.Cluster
	if o.distributed {
		cl, err = distributedCluster(spec, o.connect)
	} else {
		cl, err = spec.Cluster()
	}
	if err != nil {
		return err
	}
	def, err := spec.ViewFor(data)
	if err != nil {
		return err
	}
	applied := 0
	if rec != nil {
		if err := rec.Install(cl); err != nil {
			return fmt.Errorf("recovery: %w", err)
		}
		// The recovered catalog already holds the base, the view, and the
		// pending log; resume the input feed at the durable applied-batch
		// cursor. Barrier Seq is NOT a batch index — adaptive and streamed
		// maintenance write extra barriers (deferred-delta appends,
		// materializations, rollback/retry pairs) — so only retiring
		// barriers advance Applied.
		applied = int(rec.Applied)
		if applied > len(data.Batches) {
			applied = len(data.Batches)
		}
		fmt.Printf("recovered %s at barrier %d (%s), %d batches applied, epoch %d\n",
			o.dataDir, rec.Seq, rec.Kind, rec.Applied, rec.Epoch)
	} else {
		if err := cl.LoadArray(data.Base, &cluster.RoundRobin{}); err != nil {
			return err
		}
		if err := maintain.BuildView(cl, def, &cluster.RoundRobin{}); err != nil {
			return err
		}
	}
	if dur != nil {
		if err := dur.Attach(cl); err != nil {
			return fmt.Errorf("durable store: %w", err)
		}
	}
	if (o.streamed || o.adaptive) && !def.SelfJoin() {
		return fmt.Errorf("-stream and -adaptive support self-join views only (use a PTF dataset)")
	}
	eng, err := query.NewEngine(cl, def, spec.Params)
	if err != nil {
		return err
	}
	// With -adaptive, hot chunks maintain eagerly, cold-chunk deltas defer
	// to the pending log, and the serving path materializes them before
	// pinning a snapshot — queries stay exact, cold maintenance becomes
	// pay-on-read.
	var am *maintain.AdaptiveMaintainer
	counters := &obs.AdaptiveCounters{}
	if o.adaptive {
		cfg := maintain.DefaultAdaptiveConfig()
		cfg.Project = maintain.DropDims(0)
		cfg.Counters = counters
		am, err = maintain.NewAdaptiveMaintainer(cl, def, planner, spec.Params, cfg)
		if err != nil {
			return err
		}
		eng.Fresh = am.EnsureFresh
	}

	toRun := data.Batches
	if o.batches > 0 && o.batches < len(toRun) {
		toRun = toRun[:o.batches]
	}
	total := len(toRun)
	toRun = toRun[min(applied, total):]
	var feed feeder
	if o.streamed {
		feed, err = streamedFeeder(cl, def, planner, am, spec.Params, total)
	} else {
		feed, err = batchFeeder(cl, def, planner, am, spec.Params, total)
	}
	if err != nil {
		return err
	}

	srv := serve.NewServer(eng, &o.serve)
	if am != nil {
		srv.SetFresh(am.EnsureFresh, counters)
	}
	if dur != nil {
		srv.SetDurable(dur.Counters())
	}
	if err := srv.Listen(o.listen); err != nil {
		return err
	}
	defer srv.Close()
	if o.metrics != "" {
		ms, err := obs.StartMetrics(o.metrics, func() any { return srv.Stats() })
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer ms.Close()
		fmt.Printf("metrics on http://%s\n", ms.Addr())
	}
	fmt.Printf("view: %s\n", def)
	fmt.Printf("cluster: %d nodes; base: %d cells in %d chunks\n",
		cl.NumNodes(), data.Base.NumCells(), data.Base.NumChunks())
	fmt.Printf("serving queries on %s at epoch %d\n", srv.Addr(), cl.Epochs().Current())

	// Background maintenance: each batch commits and publishes a new epoch
	// while queries keep answering against their pinned snapshots. One loop
	// feeds every maintenance mode; the mode is the feeder behind it.
	stop := make(chan struct{})
	maintDone := make(chan struct{})
	go func() {
		defer close(maintDone)
		defer feed.drain()
		if o.interval <= 0 {
			return
		}
		for i, b := range toRun {
			select {
			case <-stop:
				return
			case <-time.After(o.interval):
			}
			if err := feed.submit(applied+i+1, b); err != nil {
				fmt.Fprintf(os.Stderr, "ivmserve: submit %d: %v\n", applied+i+1, err)
				return
			}
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	signal.Stop(sig)
	// Graceful shutdown: stop admitting queries, drain the maintenance
	// loop (the streaming sink included), materialize any deferred
	// light-chunk deltas through the normal commit path, and only then
	// fsync and close the WAL — an acknowledged batch is never lost.
	close(stop)
	srv.Close()
	<-maintDone
	if am != nil {
		if err := am.EnsureFresh(context.Background()); err != nil {
			fmt.Fprintf(os.Stderr, "ivmserve: draining pending deltas: %v\n", err)
		}
	}
	st := srv.Stats()
	fmt.Printf("final: epoch=%d queries=%d rejected=%d cache-hit-rate=%.2f retained=%dB\n",
		st.Epoch, st.Queries, st.Rejected, st.HitRate(), st.RetainedBytes)
	if fp := st.FastPath; fp.ViewHits+fp.ViewMisses+fp.MemoHits+fp.MemoMisses > 0 {
		fmt.Printf("fast path: view=%d/%d hits/misses (%dB cached, %d evicted, %d invalidated) memo=%d/%d solves-skipped=%d\n",
			fp.ViewHits, fp.ViewMisses, fp.ViewBytes, fp.ViewEvictions, fp.ViewInvalidations,
			fp.MemoHits, fp.MemoMisses, fp.SolveSkips)
	}
	if dur != nil {
		d := st.Durable
		fmt.Printf("durable: commits=%d rollbacks=%d checkpoints=%d wal=%dB seg=%dB fsyncs=%d\n",
			d.Commits, d.Rollbacks, d.Checkpoints, d.WALBytes, d.SegBytes, d.Syncs)
		if err := dur.Close(); err != nil {
			return fmt.Errorf("durable store close: %w", err)
		}
	}
	return nil
}

// feeder is one maintenance mode as the feed loop sees it. submit hands input
// batch n to the engine, which reports the batch's outcome (reportBatch) —
// before submit returns, or when its ticket resolves; an error means the
// engine takes no more batches. drain waits for everything submitted and
// prints the mode's summary.
type feeder struct {
	submit func(n int, b *array.Array) error
	drain  func()
}

// reportBatch prints one batch's terminal outcome: the same line for every
// mode, plus the mode's detail.
func reportBatch(n, total int, epoch uint64, detail string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "ivmserve: batch %d failed (rolled back): %v\n", n, err)
		return
	}
	fmt.Printf("batch %d/%d committed; epoch %d%s\n", n, total, epoch, detail)
}

// batchFeeder maintains batch-at-a-time: through the adaptive layer when
// there is one, through an eager Maintainer otherwise. A batch that ends
// without a retiring barrier — it failed (rolled back) or was a no-op — is
// recorded as skipped, so a restart resumes after it.
func batchFeeder(cl *cluster.Cluster, def *view.Definition, planner maintain.Planner,
	am *maintain.AdaptiveMaintainer, params maintain.Params, total int) (feeder, error) {
	apply := func(b *array.Array) (string, error) {
		rep, err := am.ApplyBatch(b)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf(" (%d eager, %d deferred)", rep.HeavyChunks, rep.LightChunks), nil
	}
	if am == nil {
		m, err := maintain.NewMaintainer(cl, def, planner, params)
		if err != nil {
			return feeder{}, err
		}
		apply = func(b *array.Array) (string, error) {
			_, err := m.ApplyBatch(b)
			return "", err
		}
	}
	done := 0
	return feeder{
		submit: func(n int, b *array.Array) error {
			done++
			if err := maintain.RetireSkipped(cl, func() {
				detail, err := apply(b)
				reportBatch(n, total, cl.Epochs().Current(), detail, err)
			}); err != nil {
				fmt.Fprintf(os.Stderr, "ivmserve: batch %d skip barrier: %v\n", n, err)
			}
			return nil
		},
		drain: func() {
			fmt.Printf("maintenance drained: %d batches applied\n", done)
			if am != nil {
				st := am.Stats()
				fmt.Printf("adaptive: heavy=%d/%d pending=%d entries (%d cells) memo=%d/%d hits/misses\n",
					st.HeavyClasses, st.SeenClasses, st.Pending.Entries, st.Pending.Cells,
					st.Memo.Hits, st.Memo.Misses)
			}
		},
	}, nil
}

// streamedFeeder maintains through the pipelined operator graph: later
// batches enter the transfer stage while earlier ones are still joining,
// commits stay in admission order, and queries keep serving from pinned
// snapshots throughout. Draining flushes the in-flight batches and prints the
// per-stage counters.
func streamedFeeder(cl *cluster.Cluster, def *view.Definition, planner maintain.Planner,
	am *maintain.AdaptiveMaintainer, params maintain.Params, total int) (feeder, error) {
	g, err := stream.NewGraph(stream.Config{
		Cluster:        cl,
		Def:            def,
		Planner:        planner,
		Params:         params,
		ArrayPlacement: &cluster.RoundRobin{},
		ViewPlacement:  &cluster.RoundRobin{},
		Adaptive:       am,
	})
	if err != nil {
		return feeder{}, fmt.Errorf("streaming graph: %w", err)
	}
	var reports sync.WaitGroup
	return feeder{
		submit: func(n int, b *array.Array) error {
			tk, err := g.Submit(b)
			if err != nil {
				return err
			}
			reports.Add(1)
			go func() {
				defer reports.Done()
				res := tk.Wait()
				plan := map[bool]string{true: "reused", false: "solved"}[res.Reused]
				reportBatch(n, total, res.Epoch, fmt.Sprintf(" (plan %s, %d retries)", plan, res.Retries), res.Err)
			}()
			return nil
		},
		drain: func() {
			g.Drain()
			reports.Wait()
			st := g.Stats()
			fmt.Printf("pipeline drained: solves=%d reuses=%d retries=%d aborts=%d\n",
				st.Router.Solves, st.Router.Reuses, st.Retries, st.Aborts)
			for _, sg := range st.Stages {
				fmt.Printf("  stage %-9s entered=%d done=%d stalls=%d stall=%.3fs busy=%.3fs\n",
					sg.Name, sg.Entered, sg.Done, sg.Stalls, sg.StallSeconds, sg.BusySeconds)
			}
		},
	}, nil
}

// distributedCluster builds a cluster whose data plane is a TCPFabric:
// either connected to externally-run ivmnode daemons or to loopback daemons
// spawned in-process.
func distributedCluster(spec bench.Spec, connect string) (*cluster.Cluster, error) {
	var addrs []string
	if connect != "" {
		for _, a := range strings.Split(connect, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		fmt.Printf("connecting to %d node daemons\n", len(addrs))
	} else {
		lc, err := transport.StartLoopback(spec.Nodes, nil)
		if err != nil {
			return nil, err
		}
		addrs = lc.Addrs
		fmt.Printf("spawned %d loopback node daemons\n", len(addrs))
	}
	fab, err := transport.NewTCPFabric(addrs, transport.DefaultClientConfig())
	if err != nil {
		return nil, err
	}
	return cluster.New(len(addrs),
		cluster.WithWorkersPerNode(spec.Workers), cluster.WithFabric(fab))
}
