// Package engine is the composition root: Open builds the whole system in
// the one order that makes it correct, and Close takes it down in the one
// order that loses nothing. The daemons, the public façade and the experiment
// ladders all get their system here; nothing else wires a fabric, a cluster,
// a durable store or a maintenance driver together.
//
// Open order: choose the fabric and build the cluster → open the WAL (what it
// recovers decides the next step) → install the recovered state, or load the
// base and build the view → attach the WAL (after the state exists, so its
// first checkpoint holds it) → build the maintenance driver → build the query
// engine with its freshness hook → start the serving front end.
//
// Close order: stop admitting queries → drain the driver → materialize
// pending deltas → close the WAL → close the fabric and the daemons Open
// started.
package engine

import (
	"errors"
	"fmt"
	"strings"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/maintain"
	"github.com/arrayview/arrayview/internal/obs"
	"github.com/arrayview/arrayview/internal/query"
	"github.com/arrayview/arrayview/internal/serve"
	"github.com/arrayview/arrayview/internal/stream"
	"github.com/arrayview/arrayview/internal/transport"
	"github.com/arrayview/arrayview/internal/view"
	"github.com/arrayview/arrayview/internal/wal"
)

// ErrDurableRemote refuses a durable store over anything but the in-process
// stores: the WAL journals worker stores this process owns.
var ErrDurableRemote = errors.New("engine: a durable store journals in-process stores; it cannot be combined with a remote or caller-built fabric")

// Config describes one system. Every field is a flag of ivmserve/viewctl or
// an argument of a constructor Open calls; nothing here is a new setting.
type Config struct {
	// Nodes and Workers size the cluster (cluster.New, WithWorkersPerNode;
	// Workers 0 keeps the cluster's default). With Connect the node count is
	// the number of addresses.
	Nodes, Workers int
	// Cluster, when non-nil, is adopted instead: the caller built and loaded
	// it (the façade's Open → Load → CreateView lifecycle) and keeps owning
	// its fabric. Nodes, Workers and the fabric fields are ignored.
	Cluster *cluster.Cluster

	// The data plane. The default is in-process stores. Fabric is any
	// caller-built fabric (a FaultFabric, a stripped-down LocalFabric); the
	// caller closes it. Distributed runs over TCP node daemons: the
	// comma-separated ivmnode addresses in Connect, or, when that is empty,
	// loopback daemons Open starts and Close stops. Compress turns on
	// per-frame deflate on the TCP client.
	Fabric      cluster.Fabric
	Distributed bool
	Connect     string
	Compress    bool

	// DataDir (a directory) or FS (any wal.FS) makes the chunk stores
	// WAL-backed: an earlier run's committed state is recovered instead of
	// loading Base, and every commit from then on is durable. In-process
	// stores only.
	DataDir string
	FS      wal.FS
	WAL     wal.Options

	// Def is the maintained view; Base, when non-nil, is loaded first unless
	// state was recovered. Placement, when non-nil, places the base, the view
	// and every new chunk the maintainer homes; nil loads and builds
	// round-robin and keeps the maintainer's hash default.
	Def       *view.Definition
	Base      *array.Array
	Placement cluster.Placement

	// The maintenance driver: Strategy names the planner ("" = the
	// maintainer's default, reassign); Adaptive, when non-nil, puts the
	// heavy-light layer in front of it; Streamed maintains through the
	// pipelined graph (with Adaptive as its classifier when both are set).
	Strategy string
	Params   maintain.Params
	Adaptive *maintain.AdaptiveConfig
	Streamed bool

	// Listen, when non-empty, starts the query-serving front end there with
	// the Serve settings.
	Listen string
	Serve  serve.Config
}

// Handle is one open system. Its verbs are "a batch arrived" (Submit), "wait
// for everything" (Drain) and "shut down" (Close); the accessors expose the
// parts for callers that need a synchronous *maintain.Report or counters.
type Handle struct {
	def *view.Definition
	cl  *cluster.Cluster

	dur *wal.Durable
	rec *wal.Recovered

	m   *maintain.Maintainer
	am  *maintain.AdaptiveMaintainer
	g   *stream.Graph
	eng *query.Engine
	srv *serve.Server

	// What Open started and Close must stop, in closing order.
	fab      *transport.TCPFabric
	loopback *transport.LoopbackCluster
}

// Open builds the system cfg describes. On any failure it closes whatever it
// had already opened — the durable store, the TCP fabric, spawned daemons —
// before returning the error.
func Open(cfg Config) (h *Handle, err error) {
	durable := cfg.DataDir != "" || cfg.FS != nil
	switch {
	case cfg.Def == nil:
		return nil, errors.New("engine: no view definition")
	case cfg.Connect != "" && !cfg.Distributed:
		return nil, errors.New("engine: Connect lists node daemons but the data plane is not Distributed (-connect needs -distributed)")
	case cfg.Distributed && cfg.Fabric != nil:
		return nil, errors.New("engine: both a caller-built Fabric and the Distributed data plane were asked for")
	case durable && (cfg.Distributed || cfg.Fabric != nil):
		return nil, ErrDurableRemote
	case (cfg.Streamed || cfg.Adaptive != nil || cfg.Listen != "") && !cfg.Def.SelfJoin():
		return nil, fmt.Errorf("engine: streaming, adaptive maintenance and query serving of %s: %w", cfg.Def.Name, view.ErrSelfJoinOnly)
	}
	var planner maintain.Planner
	if cfg.Strategy != "" {
		var ok bool
		if planner, ok = maintain.Strategies()[cfg.Strategy]; !ok {
			return nil, fmt.Errorf("engine: unknown strategy %q", cfg.Strategy)
		}
	}

	h = &Handle{def: cfg.Def, cl: cfg.Cluster}
	defer func() {
		if err != nil {
			_ = h.Close() // the first error is the one to report
			h = nil
		}
	}()

	if h.cl == nil {
		if h.cl, err = h.buildCluster(cfg); err != nil {
			return h, err
		}
	}
	// The WAL opens before any state exists: what it recovers decides
	// between installing and loading.
	if durable {
		fs := cfg.FS
		if fs == nil {
			fs = wal.NewOSFS(cfg.DataDir)
		}
		if h.dur, h.rec, err = wal.Open(fs, h.cl.NumNodes(), cfg.WAL); err != nil {
			return h, fmt.Errorf("engine: durable store: %w", err)
		}
	}
	if h.rec != nil {
		// The recovered catalog already holds the base, the view and the
		// pending log.
		if err = h.rec.Install(h.cl); err != nil {
			return h, fmt.Errorf("engine: recovery: %w", err)
		}
		h.rec.Nodes = nil // installed; keep only the barrier's identity
	} else {
		if cfg.Base != nil {
			if err = h.cl.LoadArray(cfg.Base, placement(cfg)); err != nil {
				return h, err
			}
		}
		if err = maintain.BuildView(h.cl, cfg.Def, placement(cfg)); err != nil {
			return h, err
		}
	}
	if h.dur != nil {
		if err = h.dur.Attach(h.cl); err != nil {
			return h, fmt.Errorf("engine: durable store: %w", err)
		}
	}

	var adaptive *obs.AdaptiveCounters // what the server's stats surface reads
	switch {
	case cfg.Adaptive != nil:
		ac := *cfg.Adaptive
		if ac.Counters == nil {
			ac.Counters = &obs.AdaptiveCounters{}
		}
		adaptive = ac.Counters
		if h.am, err = maintain.NewAdaptiveMaintainer(h.cl, cfg.Def, planner, cfg.Params, ac); err != nil {
			return h, err
		}
		h.m = h.am.Inner()
	case !cfg.Streamed:
		if h.m, err = maintain.NewMaintainer(h.cl, cfg.Def, planner, cfg.Params); err != nil {
			return h, err
		}
	}
	if h.m != nil && cfg.Placement != nil {
		h.m.SetPlacements(cfg.Placement, cfg.Placement)
	}
	if cfg.Streamed {
		h.g, err = stream.NewGraph(stream.Config{
			Cluster: h.cl, Def: cfg.Def, Planner: planner, Params: cfg.Params,
			ArrayPlacement: placement(cfg), ViewPlacement: placement(cfg),
			Adaptive: h.am,
		})
		if err != nil {
			return h, fmt.Errorf("engine: streaming graph: %w", err)
		}
	}

	if cfg.Def.SelfJoin() {
		if h.eng, err = query.NewEngine(h.cl, cfg.Def, cfg.Params); err != nil {
			return h, err
		}
		// With the adaptive layer cold-chunk deltas sit in the pending log;
		// materializing them before every answer keeps queries exact.
		if h.am != nil {
			h.eng.Fresh = h.am.EnsureFresh
		}
	}
	if cfg.Listen != "" {
		h.srv = serve.NewServer(h.eng, &cfg.Serve)
		if h.am != nil {
			h.srv.SetAdaptive(adaptive)
		}
		if h.dur != nil {
			h.srv.SetDurable(h.dur.Counters())
		}
		if err = h.srv.Listen(cfg.Listen); err != nil {
			return h, err
		}
	}
	return h, nil
}

// placement is the static placement for loading, building and the graph's
// new chunks: the configured one, or a fresh round-robin (the paper's layout).
func placement(cfg Config) cluster.Placement {
	if cfg.Placement != nil {
		return cfg.Placement
	}
	return &cluster.RoundRobin{}
}

// buildCluster chooses the fabric and builds the cluster over it, recording
// on the handle what Close must stop.
func (h *Handle) buildCluster(cfg Config) (*cluster.Cluster, error) {
	opts := []cluster.Option{cluster.WithWorkersPerNode(cfg.Workers)}
	nodes := cfg.Nodes
	switch {
	case cfg.Fabric != nil:
		opts = append(opts, cluster.WithFabric(cfg.Fabric))
	case cfg.Distributed:
		var addrs []string
		for _, a := range strings.Split(cfg.Connect, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		if len(addrs) == 0 {
			lc, err := transport.StartLoopback(cfg.Nodes, nil)
			if err != nil {
				return nil, err
			}
			h.loopback, addrs = lc, lc.Addrs
		}
		cc := transport.DefaultClientConfig()
		cc.Compress = cfg.Compress
		fab, err := transport.NewTCPFabric(addrs, cc)
		if err != nil {
			return nil, err
		}
		h.fab, nodes = fab, len(addrs)
		opts = append(opts, cluster.WithFabric(fab))
	}
	return cluster.New(nodes, opts...)
}

// Cluster returns the system's cluster.
func (h *Handle) Cluster() *cluster.Cluster { return h.cl }

// Def returns the maintained view's definition.
func (h *Handle) Def() *view.Definition { return h.def }

// Query returns the cold-path query engine (freshness hook installed), or
// nil for a two-array view.
func (h *Handle) Query() *query.Engine { return h.eng }

// Maintainer returns the batch-at-a-time maintainer, for callers that need
// the synchronous *maintain.Report (or ApplyDelete/ApplyBatch2): the eager
// driver, or the one under the adaptive layer. Nil when the graph alone
// drives maintenance. Batches applied through it bypass Submit's retire rule.
func (h *Handle) Maintainer() *maintain.Maintainer { return h.m }

// Adaptive returns the heavy-light layer, or nil.
func (h *Handle) Adaptive() *maintain.AdaptiveMaintainer { return h.am }

// Graph returns the streaming graph, or nil.
func (h *Handle) Graph() *stream.Graph { return h.g }

// Server returns the listening query front end (freshness hook and
// adaptive/durable counters wired), or nil without Config.Listen.
func (h *Handle) Server() *serve.Server { return h.srv }

// Durable returns the attached WAL-backed store, or nil.
func (h *Handle) Durable() *wal.Durable { return h.dur }

// Recovered identifies the barrier the system was recovered at (chunk bodies
// dropped), or nil after a fresh load.
func (h *Handle) Recovered() *wal.Recovered { return h.rec }

// Resume is the recovered applied-batch cursor: how many input batches an
// earlier run durably consumed, i.e. where to resume the feed. Barrier Seq
// is not a batch index — adaptive and streamed maintenance write extra
// barriers (deferred-delta appends, materializations, rollback/retry pairs) —
// so only retiring barriers advance it. Zero after a fresh load.
func (h *Handle) Resume() int {
	if h.rec == nil {
		return 0
	}
	return int(h.rec.Applied)
}

// Result is the terminal outcome of one submitted batch: exactly one of
// Report (eager), Adaptive and Stream carries the driver's own detail.
type Result struct {
	// Err is nil iff the batch committed; a failed batch was rolled back.
	Err error
	// Epoch is the current epoch once the batch is terminal.
	Epoch    uint64
	Report   *maintain.Report
	Adaptive *maintain.AdaptiveReport
	Stream   *stream.Result
}

// Ticket resolves to a submitted batch's Result.
type Ticket struct {
	res    Result
	stream *stream.Ticket
}

// Wait blocks until the batch is terminal. The eager and adaptive drivers
// resolve a ticket before Submit returns; the graph resolves it at its sink.
func (t *Ticket) Wait() Result {
	if t.stream == nil {
		return t.res
	}
	r := t.stream.Wait()
	return Result{Err: r.Err, Epoch: r.Epoch, Stream: &r}
}

// Submit hands one insertion batch to the driver. An error means the driver
// takes no more batches; a batch's own failure is in its Result. A batch that
// ends without a retiring barrier — it failed and rolled back, or was a no-op
// — is recorded as skipped, so a restart resumes after it (the graph applies
// the same rule at its sink).
func (h *Handle) Submit(delta *array.Array) (*Ticket, error) {
	if h.g != nil {
		tk, err := h.g.Submit(delta)
		if err != nil {
			return nil, err
		}
		return &Ticket{stream: tk}, nil
	}
	tk := &Ticket{}
	// The skip barrier's error is dropped, as at the graph's sink: resume
	// then re-runs the batch from clean pre-batch state, which is safe.
	_ = maintain.RetireSkipped(h.cl, func() {
		if h.am != nil {
			tk.res.Adaptive, tk.res.Err = h.am.ApplyBatch(delta)
		} else {
			tk.res.Report, tk.res.Err = h.m.ApplyBatch(delta)
		}
	})
	tk.res.Epoch = h.cl.Epochs().Current()
	return tk, nil
}

// Drain waits for every submitted batch, then materializes the adaptive
// layer's pending deltas. It closes the graph: a streamed handle takes no
// Submit after Drain.
func (h *Handle) Drain() error {
	if h.g != nil {
		h.g.Drain()
	}
	if h.am != nil {
		if _, err := h.am.Drain(); err != nil {
			return fmt.Errorf("engine: draining pending deltas: %w", err)
		}
	}
	return nil
}

// Verify checks the invariant: the maintained view equals a from-scratch
// materialization of the committed base (modulo the zero-state cells
// retractions leave). Call it on a quiescent system — after Drain when the
// adaptive layer may hold pending deltas.
func (h *Handle) Verify() error {
	alpha, err := h.cl.Gather(h.def.Alpha.Name)
	if err != nil {
		return err
	}
	beta := alpha
	if !h.def.SelfJoin() {
		if beta, err = h.cl.Gather(h.def.Beta.Name); err != nil {
			return err
		}
	}
	got, err := h.cl.Gather(h.def.Name)
	if err != nil {
		return err
	}
	want, err := view.Materialize(h.def, alpha, beta)
	if err != nil {
		return err
	}
	if !got.EqualStates(want) {
		return fmt.Errorf("engine: view %s diverges from recomputation", h.def.Name)
	}
	return nil
}

// Close shuts the system down so that an acknowledged batch is never lost:
// stop admitting queries, drain the driver (the streaming sink included),
// materialize deferred deltas through the normal commit path, and only then
// fsync and close the WAL; last, close the fabric and the daemons Open
// started. It returns the first error and keeps going. Safe on a partly
// built handle, which is how Open fails closed.
func (h *Handle) Close() error {
	var first error
	keep := func(err error) {
		if first == nil {
			first = err
		}
	}
	if h.srv != nil {
		keep(h.srv.Close())
	}
	keep(h.Drain())
	if h.dur != nil {
		if err := h.dur.Close(); err != nil {
			keep(fmt.Errorf("engine: durable store close: %w", err))
		}
	}
	if h.fab != nil {
		keep(h.fab.Close())
	}
	if h.loopback != nil {
		keep(h.loopback.Close())
	}
	return first
}
