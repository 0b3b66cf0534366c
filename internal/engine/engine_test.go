package engine_test

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/bench"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/engine"
	"github.com/arrayview/arrayview/internal/maintain"
	"github.com/arrayview/arrayview/internal/shape"
	"github.com/arrayview/arrayview/internal/simjoin"
	"github.com/arrayview/arrayview/internal/transport"
	"github.com/arrayview/arrayview/internal/view"
	"github.com/arrayview/arrayview/internal/wal"
	"github.com/arrayview/arrayview/internal/workload"
)

func smallPTF5(t *testing.T) (bench.Spec, *workload.Dataset) {
	t.Helper()
	spec := bench.SmallSpec(bench.PTF5, workload.Real)
	data, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return spec, data
}

func adaptiveConfig() *maintain.AdaptiveConfig {
	cfg := maintain.DefaultAdaptiveConfig()
	cfg.Project = maintain.DropDims(0)
	return &cfg
}

// submitAll feeds every batch, drains, and fails the test on any batch error.
func submitAll(t *testing.T, h *engine.Handle, batches []*array.Array) {
	t.Helper()
	var tickets []*engine.Ticket
	for i, b := range batches {
		tk, err := h.Submit(b)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		tickets = append(tickets, tk)
	}
	if err := h.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i, tk := range tickets {
		if res := tk.Wait(); res.Err != nil {
			t.Fatalf("batch %d: %v", i, res.Err)
		}
	}
}

// gather reads the base and the view.
func gather(t *testing.T, h *engine.Handle) (base, vw *array.Array) {
	t.Helper()
	base, err := h.Cluster().Gather(h.Def().Alpha.Name)
	if err != nil {
		t.Fatal(err)
	}
	if vw, err = h.Cluster().Gather(h.Def().Name); err != nil {
		t.Fatal(err)
	}
	return base, vw
}

// The mode matrix through the one constructor: every driver × fabric ×
// durability cell either holds the invariant — after all batches and a
// drain, the view equals a from-scratch materialization of the gathered base
// and no scratch namespace survives — or is refused with the one error for
// that combination. Durable cells also survive a close and reopen: the
// applied cursor equals the batches submitted and the recovered state is the
// pre-close state.
func TestModeMatrix(t *testing.T) {
	spec, data := smallPTF5(t)
	drivers := []struct {
		name     string
		streamed bool
		adaptive bool
	}{
		{name: "eager"},
		{name: "adaptive", adaptive: true},
		{name: "streamed", streamed: true},
		{name: "streamed+adaptive", streamed: true, adaptive: true},
	}
	for _, drv := range drivers {
		for _, tcp := range []bool{false, true} {
			for _, durable := range []bool{false, true} {
				name := fmt.Sprintf("%s/tcp=%v/durable=%v", drv.name, tcp, durable)
				t.Run(name, func(t *testing.T) {
					var fs wal.FS
					if durable {
						fs = wal.NewMemFS()
					}
					open := func() (*engine.Handle, error) {
						return spec.Open(data, func(c *engine.Config) {
							c.Streamed, c.Distributed, c.FS = drv.streamed, tcp, fs
							if drv.adaptive {
								c.Adaptive = adaptiveConfig()
							}
						})
					}
					h, err := open()
					if tcp && durable {
						if !errors.Is(err, engine.ErrDurableRemote) {
							t.Fatalf("durable over TCP = %v, want ErrDurableRemote", err)
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					defer h.Close()
					if h.Resume() != 0 || h.Recovered() != nil {
						t.Fatalf("fresh system resumes at %d", h.Resume())
					}
					submitAll(t, h, data.Batches)
					if err := h.Verify(); err != nil {
						t.Fatal(err)
					}
					for _, name := range h.Cluster().Catalog().Names() {
						if strings.Contains(name, "#") {
							t.Errorf("scratch namespace %q survived the drain", name)
						}
					}
					if !durable {
						return
					}
					base, vw := gather(t, h)
					if err := h.Close(); err != nil {
						t.Fatalf("close: %v", err)
					}
					h2, err := open()
					if err != nil {
						t.Fatalf("reopen: %v", err)
					}
					defer h2.Close()
					if h2.Resume() != len(data.Batches) {
						t.Errorf("resume cursor %d, want %d batches", h2.Resume(), len(data.Batches))
					}
					base2, vw2 := gather(t, h2)
					if !base2.Equal(base) || !vw2.Equal(vw) {
						t.Error("recovered base/view differ from the pre-close state")
					}
					if err := h2.Verify(); err != nil {
						t.Error(err)
					}
				})
			}
		}
	}
}

// leakedDaemons reports whether any node daemon's accept loop is still
// running in this process. NodeServer.Close waits for it, so after a Close
// the answer is immediate.
func leakedDaemons() bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Contains(string(buf), "(*NodeServer).acceptLoop")
}

func dialFails(addr string) bool {
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err == nil {
		c.Close()
	}
	return err != nil
}

// Close closes what Open opened: the loopback daemons stop listening, and
// the durable store is released so the same FS opens again and recovers the
// acknowledged prefix.
func TestCloseReleasesEverything(t *testing.T) {
	spec, data := smallPTF5(t)

	h, err := spec.Open(data, func(c *engine.Config) { c.Distributed = true })
	if err != nil {
		t.Fatal(err)
	}
	addrs := engine.LoopbackAddrs(h)
	if len(addrs) != spec.Nodes {
		t.Fatalf("%d loopback daemons, want %d", len(addrs), spec.Nodes)
	}
	submitAll(t, h, data.Batches[:1])
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	for _, a := range addrs {
		if !dialFails(a) {
			t.Errorf("daemon %s still accepts connections after Close", a)
		}
	}
	if leakedDaemons() {
		t.Error("a node daemon outlived Close")
	}

	fs := wal.NewMemFS()
	durable := func(c *engine.Config) { c.FS = fs }
	if h, err = spec.Open(data, durable); err != nil {
		t.Fatal(err)
	}
	submitAll(t, h, data.Batches[:2])
	base, vw := gather(t, h)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	reopenRecovers(t, spec, data, durable, 2, base, vw)
}

// reopenRecovers opens the system again on the same FS and checks it
// recovered exactly the acknowledged prefix.
func reopenRecovers(t *testing.T, spec bench.Spec, data *workload.Dataset, dress func(*engine.Config), acked int, base, vw *array.Array) {
	t.Helper()
	h, err := spec.Open(data, dress)
	if err != nil {
		t.Fatalf("second Open on the same FS: %v", err)
	}
	defer h.Close()
	if h.Resume() != acked {
		t.Errorf("resume cursor %d, want %d", h.Resume(), acked)
	}
	base2, vw2 := gather(t, h)
	if !base2.Equal(base) || !vw2.Equal(vw) {
		t.Error("recovered state differs from the acknowledged prefix")
	}
}

// Open fails closed. The failure is a late one — the serving front end's
// listen address is occupied, the last thing Open does — so everything else
// was already open: the spawned daemons must be gone, and the durable store
// released with the acknowledged prefix intact.
//
// Before: the parent's wiring had no handle to close. cmd/ivmserve's run did
//
//	dur, rec, err = wal.Open(wal.NewOSFS(o.dataDir), ...)   // main.go:119
//	cl, err = distributedCluster(spec, o.connect)            // lc, fab: locals, dropped
//	... Install / LoadArray / BuildView / Attach / NewEngine / NewAdaptiveMaintainer ...
//	if err := srv.Listen(o.listen); err != nil { return err } // WAL, fabric, daemons left open
//
// TestParentWiringLeaks runs that shape and shows leakedDaemons catching it.
func TestOpenFailsClosed(t *testing.T) {
	spec, data := smallPTF5(t)
	occupied, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer occupied.Close()
	busy := occupied.Addr().String()

	if _, err := spec.Open(data, func(c *engine.Config) { c.Distributed, c.Listen = true, busy }); err == nil {
		t.Fatal("Open listened on an occupied address")
	}
	if leakedDaemons() {
		t.Error("a failed Open left its loopback daemons running")
	}

	// Durable: acknowledge a prefix, close, then fail a reopen late. The
	// failed Open recovered, installed and attached (a fresh checkpoint)
	// before failing; what it leaves must open again with the prefix intact.
	fs := wal.NewMemFS()
	durable := func(c *engine.Config) { c.FS = fs; c.Adaptive = adaptiveConfig() }
	h, err := spec.Open(data, durable)
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, h, data.Batches[:2])
	base, vw := gather(t, h)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Open(data, func(c *engine.Config) { durable(c); c.Listen = busy }); err == nil {
		t.Fatal("Open listened on an occupied address")
	}
	reopenRecovers(t, spec, data, durable, 2, base, vw)

	// A refusal decided before anything opens leaves nothing either.
	two := twoArrayDef(t)
	for _, dress := range []func(*engine.Config){
		func(c *engine.Config) { c.Streamed = true },
		func(c *engine.Config) { c.Adaptive = adaptiveConfig() },
		func(c *engine.Config) { c.Listen = "127.0.0.1:0" },
	} {
		_, err := spec.Open(data, func(c *engine.Config) { c.Def, c.Distributed = two, true; dress(c) })
		if !errors.Is(err, view.ErrSelfJoinOnly) {
			t.Errorf("two-array view = %v, want ErrSelfJoinOnly", err)
		}
	}
	if _, err := spec.Open(data, func(c *engine.Config) { c.Connect = "127.0.0.1:1" }); err == nil {
		t.Error("node addresses without the distributed data plane must be refused")
	}
	if leakedDaemons() {
		t.Error("a refused Open started daemons")
	}
}

func twoArrayDef(t *testing.T) *view.Definition {
	t.Helper()
	alpha := bench.SmallSpec(bench.PTF5, workload.Real).PTF.Schema()
	beta := array.MustSchema("PTF2", alpha.Dims, alpha.Attrs)
	def, err := view.NewDefinition("X", alpha, beta,
		simjoin.NewPred(shape.L1(len(alpha.Dims), 1), nil),
		[]string{alpha.Dims[0].Name},
		[]view.Aggregate{{Kind: view.Count, As: "cnt"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return def
}

// The parent's wiring — a copy of cmd/ivmserve's distributedCluster followed
// by run's error path — fails the assertion TestOpenFailsClosed makes: the
// daemons it spawned keep running after it returns its error.
func TestParentWiringLeaks(t *testing.T) {
	var spawned *transport.LoopbackCluster
	parentRun := func(nodes int, listen string) error {
		lc, err := transport.StartLoopback(nodes, nil)
		if err != nil {
			return err
		}
		spawned = lc // the parent kept no such reference; the test needs one to clean up
		fab, err := transport.NewTCPFabric(lc.Addrs, transport.DefaultClientConfig())
		if err != nil {
			return err
		}
		if _, err := cluster.New(nodes, cluster.WithFabric(fab)); err != nil {
			return err
		}
		ln, err := net.Listen("tcp", listen)
		if err != nil {
			return err // lc and fab are dropped here, still open
		}
		return ln.Close()
	}
	occupied, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer occupied.Close()
	if err := parentRun(2, occupied.Addr().String()); err == nil {
		t.Fatal("listened on an occupied address")
	}
	defer spawned.Close()
	if !leakedDaemons() {
		t.Error("the parent's error path should leave its daemons running")
	}
	for _, a := range spawned.Addrs {
		if dialFails(a) {
			t.Errorf("daemon %s should still accept connections", a)
		}
	}
}
