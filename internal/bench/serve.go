package bench

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/engine"
	"github.com/arrayview/arrayview/internal/query"
	"github.com/arrayview/arrayview/internal/serve"
)

// ServeFabricResult measures query serving over one fabric: sustained QPS
// and tail latency of snapshot-isolated queries racing live maintenance,
// with the consistency audit (answers checked against the committed state
// of the epoch they pinned) and cache/admission counters.
type ServeFabricResult struct {
	Fabric string
	// Queries answered, batches committed, and epochs published during the
	// measurement window.
	Queries int
	Batches int
	Epochs  uint64
	// Wall-clock window and throughput.
	Seconds float64
	QPS     float64
	// Latency percentiles over all answered queries, milliseconds.
	P50Millis float64
	P99Millis float64
	// Hot-chunk read cache behaviour on the serving daemon.
	CacheHitRate float64
	CacheHits    int64
	CacheMisses  int64
	// Overloads counts admission rejections; QueryErrors counts queries
	// that failed outright (any nonzero value is a red flag).
	Overloads   int64
	QueryErrors int
	// Violations counts answers that did not equal the committed state of
	// the epoch they were pinned to — the snapshot-isolation audit. Must
	// be zero.
	Violations int
}

// ServeResult is the serve experiment across both fabrics.
type ServeResult struct {
	Spec    Spec
	Workers int
	Fabrics []*ServeFabricResult
}

// serveObservation is one client-side answer: the epoch it was pinned to
// and the canonical rendering of its cells. Verified post-hoc against the
// per-epoch expected states so clients never synchronize with the writer.
type serveObservation struct {
	epoch uint64
	fp    string
}

// serveFingerprint renders an array's cells canonically.
func serveFingerprint(a *array.Array) string {
	var cells []string
	a.EachCell(func(p array.Point, tup array.Tuple) bool {
		cells = append(cells, fmt.Sprintf("%v=%v", p, tup))
		return true
	})
	sort.Strings(cells)
	return fmt.Sprint(cells)
}

// Serve measures snapshot-isolated query serving under live maintenance on
// both fabrics: an ivmserve daemon fronts the cluster over real TCP while
// workers query the view shape continuously and every maintenance batch of
// the dataset commits underneath them. Each answer is audited against the
// committed state of the epoch it pinned.
func Serve(w io.Writer, spec Spec, workers int) (*ServeResult, error) {
	if workers <= 0 {
		workers = 4
	}
	out := &ServeResult{Spec: spec, Workers: workers}
	for _, tcp := range []bool{false, true} {
		r, err := serveOnFabric(spec, workers, tcp)
		if err != nil {
			return nil, fmt.Errorf("bench: serve on %s: %w", fabricLabel(tcp), err)
		}
		out.Fabrics = append(out.Fabrics, r)
	}
	out.WriteTable(w)
	return out, nil
}

func fabricLabel(tcp bool) string {
	if tcp {
		return "tcp"
	}
	return "local"
}

// WriteTable renders the human-readable serve report.
func (r *ServeResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Serving under maintenance — %s / %s, %d query workers\n",
		r.Spec.Dataset, r.Spec.Mode, r.Workers)
	for _, f := range r.Fabrics {
		fmt.Fprintf(w, "  %-5s  %6.0f qps  p50 %6.2fms  p99 %6.2fms  cache %.2f  batches %d  epochs %d  overloads %d  violations %d\n",
			f.Fabric, f.QPS, f.P50Millis, f.P99Millis, f.CacheHitRate,
			f.Batches, f.Epochs, f.Overloads, f.Violations)
	}
}

func serveOnFabric(spec Spec, workers int, tcp bool) (*ServeFabricResult, error) {
	data, err := spec.Generate()
	if err != nil {
		return nil, err
	}
	// The daemon's layout (round-robin), and a serving front-end that is
	// always real TCP, whatever the data-plane fabric: clients measure the
	// daemon the way a deployment would.
	h, err := spec.Open(data, func(c *engine.Config) {
		c.Placement, c.Distributed, c.Listen = nil, tcp, "127.0.0.1:0"
		c.Serve = serve.Config{MaxConcurrent: workers * 2, QueueDepth: workers * 4}
	})
	if err != nil {
		return nil, err
	}
	defer h.Close()
	cl, def, srv := h.Cluster(), h.Def(), h.Server()

	// expected holds, per published epoch, the committed view state the
	// snapshot audit compares answers against.
	expected := make(map[uint64]string)
	var emu sync.Mutex
	record := func() error {
		snap, err := cl.Epochs().Acquire()
		if err != nil {
			return err
		}
		defer snap.Release()
		v, err := snap.Gather(def.Name)
		if err != nil {
			return err
		}
		emu.Lock()
		expected[snap.Epoch()] = serveFingerprint(v)
		emu.Unlock()
		return nil
	}
	if err := record(); err != nil {
		return nil, err
	}

	viewShape := def.Pred.Shape
	done := make(chan struct{})
	type workerOut struct {
		obs       []serveObservation
		latencies []time.Duration
		errs      int
	}
	outs := make([]workerOut, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := serve.NewClient(srv.Addr(), def.Schema(), nil)
			if err != nil {
				outs[i].errs++
				return
			}
			defer c.Close()
			for {
				select {
				case <-done:
					return
				default:
				}
				t0 := time.Now()
				res, err := c.Query(viewShape, query.Auto)
				if err != nil {
					if !serve.IsOverload(err) {
						outs[i].errs++
					}
					continue
				}
				outs[i].latencies = append(outs[i].latencies, time.Since(t0))
				outs[i].obs = append(outs[i].obs, serveObservation{res.Epoch, serveFingerprint(res.Array)})
			}
		}()
	}

	start := time.Now()
	batches := 0
	for _, b := range data.Batches {
		if _, err := h.Maintainer().ApplyBatch(b); err != nil {
			close(done)
			wg.Wait()
			return nil, err
		}
		batches++
		if err := record(); err != nil {
			close(done)
			wg.Wait()
			return nil, err
		}
	}
	elapsed := time.Since(start)
	close(done)
	wg.Wait()

	var obs []serveObservation
	var lats []time.Duration
	errs := 0
	for _, o := range outs {
		obs = append(obs, o.obs...)
		lats = append(lats, o.latencies...)
		errs += o.errs
	}
	violations := 0
	for _, o := range obs {
		if want, ok := expected[o.epoch]; !ok || o.fp != want {
			violations++
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		i := int(p * float64(len(lats)-1))
		return float64(lats[i]) / float64(time.Millisecond)
	}
	st := srv.Stats()
	return &ServeFabricResult{
		Fabric:       fabricLabel(tcp),
		Queries:      len(lats),
		Batches:      batches,
		Epochs:       st.Epoch,
		Seconds:      elapsed.Seconds(),
		QPS:          float64(len(lats)) / elapsed.Seconds(),
		P50Millis:    pct(0.50),
		P99Millis:    pct(0.99),
		CacheHitRate: st.HitRate(),
		CacheHits:    st.CacheHits,
		CacheMisses:  st.CacheMisses,
		Overloads:    st.Rejected,
		QueryErrors:  errs,
		Violations:   violations,
	}, nil
}
