package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// runOpts is one invocation's command line.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	// resultsDir receives the trace file and holds the WAL directories
	// while the run lasts.
	resultsDir string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"`
}

// check is one correctness or shape assertion the run made.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// sizes are the realised sizes of a run's inputs.
type sizes struct {
	Reps       int `json:"repetitions"`
	BaseCells  int `json:"base_cells"`
	BaseChunks int `json:"base_chunks"`
	Batches    int `json:"batches"`
	DeltaCells int `json:"delta_cells"`
	Queries    int `json:"queries"`
	Recoveries int `json:"recoveries"`
}

// result is everything one run of one workload produced.
type result struct {
	Workload  string            `json:"workload"`
	Why       string            `json:"why"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Smoke     bool              `json:"smoke"`
	Env       envelope          `json:"env"`
	Generator genParams         `json:"generator"`
	Sizes     sizes             `json:"sizes"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	WallS     float64           `json:"wall_s"`
	Reps      []repStat         `json:"repetitions"`
	EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Checks    []check           `json:"checks"`
}

// repStat is one repetition's own numbers, kept in the result file for
// telling input variation from machine noise.
type repStat struct {
	Seed       int64   `json:"seed"`
	Traced     bool    `json:"traced,omitempty"`
	Batches    int     `json:"batches"`
	SetupS     float64 `json:"setup_s"`
	WallS      float64 `json:"wall_s"`
	CellsPerS  float64 `json:"cells_per_s"`
	BatchMsP50 float64 `json:"batch_ms_p50"`
}

// run accumulates what the repetitions of one workload measure.
type run struct {
	cfg workloadCfg
	opt runOpts
	gen genParams
	res *result
	tr  *tracer
	dir string // scratch directory for WALs, under opt.resultsDir

	setupS         []float64
	batchMs        []float64 // hand-off (or due time) -> published
	serviceMs      []float64 // start -> published, where the two differ: the open loop
	cells          int       // delta cells committed in the timed regions
	ingestWallS    float64   // and the time spent ingesting them
	latenessMs     []float64
	qAll           []float64
	qRepeat, qCold []float64
	qWallS         float64
	recoveryMs     []float64
	writeAmp       []float64 // bytes written / canonical bytes, one per repetition
	peakRSS        float64
	proc           procSample // growth over the untraced timed regions
	procBatches    int

	// traced repetitions
	batches int // traced batches so far; the next batch's trace id is batches+1
	infos   []batchInfo
	probes  []batchProbe
	layer   map[string]float64
	samples map[string][]float64 // per-layer metrics reported as a median of probe samples
}

func (r *run) check(name string, ok bool, format string, args ...any) {
	r.res.Checks = append(r.res.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	r.res.Attempted++
	if !ok {
		r.res.Failed++
	}
}

func (r *run) op(err error) bool {
	r.res.Attempted++
	if err != nil {
		r.res.Failed++
		r.res.Checks = append(r.res.Checks, check{Name: "operation", OK: false, Detail: err.Error()})
		return false
	}
	return true
}

func (r *run) set(name string, v float64) { r.layer[name] = v }

// subSeed gives repetition rep its own dataset, so one run averages over
// several generated inputs and no two runs of neighbouring seeds share one.
func (r *run) subSeed(rep int) int64 { return r.opt.seed*1000 + int64(rep) }

// runWorkload runs one workload in this process.
func runWorkload(cfg workloadCfg, opt runOpts) (*result, error) {
	start := time.Now()
	r := &run{cfg: cfg, opt: opt, gen: cfg.gen, layer: make(map[string]float64), samples: make(map[string][]float64)}
	if opt.smoke {
		r.gen = cfg.smoke
	}
	r.res = &result{
		Workload: cfg.Name, Why: cfg.Why, Seed: opt.seed, Seconds: opt.seconds,
		Trace: opt.trace, Smoke: opt.smoke, Env: readEnvelope(), Generator: r.gen,
	}
	if err := os.MkdirAll(opt.resultsDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opt.resultsDir, "scratch-")
	if err != nil {
		return nil, err
	}
	r.dir = dir
	defer os.RemoveAll(dir)
	if opt.trace {
		r.tr = newTracer()
	}
	switch cfg.kind {
	case kindIngest:
		err = r.runIngest()
	case kindServe:
		err = r.runServe()
	case kindDurable:
		err = r.runDurable()
	}
	if err != nil {
		return nil, err
	}
	if opt.trace {
		v := r.tr.view()
		r.res.PerLayer = r.perLayer(v)
		if werr := v.write(filepath.Join(opt.resultsDir, "trace-"+cfg.Name+".json"), 2); werr != nil {
			return nil, werr
		}
	} else {
		r.res.EndToEnd = r.endToEnd()
	}
	r.res.Correct = r.res.Failed == 0
	r.res.WallS = time.Since(start).Seconds()
	return r.res, nil
}

// limit is how long the run measures.
func (r *run) limit() time.Duration { return time.Duration(r.opt.seconds * float64(time.Second)) }

// repDone books one finished repetition.
func (r *run) repDone(st repStat, cells int) {
	r.res.Reps = append(r.res.Reps, st)
	r.res.Sizes.Reps++
	r.res.Sizes.Batches += st.Batches
	r.res.Sizes.DeltaCells += cells
}

// scratchDir hands out a fresh directory for one durable store.
func (r *run) scratchDir() (string, error) { return os.MkdirTemp(r.dir, "wal-") }

// checkView is the maintenance oracle, outside any timed region.
func (r *run) checkView(st *state) error {
	ok, err := st.viewMatchesBase()
	if err != nil {
		return err
	}
	r.check("view-equals-materialize", ok, "gathered view against MaterializeLocal of the gathered base: %d base cells, %d view cells", st.baseCells(), st.viewCells())
	return nil
}

// readBack measures the query path on a workload whose timed region has no
// query client: a serve.Server on loopback TCP over the repetition's end
// state, one client reading the view back. Every fifth read follows an
// epoch flip, so it misses the view cache as the first read after a batch
// would; that is the cold class here.
func (r *run) readBack(eng *engine, st *state) error {
	if err := eng.startServer(); err != nil {
		return err
	}
	reads := r.cfg.readBacks
	if r.opt.smoke {
		reads = 10
	}
	sh := eng.viewShape()
	runtime.GC() // the ingest's garbage is not the reads' to collect
	began := time.Now()
	for j := 0; j < reads; j++ {
		cold := j%5 == 0
		if cold {
			eng.publishEpoch()
		}
		t0 := time.Now()
		ans, err := eng.queryWire(sh)
		d := ms(time.Since(t0))
		if !r.op(err) {
			return err
		}
		r.qAll = append(r.qAll, d)
		if cold {
			r.qCold = append(r.qCold, d)
		} else {
			r.qRepeat = append(r.qRepeat, d)
		}
		if j == 0 {
			r.check("read-back-equals-view", ans.fingerprint() == st.viewFingerprint(), "view-shape answer over TCP against the gathered view")
		}
	}
	r.qWallS += time.Since(began).Seconds()
	r.res.Sizes.Queries += reads
	return nil
}

// checkpointProbe measures the durable path on a workload that runs
// without a WAL: attach a durable store to the repetition's end state
// (which checkpoints it), abandon it as a crash would, and recover it into
// a fresh cluster.
func (r *run) checkpointProbe(eng *engine, st *state) error {
	dir, err := r.scratchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := eng.attachWAL(dir, nil); err != nil {
		return err
	}
	wi := eng.walInfo()
	r.writeAmp = append(r.writeAmp, ratio(float64(wi.WALBytes+wi.SegBytes), float64(st.encodedBytes())))
	_, err = r.recoverOnce(eng.ds, dir, st)
	return err
}

// recoverOnce reopens a durable directory into a fresh cluster, as a
// restart after kill -9 does, and times it. With a wanted state it checks
// the recovered one against it.
func (r *run) recoverOnce(ds *dataset, dir string, want *state) (applied uint64, err error) {
	runtime.GC()
	t0 := time.Now()
	rec, open, install, applied, err := recoverEngine(ds, dir)
	d := time.Since(t0)
	if !r.op(err) {
		return 0, err
	}
	defer rec.close()
	r.recoveryMs = append(r.recoveryMs, ms(d))
	r.layerSample("wal.recover_open_ms", ms(open))
	r.layerSample("wal.recover_install_ms", ms(install))
	r.res.Sizes.Recoveries++
	if want != nil {
		got, err := rec.state()
		if err != nil {
			return 0, err
		}
		r.check("recovered-state", got.equal(want), "base and view after wal.Open + Install against the expected state (recovery %d)", r.res.Sizes.Recoveries)
	}
	return applied, nil
}
