package main

// sut.go is the only file of the harness that touches the system under
// test. Every call from the benchmark into the program — generators,
// constructors, the stepped maintenance driver, the span decorators and the
// replay probes — is in this file, so a refactor of the program sees in one
// place which exported signatures the benchmark binds to. README.md lists
// them.

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	"github.com/arrayview/arrayview"
	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/bench"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/maintain"
	"github.com/arrayview/arrayview/internal/obs"
	"github.com/arrayview/arrayview/internal/query"
	"github.com/arrayview/arrayview/internal/serve"
	"github.com/arrayview/arrayview/internal/storage"
	"github.com/arrayview/arrayview/internal/stream"
	"github.com/arrayview/arrayview/internal/transport"
	"github.com/arrayview/arrayview/internal/view"
	"github.com/arrayview/arrayview/internal/wal"
	"github.com/arrayview/arrayview/internal/workload"
)

// ---------------------------------------------------------------- datasets

// genParams is a workload's generator configuration. Zero fields keep the
// value of the spec they start from.
type genParams struct {
	// SmallSpec starts from bench.SmallSpec(PTF-5, real) instead of
	// bench.DefaultSpec(PTF-5, real).
	SmallSpec bool `json:"small_spec"`
	// TrickleDraws > 0 switches to workload.DefaultPTFConfig and
	// workload.GeneratePTFSizes with that many detection draws per batch.
	TrickleDraws       int     `json:"trickle_draws,omitempty"`
	Batches            int     `json:"batches"`
	BaseNights         int     `json:"base_nights,omitempty"`
	DetectionsPerNight int     `json:"detections_per_night,omitempty"`
	Sigma              float64 `json:"sigma,omitempty"`
	NumFields          int     `json:"num_fields,omitempty"`
	FieldsPerNight     int     `json:"fields_per_night,omitempty"`
	RaRange            int64   `json:"ra_range,omitempty"`
	DecRange           int64   `json:"dec_range,omitempty"`
}

// dataset is one generated input: the base array, the batch sequence and
// the PTF-5 view over them.
type dataset struct {
	spec    bench.Spec
	data    *workload.Dataset
	def     *view.Definition
	planner maintain.Planner
}

func genDataset(p genParams, seed int64) (*dataset, error) {
	spec := bench.DefaultSpec(bench.PTF5, workload.Real)
	if p.SmallSpec {
		spec = bench.SmallSpec(bench.PTF5, workload.Real)
	}
	if p.TrickleDraws > 0 {
		spec.PTF = workload.DefaultPTFConfig()
		spec.PTF5Window = 2 * spec.PTF.NightLen
	}
	spec.PTF.Seed = seed
	spec.PTF.NumBatches = p.Batches
	if p.BaseNights > 0 {
		spec.PTF.BaseNights = p.BaseNights
	}
	if p.DetectionsPerNight > 0 {
		spec.PTF.DetectionsPerNight = p.DetectionsPerNight
	}
	if p.Sigma > 0 {
		spec.PTF.Sigma = p.Sigma
	}
	if p.NumFields > 0 {
		spec.PTF.NumFields = p.NumFields
	}
	if p.FieldsPerNight > 0 {
		spec.PTF.FieldsPerNight = p.FieldsPerNight
	}
	if p.RaRange > 0 {
		spec.PTF.RaRange = p.RaRange
	}
	if p.DecRange > 0 {
		spec.PTF.DecRange = p.DecRange
	}
	var data *workload.Dataset
	var err error
	if p.TrickleDraws > 0 {
		counts := make([]int, p.Batches)
		for i := range counts {
			counts[i] = p.TrickleDraws
		}
		data, err = workload.GeneratePTFSizes(spec.PTF, counts)
	} else {
		data, err = spec.Generate()
	}
	if err != nil {
		return nil, err
	}
	def, err := spec.ViewFor(data)
	if err != nil {
		return nil, err
	}
	planner, ok := maintain.Strategies()["reassign"]
	if !ok {
		return nil, fmt.Errorf("sut: no reassign planner")
	}
	return &dataset{spec: spec, data: data, def: def, planner: planner}, nil
}

func (d *dataset) numBatches() int      { return len(d.data.Batches) }
func (d *dataset) batchCells(i int) int { return d.data.Batches[i].NumCells() }
func (d *dataset) baseCells() int       { return d.data.Base.NumCells() }
func (d *dataset) baseChunks() int      { return d.data.Base.NumChunks() }

// batchEncodedBytes is the canonical encoded size of one delta: what a
// durable store would have to write if it wrote the delta exactly once.
func (d *dataset) batchEncodedBytes(i int) int64 {
	var n int64
	d.data.Batches[i].EachChunk(func(c *array.Chunk) bool {
		n += int64(len(array.EncodeChunk(c)))
		return true
	})
	return n
}

// ---------------------------------------------------------------- engine

type fabricKind int

const (
	localFabric fabricKind = iota // in-process stores behind cluster.LocalFabric
	tcpFabric                     // loopback transport node daemons behind transport.TCPFabric
)

// engine is one loaded cluster with the view built and a maintainer
// attached, plus whatever a workload adds to it: a serving daemon, a WAL, a
// streaming graph.
type engine struct {
	ds     *dataset
	cl     *cluster.Cluster
	m      *maintain.Maintainer
	stores []*storage.Store // worker stores, read directly by the replay probes
	tr     *tracer

	daemons *transport.LoopbackCluster

	// stepped-driver state, mirroring maintain.Maintainer's private fields
	hist      *maintain.History
	rng       *rand.Rand
	seq       int
	lastUnits []view.Unit
	lastDelta string

	srv    *serve.Server
	client *serve.Client
	cold   *query.Engine // fast-path-free engine, for the oracle

	dur   *wal.Durable
	graph *stream.Graph
}

// newEngine builds the cluster on the given fabric, loads the base array,
// builds the view and attaches the eager maintainer. A non-nil tracer puts
// the span fabric between the cluster and the fabric.
func newEngine(ds *dataset, kind fabricKind, tr *tracer) (*engine, error) {
	e := &engine{ds: ds, tr: tr}
	n := ds.spec.Nodes
	var fab cluster.Fabric
	switch kind {
	case localFabric:
		if tr != nil {
			e.stores = make([]*storage.Store, n)
			for i := range e.stores {
				e.stores[i] = storage.NewStore()
			}
			fab = cluster.NewLocalFabric(e.stores)
		}
	case tcpFabric:
		lc, err := transport.StartLoopback(n, nil)
		if err != nil {
			return nil, err
		}
		e.daemons = lc
		tf, err := lc.Fabric(transport.DefaultClientConfig())
		if err != nil {
			e.close()
			return nil, err
		}
		fab = tf
		for _, s := range lc.Servers {
			e.stores = append(e.stores, s.Store())
		}
	}
	var err error
	if fab == nil {
		e.cl, err = ds.spec.Cluster()
	} else {
		if tr != nil {
			layer := "storage"
			if kind == tcpFabric {
				layer = "transport"
			}
			if fab, err = wrapFabric(fab, tr, layer); err != nil {
				e.close()
				return nil, err
			}
		}
		e.cl, err = cluster.New(n, cluster.WithWorkersPerNode(ds.spec.Workers), cluster.WithFabric(fab))
	}
	if err != nil {
		e.close()
		return nil, err
	}
	if e.stores == nil {
		for i := 0; i < n; i++ {
			e.stores = append(e.stores, e.cl.Node(i).Store)
		}
	}
	if err := e.cl.LoadArray(ds.data.Base, ds.spec.Placement()); err != nil {
		e.close()
		return nil, err
	}
	if err := maintain.BuildView(e.cl, ds.def, ds.spec.Placement()); err != nil {
		e.close()
		return nil, err
	}
	if err := e.attachMaintainer(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *engine) attachMaintainer() error {
	m, err := maintain.NewMaintainer(e.cl, e.ds.def, e.ds.planner, e.ds.spec.Params)
	if err != nil {
		return err
	}
	m.SetPlacements(e.ds.spec.Placement(), e.ds.spec.Placement())
	e.m = m
	e.hist = maintain.NewHistory(e.ds.spec.Params.Window)
	e.rng = rand.New(rand.NewSource(e.ds.spec.Params.Seed))
	return nil
}

// close stops everything the engine started. An attached WAL is abandoned,
// not closed: closing is closeWAL's job, and a crash is durable-trickle's
// point.
func (e *engine) close() {
	if e.client != nil {
		_ = e.client.Close()
	}
	if e.srv != nil {
		_ = e.srv.Close()
	}
	if e.cl != nil {
		_ = e.cl.Fabric().Close()
	}
	if e.daemons != nil {
		_ = e.daemons.Close()
	}
}

// batchInfo is what one maintained batch reports.
type batchInfo struct {
	Cells, Units, Triples, Transfers int
	LedgerS                          float64 // the plan's Eq. 1 cost, modeled seconds
}

// applyBatch maintains batch i through the program's own driver.
func (e *engine) applyBatch(i int) (batchInfo, error) {
	delta := e.ds.data.Batches[i]
	rep, err := e.m.ApplyBatch(delta)
	if err != nil {
		return batchInfo{}, err
	}
	return batchInfo{
		Cells: delta.NumCells(), Units: rep.NumUnits, Triples: rep.NumTriples,
		Transfers: rep.NumTransfers, LedgerS: rep.MaintenanceSeconds,
	}, nil
}

// stepBatch maintains batch i by calling, in Maintainer.apply's order, the
// exported functions apply itself calls, with a span around each. trace is
// the batch's trace id. It needs a tracer.
func (e *engine) stepBatch(i int, trace int32) (batchInfo, error) {
	tr, def, cl := e.tr, e.ds.def, e.cl
	delta := e.ds.data.Batches[i]
	e.seq++
	deltaName := fmt.Sprintf("%s#delta%d", def.Alpha.Name, e.seq)

	root := tr.begin(trace, 0, "maintain", "batch")
	defer tr.end(root)
	phase := func(layer, name string) func() {
		id := tr.begin(trace, root, layer, name)
		leave := tr.enter(trace, id)
		return func() { leave(); tr.end(id) }
	}

	done := phase("maintain", "stage")
	schema := *def.Alpha
	schema.Name = deltaName
	err := cl.Catalog().Register(&schema)
	if err == nil {
		var chunks []*array.Chunk
		delta.EachChunk(func(c *array.Chunk) bool {
			chunks = append(chunks, c)
			return true
		})
		err = cl.StageDelta(deltaName, chunks)
	}
	done()
	if err != nil {
		return batchInfo{}, err
	}

	done = phase("view", "unitgen")
	gen := &view.UnitGen{
		Catalog: cl.Catalog(), Def: def,
		BaseAlpha: def.Alpha.Name, BaseBeta: def.Beta.Name,
		DeltaAlpha: deltaName, DeltaBeta: deltaName,
		CellPruning: e.ds.spec.Params.CellPruning,
	}
	units, err := gen.Generate()
	done()
	if err != nil {
		return batchInfo{}, err
	}

	done = phase("maintain", "context")
	params := e.ds.spec.Params
	params.Seed = e.rng.Int63()
	ctx, err := maintain.NewContext(cl, def, units,
		def.Alpha.Name, def.Beta.Name, deltaName, deltaName,
		def.Name, e.hist, params)
	if err == nil {
		ctx.ArrayPlacement = e.ds.spec.Placement()
		ctx.ViewPlacement = e.ds.spec.Placement()
		ctx.RetireOnCommit = true
	}
	done()
	if err != nil {
		return batchInfo{}, err
	}

	done = phase("maintain", "plan")
	plan, err := e.ds.planner.Plan(ctx)
	done()
	if err != nil {
		return batchInfo{}, err
	}

	done = phase("maintain", "execute")
	ctx.Trace = obs.NewTrace() // apply attaches one, so the cost belongs here too
	ledger, err := maintain.Execute(ctx, plan)
	done()
	if err != nil {
		return batchInfo{}, err
	}

	done = phase("maintain", "record")
	e.hist.Record(ctx)
	done()

	e.lastUnits, e.lastDelta = units, deltaName
	info := batchInfo{Cells: delta.NumCells(), Units: len(units), Transfers: plan.NumTransfers(), LedgerS: ledger.Cost()}
	for _, u := range units {
		info.Triples += len(u.Views)
	}
	return info, nil
}

// batchProbe is what the replay probes measured for one batch, outside the
// batch's span.
type batchProbe struct {
	Pairs, OutCells, Skipped int
	PairUs                   []float64
	JoinMs                   float64
	Chunks                   int
	DecodeUs, EncodeUs       float64 // totals over Chunks
	CellsPerChunk            []float64
}

// probeBatch replays, for the batch stepBatch just maintained, the
// similarity join of every unit pair and the codec of every chunk the units
// touch. Chunks are read straight from the worker stores, not through the
// fabric, so Fabric.Stats stays what an unprobed run reports. A base chunk
// the batch itself rewrote no longer holds its pre-batch content; units on
// such chunks are skipped and counted.
func (e *engine) probeBatch(i int) (batchProbe, error) {
	var p batchProbe
	delta := e.ds.data.Batches[i]
	cat := e.cl.Catalog()
	pred := e.ds.def.Pred
	chunks := make(map[view.ChunkRef]*array.Chunk)
	fetch := func(r view.ChunkRef) (*array.Chunk, error) {
		if c, ok := chunks[r]; ok {
			return c, nil
		}
		var enc []byte
		if r.Array == e.lastDelta {
			c := delta.ChunkByKey(r.Key)
			if c == nil {
				return nil, fmt.Errorf("sut: probe: delta chunk %v missing", r.Key.Coord())
			}
			enc = array.EncodeChunk(c)
		} else {
			if delta.ChunkByKey(r.Key) != nil {
				return nil, nil
			}
			home, ok := cat.Home(r.Array, r.Key)
			if !ok || home < 0 || home >= len(e.stores) {
				return nil, fmt.Errorf("sut: probe: chunk %s has no worker home", r)
			}
			if enc, ok = e.stores[home].GetEncoded(r.Array, r.Key); !ok {
				return nil, fmt.Errorf("sut: probe: chunk %s not resident on node %d", r, home)
			}
		}
		t0 := time.Now()
		c, err := array.DecodeChunk(enc)
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		_ = array.EncodeChunk(c)
		t2 := time.Now()
		p.Chunks++
		p.DecodeUs += us(t1.Sub(t0))
		p.EncodeUs += us(t2.Sub(t1))
		p.CellsPerChunk = append(p.CellsPerChunk, float64(c.NumCells()))
		chunks[r] = c
		return c, nil
	}
	count := func(_, _ array.Point, _, _ array.Tuple) bool { p.OutCells++; return true }
	for _, u := range e.lastUnits {
		cp, err := fetch(u.P)
		if err != nil {
			return p, err
		}
		cq, err := fetch(u.Q)
		if err != nil {
			return p, err
		}
		if cp == nil || cq == nil {
			p.Skipped++
			continue
		}
		t0 := time.Now()
		pred.JoinChunkPair(cp, cq, count)
		if u.BothDirections {
			pred.JoinChunkPair(cq, cp, count)
		}
		d := time.Since(t0)
		p.Pairs++
		p.PairUs = append(p.PairUs, us(d))
		p.JoinMs += ms(d)
	}
	return p, nil
}

// fabricInfo sums Fabric.Stats over the worker nodes.
type fabricInfo struct {
	Requests          map[string]int64
	Chunks            int
	Bytes             int64
	BytesOut, BytesIn int64
	Retries           int64
	DedupHits         int64
}

func (f fabricInfo) totalRequests() int64 {
	var t int64
	for _, v := range f.Requests {
		t += v
	}
	return t
}

func (e *engine) fabricInfo() (fabricInfo, error) {
	out := fabricInfo{Requests: make(map[string]int64)}
	fab := e.cl.Fabric()
	for node := 0; node < fab.NumNodes(); node++ {
		st, err := fab.Stats(node)
		if err != nil {
			return out, err
		}
		for k, v := range st.Net.Requests {
			out.Requests[k] += v
		}
		out.Chunks += st.NumChunks
		out.Bytes += st.Bytes
		out.BytesOut += st.Net.BytesOut
		out.BytesIn += st.Net.BytesIn
		out.Retries += st.Net.Retries
		out.DedupHits += st.Net.DedupHits
	}
	// A TCP fabric's own Stats call is itself a request the next snapshot
	// would count; drop the type so two snapshots stay comparable.
	delete(out.Requests, transport.MsgStats.String())
	return out, nil
}

// wireExchange reports whether a Fabric.Stats request name belongs to the
// wire-efficiency protocol (dedup offers and the batched body ships that
// follow declined ones). How many of those a batch needs depends on which
// transfer route reaches a node first, so two runs of the program differ by
// a few even unwrapped; every other request type repeats exactly.
func wireExchange(name string) bool {
	switch name {
	case "Offer", "Patch", "GetBatch", "PutBatch",
		transport.MsgOfferBatch.String(), transport.MsgPatchChunk.String():
		return true
	}
	return false
}

// fabricCaps reports which optional fabric interfaces the cluster's fabric
// exposes.
func (e *engine) fabricCaps() (wire, join, registerView bool) {
	return capsOf(e.cl.Fabric())
}

type viewRegistrar interface {
	RegisterView(*view.Definition) error
}

func capsOf(f cluster.Fabric) (wire, join, registerView bool) {
	_, wire = f.(cluster.WireFabric)
	_, join = f.(cluster.JoinFabric)
	_, registerView = f.(viewRegistrar)
	return
}

// ---------------------------------------------------------------- state

// state is a gathered copy of the base array and the maintained view.
type state struct {
	def        *view.Definition
	base, view *array.Array
}

func (e *engine) state() (*state, error) {
	base, err := e.cl.Gather(e.ds.def.Alpha.Name)
	if err != nil {
		return nil, err
	}
	vw, err := e.cl.Gather(e.ds.def.Name)
	if err != nil {
		return nil, err
	}
	return &state{def: e.ds.def, base: base, view: vw}, nil
}

// gatherView is the read-back of the maintained view, the probe behind
// cluster.gather_view_ms.
func (e *engine) gatherView() error {
	_, err := e.cl.Gather(e.ds.def.Name)
	return err
}

// sameArray compares two arrays by the canonical encoding of their
// non-empty chunks: byte for byte.
func sameArray(a, b *array.Array) bool {
	keys := func(x *array.Array) []array.ChunkKey {
		var ks []array.ChunkKey
		for _, k := range x.ChunkKeys() {
			if x.ChunkByKey(k).NumCells() > 0 {
				ks = append(ks, k)
			}
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
		return ks
	}
	ka, kb := keys(a), keys(b)
	if len(ka) != len(kb) {
		return false
	}
	for i, k := range ka {
		if kb[i] != k || !bytes.Equal(array.EncodeChunk(a.ChunkByKey(k)), array.EncodeChunk(b.ChunkByKey(k))) {
			return false
		}
	}
	return true
}

// fingerprint hashes an array's canonical chunk encodings in key order.
func fingerprint(a *array.Array) uint64 {
	ks := a.ChunkKeys()
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	h := fnv.New64a()
	for _, k := range ks {
		if c := a.ChunkByKey(k); c.NumCells() > 0 {
			h.Write(array.EncodeChunk(c))
		}
	}
	return h.Sum64()
}

func (s *state) viewFingerprint() uint64 { return fingerprint(s.view) }

func (s *state) equal(o *state) bool {
	return sameArray(s.base, o.base) && sameArray(s.view, o.view)
}

// viewMatchesBase is the maintenance oracle: the maintained view must equal
// a from-scratch evaluation of the view definition over the gathered base.
func (s *state) viewMatchesBase() (bool, error) {
	want, err := arrayview.MaterializeLocal(s.def, s.base, s.base)
	if err != nil {
		return false, err
	}
	return sameArray(s.view, want), nil
}

func (s *state) baseCells() int { return s.base.NumCells() }
func (s *state) viewCells() int { return s.view.NumCells() }

// encodedBytes is the canonical encoded size of base plus view.
func (s *state) encodedBytes() int64 {
	var n int64
	for _, a := range []*array.Array{s.base, s.view} {
		a.EachChunk(func(c *array.Chunk) bool {
			n += int64(len(array.EncodeChunk(c)))
			return true
		})
	}
	return n
}

// ---------------------------------------------------------------- serving

// queryShape is one shape of the serve mix.
type queryShape struct {
	s    *arrayview.Shape
	cold bool
}

// mixShape is the deterministic query schedule of internal/bench's
// servemix.go for one client: query q of every five is a never-repeating
// cold shape, the other four cycle the view shape, Linf(d,1) and L1(d,2).
func (e *engine) mixShape(q int) (queryShape, error) {
	vs := e.ds.def.Pred.Shape
	d := vs.NumDims()
	if q%5 != 4 {
		repeated := []*arrayview.Shape{vs, arrayview.Linf(d, 1), arrayview.L1(d, 2)}
		return queryShape{s: repeated[(q/5*4+q%5)%len(repeated)]}, nil
	}
	s, err := coldShape(d, q/5)
	return queryShape{s: s, cold: true}, err
}

// coldShape builds the c-th cold shape: a unit cross plus two symmetric
// offset pairs from a 5x5 grid, so 625 consecutive indices are distinct
// offset sets, more than the decision memo holds.
func coldShape(dims, c int) (*arrayview.Shape, error) {
	offs := [][]int64{make([]int64, dims)}
	for d := 0; d < dims; d++ {
		for _, s := range []int64{1, -1} {
			o := make([]int64, dims)
			o[d] = s
			offs = append(offs, o)
		}
	}
	addPair := func(dx, dy int64) {
		ex := make([]int64, dims)
		ex[0] = dx
		if dims > 1 {
			ex[1] = dy
		}
		neg := make([]int64, dims)
		for d := range ex {
			neg[d] = -ex[d]
		}
		offs = append(offs, ex, neg)
	}
	addPair(int64(1+c%5), int64(1+(c/5)%5))
	addPair(int64(1+(c/25)%5), -int64(1+(c/125)%5))
	return arrayview.ShapeFromOffsets(fmt.Sprintf("cold-%d", c), offs)
}

// viewShape is the query that asks for the view itself.
func (e *engine) viewShape() queryShape { return queryShape{s: e.ds.def.Pred.Shape} }

// startServer puts a serve.Server with the default fast path in front of
// the cluster on loopback TCP and connects one client to it.
func (e *engine) startServer() error {
	qe, err := query.NewEngine(e.cl, e.ds.def, e.ds.spec.Params)
	if err != nil {
		return err
	}
	e.srv = serve.NewServer(qe, nil)
	if err := e.srv.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	e.client, err = serve.NewClient(e.srv.Addr(), e.ds.def.Schema(), nil)
	return err
}

// answer is one answered query.
type answer struct {
	Epoch   uint64
	UseView bool
	arr     *array.Array
}

func (a answer) fingerprint() uint64 { return fingerprint(a.arr) }

// payloadBytes is the canonical encoded size of the answer's chunks, the
// body of the reply frame.
func (a answer) payloadBytes() int {
	n := 0
	a.arr.EachChunk(func(c *array.Chunk) bool {
		n += len(array.EncodeChunk(c))
		return true
	})
	return n
}

// queryWire is one serve.Client.Query round trip.
func (e *engine) queryWire(sh queryShape) (answer, error) {
	res, err := e.client.Query(sh.s, query.Auto)
	if err != nil {
		return answer{}, err
	}
	return answer{Epoch: res.Epoch, UseView: res.UseView, arr: res.Array}, nil
}

// queryInProc is the same query through serve.Server.Answer, without the
// wire.
func (e *engine) queryInProc(sh queryShape) (answer, error) {
	res, epoch, err := e.srv.Answer(context.Background(), sh.s, query.Auto)
	if err != nil {
		return answer{}, err
	}
	return answer{Epoch: epoch, UseView: res.Choice.UseView, arr: res.Array}, nil
}

// decide prices both evaluation paths without running either.
func (e *engine) decide(sh queryShape) error {
	_, err := e.srv.Engine().DecideCtx(context.Background(), sh.s)
	return err
}

// pinEpoch acquires and releases a snapshot of the current epoch.
func (e *engine) pinEpoch() error {
	snap, err := e.cl.Epochs().Acquire()
	if err != nil {
		return err
	}
	snap.Release()
	return nil
}

// publishEpoch publishes a new epoch without a commit, which drops cached
// assembled views exactly as a batch's publication does.
func (e *engine) publishEpoch() uint64 { return e.cl.Epochs().Publish() }

func (e *engine) epoch() uint64 { return e.cl.Epochs().Current() }

// deltaShape is shape.DeltaChecked through the root API.
func (e *engine) deltaShape(sh queryShape) error {
	_, err := arrayview.DeltaShape(e.ds.def.Pred.Shape, sh.s)
	return err
}

// serveInfo is the part of serve.Server.Stats the per-layer metrics use.
type serveInfo struct {
	Epoch                uint64
	RetainedBytes        int64
	ReadHits, ReadMisses int64
	Admitted, Rejected   int64
	ViewHits, ViewMisses int64
	ViewInvalidations    int64
	MemoHits, MemoMisses int64
	SolveSkips           int64
}

func (e *engine) serveInfo() serveInfo {
	st := e.srv.Stats()
	return serveInfo{
		Epoch: st.Epoch, RetainedBytes: st.RetainedBytes,
		ReadHits: st.CacheHits, ReadMisses: st.CacheMisses,
		Admitted: st.Queries, Rejected: st.Rejected,
		ViewHits: st.FastPath.ViewHits, ViewMisses: st.FastPath.ViewMisses,
		ViewInvalidations: st.FastPath.ViewInvalidations,
		MemoHits:          st.FastPath.MemoHits, MemoMisses: st.FastPath.MemoMisses,
		SolveSkips: st.FastPath.SolveSkips,
	}
}

// oracleAnswer evaluates the query on this engine with a fast-path-free
// query.Engine forced onto the complete similarity join: the cold answer
// every served answer must equal.
func (e *engine) oracleAnswer(sh queryShape) (uint64, error) {
	res, err := e.answerCold(sh, query.ForceComplete)
	if err != nil {
		return 0, err
	}
	return fingerprint(res.Array), nil
}

// answerCold answers on a query.Engine that has no fast path, built on
// first use.
func (e *engine) answerCold(sh queryShape, mode query.Mode) (*query.Result, error) {
	if e.cold == nil {
		qe, err := query.NewEngine(e.cl, e.ds.def, e.ds.spec.Params)
		if err != nil {
			return nil, err
		}
		e.cold = qe
	}
	return e.cold.Answer(sh.s, mode)
}

// coldAnswer is one Engine.Answer under the cost model's own choice, with
// no fast path: the default-scale answer time.
func (e *engine) coldAnswer(sh queryShape) error {
	_, err := e.answerCold(sh, query.Auto)
	return err
}

// ---------------------------------------------------------------- durable

// attachWAL opens a durable store on the directory and attaches it to the
// cluster, which checkpoints the current state. A non-nil tracer puts the
// span FS between the store and the filesystem.
func (e *engine) attachWAL(dir string, tr *tracer) error {
	var fs wal.FS = wal.NewOSFS(dir)
	if tr != nil {
		fs = newSpanFS(fs, tr)
	}
	d, _, err := wal.Open(fs, e.ds.spec.Nodes, wal.Options{})
	if err != nil {
		return err
	}
	if err := d.Attach(e.cl); err != nil {
		return err
	}
	e.dur = d
	if tr != nil {
		// Attach installed d as the cluster's durable sink; put the span
		// sink in front of it.
		e.cl.SetDurable(&spanSink{d: d, tr: tr, barrier: tr.intern("wal", "barrier")})
	}
	return nil
}

// closeWAL syncs and closes the durable store.
func (e *engine) closeWAL() error {
	if e.dur == nil {
		return nil
	}
	d := e.dur
	e.dur = nil
	return d.Close()
}

// walInfo is the part of wal.Durable.Counters the metrics use.
type walInfo struct {
	Checkpoints, Syncs int64
	WALBytes, SegBytes int64
}

func (w walInfo) sub(o walInfo) walInfo {
	return walInfo{
		Checkpoints: w.Checkpoints - o.Checkpoints, Syncs: w.Syncs - o.Syncs,
		WALBytes: w.WALBytes - o.WALBytes, SegBytes: w.SegBytes - o.SegBytes,
	}
}

func (w walInfo) add(o walInfo) walInfo {
	return walInfo{
		Checkpoints: w.Checkpoints + o.Checkpoints, Syncs: w.Syncs + o.Syncs,
		WALBytes: w.WALBytes + o.WALBytes, SegBytes: w.SegBytes + o.SegBytes,
	}
}

func (e *engine) walInfo() walInfo {
	s := e.dur.Counters().Snapshot()
	return walInfo{Checkpoints: s.Checkpoints, Syncs: s.Syncs, WALBytes: s.WALBytes, SegBytes: s.SegBytes}
}

// recoverEngine reopens a durable directory and installs what it recovers
// into a fresh cluster: what a restart after kill -9 does.
func recoverEngine(ds *dataset, dir string) (e *engine, open, install time.Duration, applied uint64, err error) {
	t0 := time.Now()
	_, rec, err := wal.Open(wal.NewOSFS(dir), ds.spec.Nodes, wal.Options{})
	if err != nil {
		return nil, 0, 0, 0, err
	}
	if rec == nil {
		return nil, 0, 0, 0, fmt.Errorf("sut: nothing durable in %s", dir)
	}
	t1 := time.Now()
	cl, err := ds.spec.Cluster()
	if err != nil {
		return nil, 0, 0, 0, err
	}
	if err := rec.Install(cl); err != nil {
		return nil, 0, 0, 0, err
	}
	t2 := time.Now()
	e = &engine{ds: ds, cl: cl}
	for i := 0; i < cl.NumNodes(); i++ {
		e.stores = append(e.stores, cl.Node(i).Store)
	}
	return e, t1.Sub(t0), t2.Sub(t1), rec.Applied, nil
}

// startStream starts the pipelined operator graph on the engine, the
// ivmserve -stream configuration.
func (e *engine) startStream() error {
	g, err := stream.NewGraph(stream.Config{
		Cluster: e.cl, Def: e.ds.def, Planner: e.ds.planner, Params: e.ds.spec.Params,
		ArrayPlacement: e.ds.spec.Placement(), ViewPlacement: e.ds.spec.Placement(),
	})
	if err != nil {
		return err
	}
	e.graph = g
	return nil
}

// submit hands batch i to the graph; it blocks while the source queue is
// full. The returned function waits for the batch's ticket.
func (e *engine) submit(i int) (wait func() error, err error) {
	tk, err := e.graph.Submit(e.ds.data.Batches[i])
	if err != nil {
		return nil, err
	}
	return func() error { return tk.Wait().Err }, nil
}

// streamInfo is the part of stream.Graph.Stats the metrics use.
type streamInfo struct {
	Solves, Reuses, Retries int64
	Busy, Stall             map[string]float64 // seconds, by stage name
}

// drainStream closes the graph, waits for every admitted batch and returns
// its counters.
func (e *engine) drainStream() streamInfo {
	e.graph.Drain()
	st := e.graph.Stats()
	out := streamInfo{
		Solves: st.Router.Solves, Reuses: st.Router.Reuses, Retries: st.Retries,
		Busy: make(map[string]float64), Stall: make(map[string]float64),
	}
	for _, s := range st.Stages {
		out.Busy[s.Name] = s.BusySeconds
		out.Stall[s.Name] = s.StallSeconds
	}
	return out
}

// ---------------------------------------------------------------- span fabric

// spanFabric decorates a cluster.Fabric, timing every call. It implements
// the mandatory interface only; spanWireFabric and spanJoinFabric add the
// optional ones, so a wrapped fabric exposes exactly what its inner one
// does.
type spanFabric struct {
	inner cluster.Fabric
	tr    *tracer
	n     fabricNames
}

type fabricNames struct {
	put, get, has, del, merge, keys, drop, stats                int16
	offer, patch, getBatch, putBatch, executeJoin, registerView int16
}

type spanWireFabric struct {
	spanFabric
	wire cluster.WireFabric
}

type spanJoinFabric struct {
	spanWireFabric
	join cluster.JoinFabric
	reg  viewRegistrar
}

// wrapFabric picks the decorator with the inner fabric's optional
// interfaces: none (plain), WireFabric (LocalFabric), or WireFabric +
// JoinFabric + RegisterView (TCPFabric). Another combination is an error,
// not a silent narrowing.
func wrapFabric(inner cluster.Fabric, tr *tracer, layer string) (cluster.Fabric, error) {
	base := spanFabric{inner: inner, tr: tr, n: fabricNames{
		put: tr.intern(layer, "put"), get: tr.intern(layer, "get"), has: tr.intern(layer, "has"),
		del: tr.intern(layer, "delete"), merge: tr.intern(layer, "merge"), keys: tr.intern(layer, "keys"),
		drop: tr.intern(layer, "drop"), stats: tr.intern(layer, "stats"),
		offer: tr.intern(layer, "offer"), patch: tr.intern(layer, "patch"),
		getBatch: tr.intern(layer, "get_batch"), putBatch: tr.intern(layer, "put_batch"),
		executeJoin: tr.intern(layer, "join"), registerView: tr.intern(layer, "register_view"),
	}}
	wf, wire := inner.(cluster.WireFabric)
	jf, join := inner.(cluster.JoinFabric)
	rf, reg := inner.(viewRegistrar)
	switch {
	case !wire && !join && !reg:
		return &base, nil
	case wire && !join && !reg:
		return &spanWireFabric{spanFabric: base, wire: wf}, nil
	case wire && join && reg:
		return &spanJoinFabric{spanWireFabric: spanWireFabric{spanFabric: base, wire: wf}, join: jf, reg: rf}, nil
	}
	return nil, fmt.Errorf("sut: fabric %T has an interface set the span fabric does not mirror (wire=%v join=%v register=%v)", inner, wire, join, reg)
}

func (f *spanFabric) Put(node int, name string, ch *array.Chunk) error {
	defer f.tr.leaf(f.n.put)()
	return f.inner.Put(node, name, ch)
}

func (f *spanFabric) Get(node int, name string, key array.ChunkKey) (*array.Chunk, error) {
	defer f.tr.leaf(f.n.get)()
	return f.inner.Get(node, name, key)
}

func (f *spanFabric) Has(node int, name string, key array.ChunkKey) (bool, error) {
	defer f.tr.leaf(f.n.has)()
	return f.inner.Has(node, name, key)
}

func (f *spanFabric) Delete(node int, name string, key array.ChunkKey) (bool, error) {
	defer f.tr.leaf(f.n.del)()
	return f.inner.Delete(node, name, key)
}

func (f *spanFabric) Merge(node int, name string, src *array.Chunk, spec cluster.MergeSpec) error {
	defer f.tr.leaf(f.n.merge)()
	return f.inner.Merge(node, name, src, spec)
}

func (f *spanFabric) Keys(node int, name string) ([]array.ChunkKey, error) {
	defer f.tr.leaf(f.n.keys)()
	return f.inner.Keys(node, name)
}

func (f *spanFabric) DropArray(node int, name string) (int, error) {
	defer f.tr.leaf(f.n.drop)()
	return f.inner.DropArray(node, name)
}

func (f *spanFabric) Stats(node int) (cluster.FabricStats, error) {
	defer f.tr.leaf(f.n.stats)()
	return f.inner.Stats(node)
}

func (f *spanFabric) NumNodes() int { return f.inner.NumNodes() }
func (f *spanFabric) Close() error  { return f.inner.Close() }

func (f *spanWireFabric) OfferBatch(node int, items []cluster.WireItem) ([]bool, error) {
	defer f.tr.leaf(f.n.offer)()
	return f.wire.OfferBatch(node, items)
}

func (f *spanWireFabric) Patch(node int, name string, key array.ChunkKey, baseHash uint64, delta []byte, fullSize int64) (bool, error) {
	defer f.tr.leaf(f.n.patch)()
	return f.wire.Patch(node, name, key, baseHash, delta, fullSize)
}

func (f *spanWireFabric) GetEncodedBatch(node int, items []cluster.WireItem) ([][]byte, error) {
	defer f.tr.leaf(f.n.getBatch)()
	return f.wire.GetEncodedBatch(node, items)
}

func (f *spanWireFabric) PutEncodedBatch(node int, items []cluster.WireItem) error {
	defer f.tr.leaf(f.n.putBatch)()
	return f.wire.PutEncodedBatch(node, items)
}

func (f *spanJoinFabric) ExecuteJoin(node int, req cluster.JoinRequest) ([]*array.Chunk, error) {
	defer f.tr.leaf(f.n.executeJoin)()
	return f.join.ExecuteJoin(node, req)
}

func (f *spanJoinFabric) RegisterView(def *view.Definition) error {
	defer f.tr.leaf(f.n.registerView)()
	return f.reg.RegisterView(def)
}

// ---------------------------------------------------------------- span FS

// spanFS decorates a wal.FS, timing and counting every Create and Rename
// and every Write and Sync of the files it creates.
type spanFS struct {
	wal.FS
	tr                          *tracer
	create, rename, write, sync int16
	bytes                       *obs.Counter
}

func newSpanFS(inner wal.FS, tr *tracer) *spanFS {
	return &spanFS{
		FS: inner, tr: tr,
		create: tr.intern("wal", "create"), rename: tr.intern("wal", "rename"),
		write: tr.intern("wal", "write"), sync: tr.intern("wal", "fsync"),
		bytes: &obs.Counter{},
	}
}

func (s *spanFS) Create(name string) (wal.File, error) {
	defer s.tr.leaf(s.create)()
	f, err := s.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &spanFile{File: f, fs: s}, nil
}

func (s *spanFS) Rename(oldName, newName string) error {
	defer s.tr.leaf(s.rename)()
	return s.FS.Rename(oldName, newName)
}

// SyncDir is an fsync too, of a directory.
func (s *spanFS) SyncDir(name string) error {
	defer s.tr.leaf(s.sync)()
	return s.FS.SyncDir(name)
}

// spanSink decorates the cluster.DurableSink a wal.Durable is, timing every
// barrier: journal sync, catalog snapshot, meta append, fsync and the
// occasional checkpoint. It exposes wal.Durable's optional sink interfaces
// too (the retiring barrier of maintain, the applied cursor of stream).
type spanSink struct {
	d       *wal.Durable
	tr      *tracer
	barrier int16
}

func (s *spanSink) CommitBarrier() error {
	defer s.tr.leaf(s.barrier)()
	return s.d.CommitBarrier()
}

func (s *spanSink) CommitBarrierRetire() error {
	defer s.tr.leaf(s.barrier)()
	return s.d.CommitBarrierRetire()
}

func (s *spanSink) RollbackBarrier() error {
	defer s.tr.leaf(s.barrier)()
	return s.d.RollbackBarrier()
}

func (s *spanSink) RetireBarrier() error {
	defer s.tr.leaf(s.barrier)()
	return s.d.RetireBarrier()
}

func (s *spanSink) Applied() uint64 { return s.d.Applied() }

type spanFile struct {
	wal.File
	fs *spanFS
}

func (f *spanFile) Write(p []byte) (int, error) {
	defer f.fs.tr.leaf(f.fs.write)()
	n, err := f.File.Write(p)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f *spanFile) Sync() error {
	defer f.fs.tr.leaf(f.fs.sync)()
	return f.File.Sync()
}
