package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		used float64
	}{
		{1000, 99, 99}, // exactly 10 samples beyond p99
		{999, 99, 95},  // 9.99 beyond p99: fall back
		{200, 99, 95},
		{199, 99, 90},
		{100, 90, 90},
		{99, 90, 75},
		{40, 99, 75},
		{39, 99, 50},
		{20, 90, 50},
		{3, 99, 50}, // the median is the floor
		{100000, 90, 90},
	}
	for _, c := range cases {
		if got := pickPercentile(c.n, c.want); got != c.used {
			t.Errorf("pickPercentile(n=%d, want p%g) = p%g, want p%g", c.n, c.want, got, c.used)
		}
	}

	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(100 - i) // unsorted on purpose: 100..1
	}
	v, note := tail(samples, 90)
	if v != 90 || !strings.Contains(note, "p90") || !strings.Contains(note, "n=100") {
		t.Errorf("tail(1..100, p90) = %v (%s), want 90 with the percentile and the count in the note", v, note)
	}
	v, note = tail(samples[:50], 90)
	if !strings.Contains(note, "p75 used") || !strings.Contains(note, "n=50") {
		t.Errorf("tail of 50 samples at p90 must say it fell back to p75: %v (%s)", v, note)
	}
	if samples[0] != 100 {
		t.Error("tail sorted the caller's slice")
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	vals := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	sp, ok := quartileSpread(vals)
	if want := (8.25 - 2.75) / 5.5; !ok || math.Abs(sp-want) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want %v", sp, want)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: extrapolated.
	sp, ok = quartileSpread([]float64{1, 2})
	if want := (2.25 - 0.75) / 1.5; !ok || math.Abs(sp-want) > 1e-12 {
		t.Errorf("quartileSpread(1,2) = %v, want %v", sp, want)
	}
	if _, ok := quartileSpread([]float64{3}); ok {
		t.Error("one value has no spread")
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	parent := span{id: 1, start: 0, end: 100}
	children := []span{
		{id: 2, parent: 1, start: 10, end: 40},
		{id: 3, parent: 1, start: 30, end: 60}, // overlaps the first: 10..60 is covered once
		{id: 4, parent: 1, start: 80, end: 90},
		{id: 5, parent: 1, start: 95, end: 120}, // runs past the parent: clipped to 95..100
		{id: 6, parent: 1, start: 35, end: 38},  // inside the overlap
	}
	if got := selfNanos(parent, children); got != 100-(50+10+5) {
		t.Errorf("self time = %d, want 35", got)
	}
	if got := selfNanos(parent, nil); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}

	// The same through a tracer, with concurrent leaves under one phase.
	tr := newTracer()
	root := tr.begin(1, 0, "maintain", "execute")
	leave := tr.enter(1, root)
	name := tr.intern("storage", "get")
	doneA, doneB := tr.leaf(name), tr.leaf(name)
	time.Sleep(2 * time.Millisecond)
	doneA()
	doneB()
	leave()
	tr.end(root)
	v := tr.view()
	calls, busy := v.childStats(root, "storage.")
	rs := v.named("maintain.execute")[0]
	if calls != 2 || busy <= 0 || busy > rs.end-rs.start {
		t.Errorf("two concurrent leaves: calls=%d busy=%d of %d", calls, busy, rs.end-rs.start)
	}
	a, b := v.children[root][0], v.children[root][1]
	if sumd := (a.end - a.start) + (b.end - b.start); busy >= sumd {
		t.Errorf("busy %d must count the overlap once, below the sum %d", busy, sumd)
	}
	if self := selfNanos(rs, v.children[root]); self != (rs.end-rs.start)-busy {
		t.Errorf("self %d != duration - busy", self)
	}
}

func TestOpenLoopLatenessAccounting(t *testing.T) {
	msd := time.Millisecond
	// One slow operation on a 100 ms schedule: the stall shows as lateness
	// of the operations queued behind it, and their latency counts from the
	// due time.
	ops := simulateOpenLoop(100*msd, []time.Duration{50 * msd, 300 * msd, 50 * msd, 50 * msd, 50 * msd})
	want := []struct{ late, lat time.Duration }{
		{0, 50 * msd},
		{0, 300 * msd},
		{200 * msd, 250 * msd}, // due 200, started 400
		{150 * msd, 200 * msd}, // due 300, started 450
		{100 * msd, 150 * msd}, // due 400, started 500
	}
	for i, w := range want {
		if ops[i].lateness() != w.late || ops[i].latency() != w.lat {
			t.Errorf("op %d: lateness %v latency %v, want %v %v", i, ops[i].lateness(), ops[i].latency(), w.late, w.lat)
		}
	}
	// A started-from-service clock would have reported 50 ms for op 2.
	if ops[2].finished-ops[2].started != 50*msd {
		t.Errorf("op 2 service time = %v", ops[2].finished-ops[2].started)
	}
}

func TestJudge(t *testing.T) {
	flat := func(v float64) []float64 { return []float64{v, v * 1.001, v * 0.999, v, v * 1.002, v * 0.998} }
	if v, _, _ := judge(flat(100), flat(100), true, 0.1); v != unchanged {
		t.Errorf("equal medians: %s", v)
	}
	if v, ch, _ := judge(flat(100), flat(120), true, 0.1); v != worse || ch < 0.19 {
		t.Errorf("latency +20%%: %s (%v)", v, ch)
	}
	if v, _, _ := judge(flat(100), flat(80), true, 0.1); v != better {
		t.Errorf("latency -20%%: %s", v)
	}
	if v, ch, _ := judge(flat(100), flat(80), false, 0.1); v != worse || ch < 0.19 {
		t.Errorf("throughput -20%%: %s (%v)", v, ch)
	}
	noisy := []float64{60, 80, 100, 120, 140, 100}
	if v, _, sp := judge(noisy, flat(150), true, 0.1); v != unresolved || sp <= 0.1 {
		t.Errorf("spread wider than the bound must be unresolved, got %s (spread %v)", v, sp)
	}
	if v, _, _ := judge([]float64{100}, []float64{105}, true, 0.1); v != unchanged {
		t.Errorf("single runs have no spread and compare on the medians: %s", v)
	}
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	bj, err := readBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, bj.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(bj.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("end_to_end: %d in BENCHMARK.json, %d in the harness", len(bj.EndToEnd), len(endToEndMetrics))
	}
	sawSetup := false
	for i, d := range endToEndMetrics {
		m := bj.EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, harness %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			sawSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !sawSetup {
		t.Error("setup_s (s, lower) is missing")
	}
	if len(bj.PerLayer) != len(perLayerMetrics) || len(bj.PerLayer) > 128 {
		t.Fatalf("per_layer: %d in BENCHMARK.json, %d in the harness", len(bj.PerLayer), len(perLayerMetrics))
	}
	seen := make(map[string]bool)
	for i, d := range perLayerMetrics {
		m := bj.PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, harness %+v", i, m, d)
		}
	}
	for _, d := range append(append([]metricDef{}, endToEndMetrics...), perLayerMetrics...) {
		if seen[d.Name] {
			t.Errorf("metric name %s used twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestOnlySutImportsTheProgram keeps the binding in one file: no other
// non-test file of the harness may import a package of this module.
func TestOnlySutImportsTheProgram(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f == "sut.go" || strings.HasSuffix(f, "_test.go") {
			continue
		}
		parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			if strings.Contains(imp.Path.Value, "github.com/arrayview/arrayview") {
				t.Errorf("%s imports %s; program bindings belong in sut.go", f, imp.Path.Value)
			}
		}
	}
}

var smokeSparse = genParams{SmallSpec: true, Batches: 4}

// buildPair builds the same seeded engine twice: once as the program builds
// it, once behind the span fabric.
func buildPair(t *testing.T, kind fabricKind) (plain, wrapped *engine) {
	t.Helper()
	mk := func(tr *tracer) *engine {
		ds, err := genDataset(smokeSparse, 7)
		if err != nil {
			t.Fatal(err)
		}
		e, err := newEngine(ds, kind, tr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.close)
		return e
	}
	return mk(nil), mk(newTracer())
}

func TestSpanFabricParity(t *testing.T) {
	for _, c := range []struct {
		name             string
		kind             fabricKind
		wire, join, regv bool
	}{
		{"local", localFabric, true, false, false},
		{"tcp", tcpFabric, true, true, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			plain, wrapped := buildPair(t, c.kind)
			pw, pj, pr := plain.fabricCaps()
			ww, wj, wr := wrapped.fabricCaps()
			if pw != c.wire || pj != c.join || pr != c.regv {
				t.Fatalf("unwrapped fabric exposes wire=%v join=%v register=%v", pw, pj, pr)
			}
			if ww != pw || wj != pj || wr != pr {
				t.Errorf("span fabric exposes wire=%v join=%v register=%v, the fabric it wraps %v %v %v", ww, wj, wr, pw, pj, pr)
			}
			for i := 0; i < plain.ds.numBatches(); i++ {
				if _, err := plain.applyBatch(i); err != nil {
					t.Fatal(err)
				}
				if _, err := wrapped.applyBatch(i); err != nil {
					t.Fatal(err)
				}
			}
			pf, err := plain.fabricInfo()
			if err != nil {
				t.Fatal(err)
			}
			wf, err := wrapped.fabricInfo()
			if err != nil {
				t.Fatal(err)
			}
			if !sameRequests(pf.Requests, wf.Requests) {
				t.Errorf("Fabric.Stats request counts differ:\nunwrapped %v\nwrapped   %v", pf.Requests, wf.Requests)
			}
			ps, err := plain.state()
			if err != nil {
				t.Fatal(err)
			}
			ws, err := wrapped.state()
			if err != nil {
				t.Fatal(err)
			}
			if !ps.equal(ws) {
				t.Error("end state behind the span fabric differs from the unwrapped run")
			}
			if n := len(wrapped.tr.view().spans); n == 0 {
				t.Error("the span fabric recorded no spans")
			}
		})
	}
}

func TestSteppedDriverEqualsApplyBatch(t *testing.T) {
	for _, kind := range []fabricKind{localFabric, tcpFabric} {
		plain, stepped := buildPair(t, kind)
		for i := 0; i < plain.ds.numBatches(); i++ {
			want, err := plain.applyBatch(i)
			if err != nil {
				t.Fatal(err)
			}
			got, err := stepped.stepBatch(i, int32(i+1))
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("fabric %d batch %d: stepped driver %+v, ApplyBatch %+v", kind, i, got, want)
			}
			if _, err := stepped.probeBatch(i); err != nil {
				t.Errorf("probe after batch %d: %v", i, err)
			}
		}
		ps, err := plain.state()
		if err != nil {
			t.Fatal(err)
		}
		ss, err := stepped.state()
		if err != nil {
			t.Fatal(err)
		}
		if !ps.equal(ss) {
			t.Errorf("fabric %d: stepped driver's end state differs from ApplyBatch's", kind)
		}
		if ok, err := ss.viewMatchesBase(); err != nil || !ok {
			t.Errorf("fabric %d: stepped view != Materialize(base): %v", kind, err)
		}
		v := stepped.tr.view()
		for _, name := range []string{"maintain.batch", "maintain.stage", "view.unitgen", "maintain.context", "maintain.plan", "maintain.execute", "maintain.record"} {
			if n := len(v.named(name)); n != plain.ds.numBatches() {
				t.Errorf("fabric %d: %d %s spans, want one per batch", kind, n, name)
			}
		}
	}
}

// TestSmokeAllWorkloads runs the four workloads at the -smoke scale, with
// tracing off and on, through the same entry point the command uses.
func TestSmokeAllWorkloads(t *testing.T) {
	start := time.Now()
	dir := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(w, runOpts{seed: 3, seconds: 0.05, trace: trace, smoke: true, resultsDir: dir})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d: %+v", w.Name, trace, res.Correct, res.Failed, res.Attempted, res.Checks)
			}
			metrics, defs := res.EndToEnd, endToEndMetrics
			if trace {
				metrics, defs = res.PerLayer, perLayerMetrics
				if _, err := os.Stat(filepath.Join(dir, "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.Name, err)
				}
			}
			for _, d := range defs {
				m, ok := metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s missing or in unit %q", w.Name, trace, d.Name, m.Unit)
				}
				if !trace && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, m.Value)
				}
			}
			var buf bytes.Buffer
			printResultTo(&buf, res)
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var last struct {
				Correct   *bool                      `json:"correct"`
				Attempted *int                       `json:"attempted"`
				Failed    *int                       `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&last); err != nil || last.Correct == nil || last.Attempted == nil || last.Failed == nil || len(last.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: last line is not the contract's object: %v", w.Name, trace, err)
			}
		}
	}
	left, _ := filepath.Glob(filepath.Join(dir, "scratch-*"))
	if len(left) != 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
	if d := time.Since(start); d > 10*time.Second && !raceEnabled {
		t.Errorf("smoke scale took %v, want under 10s", d)
	}
}
