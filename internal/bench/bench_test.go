package bench

import (
	"bytes"
	"strings"
	"testing"

	"github.com/arrayview/arrayview/internal/workload"
)

func TestRunSequenceSmallPTF5(t *testing.T) {
	spec := SmallSpec(PTF5, workload.Real)
	res, err := RunSequence(spec, "reassign")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) != spec.PTF.NumBatches {
		t.Fatalf("got %d batches, want %d", len(res.Batches), spec.PTF.NumBatches)
	}
	for _, b := range res.Batches {
		if b.Maintenance <= 0 || b.Units == 0 {
			t.Errorf("batch %d: maintenance=%v units=%d", b.Batch, b.Maintenance, b.Units)
		}
	}
	if res.TotalMaintenance() <= 0 || res.AvgOptimization() <= 0 {
		t.Error("aggregates must be positive")
	}
}

func TestRunSequenceUnknownStrategy(t *testing.T) {
	if _, err := RunSequence(SmallSpec(GEO, workload.Random), "nope"); err == nil {
		t.Error("unknown strategy must fail")
	}
}

func TestFig3SmallGEOCorrelated(t *testing.T) {
	var buf bytes.Buffer
	res, err := Fig3(&buf, SmallSpec(GEO, workload.Correlated))
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 3") || !strings.Contains(out, "reassign") {
		t.Errorf("unexpected output:\n%s", out)
	}
	// The headline claim at small scale: reassign's total is at most the
	// baseline's on correlated batches.
	if res.Results["reassign"].TotalMaintenance() > res.Results["baseline"].TotalMaintenance() {
		t.Errorf("correlated GEO: reassign total %v exceeds baseline %v",
			res.Results["reassign"].TotalMaintenance(),
			res.Results["baseline"].TotalMaintenance())
	}
}

func TestFig3SmallPTF25Correlated(t *testing.T) {
	var buf bytes.Buffer
	res, err := Fig3(&buf, SmallSpec(PTF25, workload.Correlated))
	if err != nil {
		t.Fatal(err)
	}
	base := res.Results["baseline"].TotalMaintenance()
	re := res.Results["reassign"].TotalMaintenance()
	diff := res.Results["differential"].TotalMaintenance()
	if diff > base {
		t.Errorf("differential %v exceeds baseline %v", diff, base)
	}
	if re > base {
		t.Errorf("reassign %v exceeds baseline %v", re, base)
	}
}

func TestFig5And9(t *testing.T) {
	var buf bytes.Buffer
	spec := SmallSpec(GEO, workload.Random)
	if _, err := Fig5(&buf, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig9(&buf, spec); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 5") || !strings.Contains(out, "Figure 9") {
		t.Errorf("missing figure headers:\n%s", out)
	}
}

func TestFig6Small(t *testing.T) {
	var buf bytes.Buffer
	spec := SmallSpec(PTF5, workload.Real)
	spec.PTF.BaseNights = 3
	spec.PTF.NumBatches = 1
	rows, err := Fig6(&buf, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("Fig6 rows = %d, want 4", len(rows))
	}
	byName := make(map[string]Fig6Row)
	for _, r := range rows {
		byName[r.Name] = r
		if r.CompleteSeconds <= 0 || r.ViewSeconds <= 0 {
			t.Errorf("%s: non-positive costs", r.Name)
		}
	}
	// The paper's two calibration points: Δ(L∞(1)←L1(1)) = 4/9 → view
	// wins; Δ(L∞(1)←L∞(2)) = 16/9 → complete join wins.
	r1 := byName["Linf(1)<-L1(1)"]
	if r1.DeltaCard*9 != r1.QueryCard*4 {
		t.Errorf("Linf(1)<-L1(1): Δ/query = %d/%d, want ratio 4/9", r1.DeltaCard, r1.QueryCard)
	}
	if !r1.ChoseView {
		t.Error("Linf(1)<-L1(1): cost model must pick the view")
	}
	r2 := byName["Linf(1)<-Linf(2)"]
	if r2.DeltaCard*9 != r2.QueryCard*16 {
		t.Errorf("Linf(1)<-Linf(2): Δ/query = %d/%d, want ratio 16/9", r2.DeltaCard, r2.QueryCard)
	}
	if r2.ChoseView {
		t.Error("Linf(1)<-Linf(2): cost model must pick the complete join")
	}
	if _, err := Fig6(&buf, SmallSpec(GEO, workload.Random)); err == nil {
		t.Error("Fig6 on GEO must be rejected")
	}
}

func TestFig10aSmall(t *testing.T) {
	var buf bytes.Buffer
	spec := SmallSpec(PTF25, workload.Real)
	rows, err := Fig10a(&buf, spec, []int{50, 200, 800})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Markedly larger batches take longer for the baseline.
	if rows[2].Maintenance["baseline"] <= rows[0].Maintenance["baseline"] {
		t.Errorf("baseline not increasing with batch size: %v vs %v",
			rows[0].Maintenance["baseline"], rows[2].Maintenance["baseline"])
	}
	if rows[0].DeltaChunks <= 0 {
		t.Error("delta chunk counts must be recorded")
	}
}

func TestFig10bSmall(t *testing.T) {
	var buf bytes.Buffer
	spec := SmallSpec(PTF5, workload.Real)
	rows, err := Fig10b(&buf, spec, 400, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Maintenance["reassign"] <= 0 {
			t.Errorf("k=%d: non-positive total", r.NumBatches)
		}
	}
}

func TestFig10cSmall(t *testing.T) {
	var buf bytes.Buffer
	spec := SmallSpec(PTF5, workload.Real)
	rows, err := Fig10c(&buf, spec, []float64{0.2, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestAblationsSmall(t *testing.T) {
	spec := SmallSpec(GEO, workload.Correlated)
	var buf bytes.Buffer
	if rows, err := AblationPairOrder(&buf, spec); err != nil || len(rows) != 2 {
		t.Fatalf("pair order: %v rows=%d", err, len(rows))
	}
	if rows, err := AblationWindow(&buf, spec, []int{0, 3}); err != nil || len(rows) != 2 {
		t.Fatalf("window: %v rows=%d", err, len(rows))
	}
	if rows, err := AblationCPUQuota(&buf, spec, []float64{0, 1}); err != nil || len(rows) != 2 {
		t.Fatalf("quota: %v rows=%d", err, len(rows))
	}
	if rows, err := AblationLambda(&buf, spec, []float64{0, 1}); err != nil || len(rows) != 2 {
		t.Fatalf("lambda: %v rows=%d", err, len(rows))
	}
	if rows, err := AblationCellPruning(&buf, SmallSpec(PTF5, workload.Real)); err != nil || len(rows) != 2 {
		t.Fatalf("cell pruning: %v rows=%d", err, len(rows))
	}
}

func TestScalingSmall(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Scaling(&buf, SmallSpec(PTF5, workload.Real), []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// More nodes must not increase the optimized maintenance time.
	if rows[1].Maintenance["reassign"] > rows[0].Maintenance["reassign"]*1.1 {
		t.Errorf("reassign did not scale: %v (2 nodes) -> %v (4 nodes)",
			rows[0].Maintenance["reassign"], rows[1].Maintenance["reassign"])
	}
	if !strings.Contains(buf.String(), "Scaling") {
		t.Error("missing header")
	}
}

func TestParseDataset(t *testing.T) {
	for _, d := range Datasets() {
		got, err := ParseDataset(string(d))
		if err != nil || got != d {
			t.Errorf("ParseDataset(%q) = %v, %v", d, got, err)
		}
	}
	if _, err := ParseDataset("nope"); err == nil {
		t.Error("unknown dataset must fail")
	}
}

// ParseSpec is the dataset/mode/scale prologue of every tool: the dataset's
// native mode when none is named, and an error for either unknown name.
func TestParseSpec(t *testing.T) {
	for _, tc := range []struct {
		dataset, mode string
		small         bool
		want          Spec
	}{
		{"PTF-5", "", true, SmallSpec(PTF5, workload.Real)},
		{"GEO", "", true, SmallSpec(GEO, workload.Random)},
		{"PTF-25", "correlated", false, DefaultSpec(PTF25, workload.Correlated)},
	} {
		got, err := ParseSpec(tc.dataset, tc.mode, tc.small)
		if err != nil || got.Dataset != tc.want.Dataset || got.Mode != tc.want.Mode || got.Nodes != tc.want.Nodes {
			t.Errorf("ParseSpec(%q, %q, %v) = %s/%s on %d nodes, %v", tc.dataset, tc.mode, tc.small, got.Dataset, got.Mode, got.Nodes, err)
		}
	}
	if _, err := ParseSpec("nope", "", true); err == nil {
		t.Error("unknown dataset must fail")
	}
	if _, err := ParseSpec("GEO", "nope", true); err == nil {
		t.Error("unknown mode must fail")
	}
}

// A query client derives the view from the dataset's configuration alone; it
// must be the definition the daemon derives from the generated dataset.
func TestSpecViewMatchesGenerated(t *testing.T) {
	for _, ds := range Datasets() {
		spec, err := ParseSpec(string(ds), "", true)
		if err != nil {
			t.Fatal(err)
		}
		data, err := spec.Generate()
		if err != nil {
			t.Fatal(err)
		}
		want, err := spec.ViewFor(data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := spec.View()
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() || got.Schema().String() != want.Schema().String() {
			t.Errorf("%s: View() = %s over %s, ViewFor(data) = %s over %s",
				ds, got, got.Schema(), want, want.Schema())
		}
	}
}
