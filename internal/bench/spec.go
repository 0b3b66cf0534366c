// Package bench is the experiment harness: it reproduces every table and
// figure of the paper's evaluation (Section 6 and Appendix C) on the
// simulated cluster, printing the same rows/series the paper reports.
// Reported maintenance times are the deterministic plan costs under the
// calibrated cost model (see DESIGN.md), so strategy comparisons carry the
// paper's shape.
package bench

import (
	"fmt"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/engine"
	"github.com/arrayview/arrayview/internal/maintain"
	"github.com/arrayview/arrayview/internal/view"
	"github.com/arrayview/arrayview/internal/workload"
)

// Dataset names the three evaluation configurations of Section 6.1.
type Dataset string

const (
	// PTF5 is the production "association table": L1(1) on (ra, dec) over
	// the previous 200 time steps.
	PTF5 Dataset = "PTF-5"
	// PTF25 stresses scalability: L∞(2) on (ra, dec), any time.
	PTF25 Dataset = "PTF-25"
	// GEO is the LinkedGeoData configuration: L∞(1) on (long, lat).
	GEO Dataset = "GEO"
)

// Datasets returns the canonical evaluation order.
func Datasets() []Dataset { return []Dataset{PTF5, PTF25, GEO} }

// ParseDataset parses a dataset name.
func ParseDataset(s string) (Dataset, error) {
	switch Dataset(s) {
	case PTF5, PTF25, GEO:
		return Dataset(s), nil
	}
	return "", fmt.Errorf("bench: unknown dataset %q (want PTF-5, PTF-25, or GEO)", s)
}

// Spec fully describes one experiment run: the dataset, batch mode,
// cluster size, and optimization parameters.
type Spec struct {
	Dataset Dataset
	Mode    workload.BatchMode
	// Nodes is the worker count; the paper uses 8 workers + coordinator.
	Nodes   int
	Workers int

	PTF workload.PTFConfig
	GEO workload.GEOConfig

	// HashLayout switches the static chunk assignment from the
	// space-partitioned default to hash scattering — the other static
	// strategy whose pathology the paper discusses. Figure 10c uses it to
	// isolate the update-sharing effect from band imbalance.
	HashLayout bool
	// PTF5Window is the PTF-5 similarity time window (the paper's 200
	// days, scaled to simulation time steps).
	PTF5Window int64

	Params maintain.Params
}

// DefaultSpec returns the paper-shaped configuration: 8 workers, 10
// batches, batches of a few hundred chunks.
func DefaultSpec(ds Dataset, mode workload.BatchMode) Spec {
	ptf := workload.DefaultPTFConfig()
	ptf.Sigma = 150
	ptf.NumFields = 15
	ptf.FieldsPerNight = 5
	return Spec{
		Dataset:    ds,
		Mode:       mode,
		Nodes:      8,
		Workers:    2,
		PTF:        ptf,
		GEO:        workload.DefaultGEOConfig(),
		PTF5Window: 2 * ptf.NightLen,
		Params:     maintain.DefaultParams(),
	}
}

// SmallSpec returns a fast configuration for tests: 4 workers, 5 batches,
// small domains.
func SmallSpec(ds Dataset, mode workload.BatchMode) Spec {
	s := DefaultSpec(ds, mode)
	s.Nodes = 4
	s.PTF.RaRange = 2000
	s.PTF.DecRange = 1000
	s.PTF.BaseNights = 2
	s.PTF.NumBatches = 5
	s.PTF.DetectionsPerNight = 250
	s.PTF.Sigma = 60
	s.PTF.NumFields = 6
	s.PTF.FieldsPerNight = 2
	s.GEO.LongRange = 2000
	s.GEO.LatRange = 1000
	s.GEO.NumPOI = 800
	s.GEO.NumClusters = 9
	s.GEO.NumBatches = 5
	s.GEO.BatchFraction = 0.02
	return s
}

// ParseSpec resolves the command-line triple every tool takes: a dataset
// name, a batch mode ("" = the dataset's native one: real, or random for
// GEO) and the test-scale switch.
func ParseSpec(dataset, mode string, small bool) (Spec, error) {
	ds, err := ParseDataset(dataset)
	if err != nil {
		return Spec{}, err
	}
	m := workload.Real
	if ds == GEO {
		m = workload.Random
	}
	if mode != "" {
		if m, err = workload.ParseMode(mode); err != nil {
			return Spec{}, err
		}
	}
	if small {
		return SmallSpec(ds, m), nil
	}
	return DefaultSpec(ds, m), nil
}

// Generate builds the dataset of the spec.
func (s Spec) Generate() (*workload.Dataset, error) {
	switch s.Dataset {
	case PTF5, PTF25:
		return workload.GeneratePTF(s.PTF, s.Mode)
	case GEO:
		return workload.GenerateGEO(s.GEO, s.Mode)
	}
	return nil, fmt.Errorf("bench: unknown dataset %q", s.Dataset)
}

// ViewFor builds the view definition for the generated dataset.
func (s Spec) ViewFor(d *workload.Dataset) (*view.Definition, error) {
	return s.viewOver(d.Schema)
}

// View builds the view definition from the spec's own schema, without
// generating the dataset (the generators use the same schema).
func (s Spec) View() (*view.Definition, error) {
	if s.Dataset == GEO {
		return s.viewOver(s.GEO.Schema())
	}
	return s.viewOver(s.PTF.Schema())
}

func (s Spec) viewOver(schema *array.Schema) (*view.Definition, error) {
	switch s.Dataset {
	case PTF5:
		return workload.PTF5View(schema, s.PTF5Window)
	case PTF25:
		return workload.PTF25View(schema)
	case GEO:
		return workload.GEOView(schema)
	}
	return nil, fmt.Errorf("bench: unknown dataset %q", s.Dataset)
}

// Describe fills in what the spec and its generated dataset fix of a system's
// description: cluster size, parameters, the view and the base to load. The
// tools bind their flags to the rest.
func (s Spec) Describe(cfg *engine.Config, d *workload.Dataset) (err error) {
	cfg.Nodes, cfg.Workers, cfg.Params, cfg.Base = s.Nodes, s.Workers, s.Params, d.Base
	cfg.Def, err = s.ViewFor(d)
	return err
}

// Open opens the spec's system over the generated dataset through the
// composition root: the spec's cluster size and parameters, its view, the
// dataset's base and the spec's static placement, eager maintenance with the
// default strategy on in-process stores — after dress, when non-nil, has
// changed whatever the caller runs differently (fabric, driver, WAL, serving).
// The caller closes the handle.
func (s Spec) Open(d *workload.Dataset, dress func(*engine.Config)) (*engine.Handle, error) {
	cfg := engine.Config{Placement: s.Placement()}
	if err := s.Describe(&cfg, d); err != nil {
		return nil, err
	}
	if dress != nil {
		dress(&cfg)
	}
	return engine.Open(cfg)
}

// Cluster builds a fresh cluster per the spec.
func (s Spec) Cluster() (*cluster.Cluster, error) {
	return cluster.New(s.Nodes, cluster.WithWorkersPerNode(s.Workers))
}

// Placement returns the static chunk-assignment strategy of the spec's
// dataset: space-partitioned bands over the first spatial dimension, the
// array-database default whose maintenance pathologies the paper studies.
func (s Spec) Placement() cluster.Placement {
	if s.HashLayout {
		return cluster.HashPlacement{}
	}
	switch s.Dataset {
	case PTF5, PTF25:
		return cluster.RangePlacement{Dim: 1, NumChunks: (s.PTF.RaRange + 99) / 100}
	default:
		return cluster.RangePlacement{Dim: 0, NumChunks: (s.GEO.LongRange + 99) / 100}
	}
}
