// Package view implements materialized array views (Section 3 of the
// paper): views defined by an array similarity join followed by a group-by
// aggregation, materialized eagerly as arrays, with incremental delta
// semantics under batch insertions.
//
// The paper's Definition 1 allows a chain of similarity joins followed by
// unary operators; maintenance of longer chains is recursive over the
// two-array case (Section 3, "Recursive maintenance"), so — like the paper
// — this package implements the fundamental two-array (and self-join) case.
package view

import (
	"errors"
	"fmt"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/simjoin"
)

// AggKind enumerates the incrementally-maintainable SQL aggregates the
// paper supports (commutative, associative, additive state).
type AggKind int

const (
	// Count is COUNT(*) over the matched pairs of each group.
	Count AggKind = iota
	// Sum is SUM(attr) of a β-side attribute over the matched pairs.
	Sum
	// Avg is AVG(attr); its state is a (sum, count) pair and the exposed
	// value is their ratio.
	Avg
	// Min is MIN(attr). Maintainable under insertions only (not
	// retractable under deletions).
	Min
	// Max is MAX(attr). Maintainable under insertions only.
	Max
)

// String returns the SQL name of the aggregate.
func (k AggKind) String() string {
	switch k {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Avg:
		return "AVG"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	default:
		return fmt.Sprintf("AggKind(%d)", int(k))
	}
}

// Aggregate is one aggregation in the view's SELECT list. Attr names a
// β-side attribute (ignored for Count). As names the output attribute.
type Aggregate struct {
	Kind AggKind
	Attr string
	As   string
}

// stateWidth returns how many physical attributes the aggregate's additive
// state occupies in the materialized view.
func (a Aggregate) stateWidth() int {
	if a.Kind == Avg {
		return 2
	}
	return 1
}

// Definition describes one materialized array view:
//
//	CREATE ARRAY VIEW <Name> AS
//	SELECT <Aggs> FROM <Alpha> SIMILARITY JOIN <Beta>
//	ON <Pred.Mapping> WITH SHAPE <Pred.Shape>
//	GROUP BY <GroupBy...>
//
// GroupBy lists α dimensions; the view's dimensions are those, in α order.
type Definition struct {
	Name    string
	Alpha   *array.Schema
	Beta    *array.Schema
	Pred    simjoin.Pred
	GroupBy []string
	Aggs    []Aggregate
	// Chunking optionally overrides the view's per-dimension chunk sizes;
	// when nil the view inherits the chunking of the group-by dimensions of
	// α, as in the paper's Example 2.
	Chunking []int64

	groupDims []int          // α dim positions of GroupBy
	attrIdx   map[string]int // β attribute positions
	schema    *array.Schema

	filterAlpha, filterBeta *filter // optional WHERE conjunctions
}

// NewDefinition validates the definition and derives the view schema.
// Alpha and Beta may be the same schema (self join).
func NewDefinition(name string, alpha, beta *array.Schema, pred simjoin.Pred, groupBy []string, aggs []Aggregate, chunking []int64) (*Definition, error) {
	d := &Definition{
		Name: name, Alpha: alpha, Beta: beta, Pred: pred,
		GroupBy: groupBy, Aggs: aggs, Chunking: chunking,
	}
	if err := d.compile(); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *Definition) compile() error {
	if d.Name == "" {
		return errors.New("view: empty view name")
	}
	if d.Alpha == nil || d.Beta == nil {
		return errors.New("view: missing input schema")
	}
	if d.Pred.Shape == nil {
		return errors.New("view: missing join shape")
	}
	if d.Pred.Mapping == nil {
		d.Pred.Mapping = simjoin.Identity{}
	}
	if d.Pred.Shape.NumDims() != d.Beta.NumDims() {
		return fmt.Errorf("view: shape has %d dims, β has %d", d.Pred.Shape.NumDims(), d.Beta.NumDims())
	}
	if len(d.GroupBy) == 0 {
		return errors.New("view: empty GROUP BY")
	}
	if len(d.Aggs) == 0 {
		return errors.New("view: no aggregates")
	}
	d.groupDims = make([]int, len(d.GroupBy))
	for i, g := range d.GroupBy {
		idx := d.Alpha.DimIndex(g)
		if idx < 0 {
			return fmt.Errorf("view: GROUP BY dimension %q not in %s", g, d.Alpha.Name)
		}
		d.groupDims[i] = idx
	}
	d.attrIdx = make(map[string]int)
	var dims []array.Dimension
	for i, gd := range d.groupDims {
		dim := d.Alpha.Dims[gd]
		if d.Chunking != nil {
			if len(d.Chunking) != len(d.groupDims) {
				return fmt.Errorf("view: chunking has %d entries, want %d", len(d.Chunking), len(d.groupDims))
			}
			if d.Chunking[i] <= 0 {
				return fmt.Errorf("view: non-positive chunk size %d", d.Chunking[i])
			}
			dim.ChunkSize = d.Chunking[i]
		}
		dims = append(dims, dim)
	}
	var attrs []array.Attribute
	for _, a := range d.Aggs {
		if a.As == "" {
			return errors.New("view: aggregate with empty output name")
		}
		switch a.Kind {
		case Count:
			attrs = append(attrs, array.Attribute{Name: a.As, Type: array.Int64})
		case Sum, Min, Max:
			attrs = append(attrs, array.Attribute{Name: a.As, Type: array.Float64})
		case Avg:
			attrs = append(attrs,
				array.Attribute{Name: a.As + "_sum", Type: array.Float64},
				array.Attribute{Name: a.As + "_cnt", Type: array.Int64})
		default:
			return fmt.Errorf("view: unknown aggregate kind %v", a.Kind)
		}
		if a.Kind != Count {
			idx := d.Beta.AttrIndex(a.Attr)
			if idx < 0 {
				return fmt.Errorf("view: aggregate attribute %q not in %s", a.Attr, d.Beta.Name)
			}
			d.attrIdx[a.Attr] = idx
		}
	}
	schema, err := array.NewSchema(d.Name, dims, attrs)
	if err != nil {
		return err
	}
	d.schema = schema
	return nil
}

// Schema returns the derived schema of the materialized view.
func (d *Definition) Schema() *array.Schema { return d.schema }

// SelfJoin reports whether the view joins an array with itself.
func (d *Definition) SelfJoin() bool { return d.Alpha.Name == d.Beta.Name }

// ErrSelfJoinOnly is the one refusal of a two-array view: streaming and
// adaptive maintenance and the query engine support self-join views only.
// Every layer that refuses wraps it, so callers test with errors.Is.
var ErrSelfJoinOnly = errors.New("supported for self-join views only")

// StateWidth returns the number of physical attributes in the view's
// additive state tuples.
func (d *Definition) StateWidth() int {
	w := 0
	for _, a := range d.Aggs {
		w += a.stateWidth()
	}
	return w
}

// GroupPoint projects an α cell coordinate onto the view's dimensions.
func (d *Definition) GroupPoint(a array.Point) array.Point {
	out := make(array.Point, len(d.groupDims))
	for i, gd := range d.groupDims {
		out[i] = a[gd]
	}
	return out
}

// GroupRegion projects an α region onto the view's dimensions.
func (d *Definition) GroupRegion(r array.Region) array.Region {
	return r.Project(d.groupDims)
}

// Contribution returns the additive state contribution of one matched pair
// (Υ, Ψ) with β-side tuple tb.
func (d *Definition) Contribution(tb array.Tuple) array.Tuple {
	out := make(array.Tuple, 0, d.StateWidth())
	for _, a := range d.Aggs {
		switch a.Kind {
		case Count:
			out = append(out, 1)
		case Sum, Min, Max:
			out = append(out, tb[d.attrIdx[a.Attr]])
		case Avg:
			out = append(out, tb[d.attrIdx[a.Attr]], 1)
		}
	}
	return out
}

// AddState combines contribution src into dst in place (dst and src have
// StateWidth entries): additive aggregates sum, MIN/MAX take the extremum.
func (d *Definition) AddState(dst, src array.Tuple) {
	i := 0
	for _, a := range d.Aggs {
		switch a.Kind {
		case Count, Sum:
			dst[i] += src[i]
			i++
		case Avg:
			dst[i] += src[i]
			dst[i+1] += src[i+1]
			i += 2
		case Min:
			if src[i] < dst[i] {
				dst[i] = src[i]
			}
			i++
		case Max:
			if src[i] > dst[i] {
				dst[i] = src[i]
			}
			i++
		}
	}
}

// Retractable reports whether every aggregate supports retraction
// (deletions): MIN and MAX do not.
func (d *Definition) Retractable() bool {
	for _, a := range d.Aggs {
		if a.Kind == Min || a.Kind == Max {
			return false
		}
	}
	return true
}

// Output renders the user-visible aggregate values from a state tuple, in
// aggregate order. AVG of an empty group renders as 0.
func (d *Definition) Output(state array.Tuple) []float64 {
	out := make([]float64, 0, len(d.Aggs))
	i := 0
	for _, a := range d.Aggs {
		switch a.Kind {
		case Count, Sum, Min, Max:
			out = append(out, state[i])
			i++
		case Avg:
			sum, cnt := state[i], state[i+1]
			if cnt == 0 {
				out = append(out, 0)
			} else {
				out = append(out, sum/cnt)
			}
			i += 2
		}
	}
	return out
}

// String renders the definition in AQL-like syntax.
func (d *Definition) String() string {
	agg := ""
	for i, a := range d.Aggs {
		if i > 0 {
			agg += ", "
		}
		if a.Kind == Count {
			agg += fmt.Sprintf("COUNT(*) AS %s", a.As)
		} else {
			agg += fmt.Sprintf("%s(%s) AS %s", a.Kind, a.Attr, a.As)
		}
	}
	gb := ""
	for i, g := range d.GroupBy {
		if i > 0 {
			gb += ", "
		}
		gb += g
	}
	return fmt.Sprintf(
		"CREATE ARRAY VIEW %s AS SELECT %s FROM %s SIMILARITY JOIN %s ON %s WITH SHAPE %s GROUP BY %s",
		d.Name, agg, d.Alpha.Name, d.Beta.Name, d.Pred.Mapping.Name(), d.Pred.Shape.Name(), gb)
}
