package view

import (
	"fmt"

	"github.com/arrayview/arrayview/internal/array"
)

// Materialize evaluates the view eagerly over in-memory input arrays and
// returns the materialized result (state tuples, see Definition.Output).
// It is the single-node reference evaluator: the distributed maintenance
// path is validated against it.
func Materialize(d *Definition, alpha, beta *array.Array) (*array.Array, error) {
	out := array.New(d.schema)
	if err := accumulateJoin(d, alpha, beta, out); err != nil {
		return nil, err
	}
	return out, nil
}

// accumulateJoin folds the aggregate contributions of every matched pair of
// alpha ⋈ beta into acc.
func accumulateJoin(d *Definition, alpha, beta *array.Array, acc *array.Array) error {
	return accumulateJoinSigned(d, alpha, beta, acc, 1)
}

// accumulateJoinSigned folds sign-scaled contributions (sign = -1 retracts,
// as under deletions).
func accumulateJoinSigned(d *Definition, alpha, beta *array.Array, acc *array.Array, sign float64) error {
	var err error
	eachJoinPair(d, alpha, beta, func(a array.Point, tb array.Tuple) bool {
		g := d.GroupPoint(a)
		contrib := d.Contribution(tb)
		if sign != 1 {
			for i := range contrib {
				contrib[i] *= sign
			}
		}
		if cur, ok := acc.Get(g); ok {
			d.AddState(cur, contrib)
			err = acc.Set(g, cur)
		} else {
			err = acc.Set(g, contrib)
		}
		return err == nil
	})
	return err
}

// eachJoinPair enumerates matched pairs (a ∈ α, b ∈ β) passing the view's
// attribute filters, calling fn with the α coordinate and β tuple of each.
func eachJoinPair(d *Definition, alpha, beta *array.Array, fn func(a array.Point, tb array.Tuple) bool) {
	stop := false
	alpha.EachChunk(func(ca *array.Chunk) bool {
		reach := d.Pred.ReachRegion(ca.Region())
		for _, cc := range beta.Schema().ChunksOverlapping(reach) {
			cb := beta.Chunk(cc)
			if cb == nil {
				continue
			}
			d.Pred.JoinChunkPair(ca, cb, func(a, _ array.Point, ta, tb array.Tuple) bool {
				if !d.AlphaMatch(ta) || !d.BetaMatch(tb) {
					return true
				}
				if !fn(a, tb) {
					stop = true
				}
				return !stop
			})
			if stop {
				break
			}
		}
		return !stop
	})
}

// DisjointInsert verifies that delta contains no cell already present in
// base: the precondition for additive delta maintenance of insertions.
func DisjointInsert(base, delta *array.Array) error {
	var err error
	delta.EachCell(func(p array.Point, _ array.Tuple) bool {
		if _, ok := base.Get(p); ok {
			err = fmt.Errorf("view: delta cell %v already present in %s", p, base.Schema().Name)
			return false
		}
		return true
	})
	return err
}

// SubsetOf verifies that every cell of del exists in base: the
// precondition for delta maintenance of deletions.
func SubsetOf(base, del *array.Array) error {
	var err error
	del.EachCell(func(p array.Point, _ array.Tuple) bool {
		if _, ok := base.Get(p); !ok {
			err = fmt.Errorf("view: deletion of absent cell %v from %s", p, base.Schema().Name)
			return false
		}
		return true
	})
	return err
}

// DeltaSelfDelete computes the differential view ΔV for deleting the cells
// of del from the base array of a self-join view:
//
//	ΔV = −agg(D ⋈ A) − agg(A ⋈ D) + agg(D ⋈ D)
//
// where A is the pre-deletion content (D ⊆ A). Merging ΔV into V yields
// exactly the view over A \ D for additive aggregates. Non-additive
// aggregates (MIN/MAX) cannot be maintained under deletions.
func DeltaSelfDelete(d *Definition, base, del *array.Array) (*array.Array, error) {
	if !d.SelfJoin() {
		return nil, fmt.Errorf("view: %s is not a self join", d.Name)
	}
	if !d.Retractable() {
		return nil, fmt.Errorf("view: %s has non-retractable aggregates (MIN/MAX)", d.Name)
	}
	out := array.New(d.schema)
	if err := accumulateJoinSigned(d, del, base, out, -1); err != nil { // −(D ⋈ A)
		return nil, err
	}
	if err := accumulateJoinSigned(d, base, del, out, -1); err != nil { // −(A ⋈ D)
		return nil, err
	}
	if err := accumulateJoinSigned(d, del, del, out, +1); err != nil { // +(D ⋈ D)
		return nil, err
	}
	return out, nil
}

// DeltaSelfInsert computes the differential view ΔV for a batch of
// insertions delta into the base array of a self-join view:
//
//	ΔV = agg(Δ ⋈ A) + agg(A ⋈ Δ) + agg(Δ ⋈ Δ)
//
// where A is the pre-update content. Merging ΔV into V with MergeDelta
// yields exactly the view over A + Δ (additive aggregates, disjoint
// insertions).
func DeltaSelfInsert(d *Definition, base, delta *array.Array) (*array.Array, error) {
	if !d.SelfJoin() {
		return nil, fmt.Errorf("view: %s is not a self join", d.Name)
	}
	out := array.New(d.schema)
	if err := accumulateJoin(d, delta, base, out); err != nil { // Δ ⋈ A
		return nil, err
	}
	if err := accumulateJoin(d, base, delta, out); err != nil { // A ⋈ Δ
		return nil, err
	}
	if err := accumulateJoin(d, delta, delta, out); err != nil { // Δ ⋈ Δ
		return nil, err
	}
	return out, nil
}

// DeltaInsert computes ΔV for a two-array view under insertions dAlpha and
// dBeta (either may be empty):
//
//	ΔV = agg(Δα ⋈ β) + agg(α ⋈ Δβ) + agg(Δα ⋈ Δβ)
func DeltaInsert(d *Definition, alpha, beta, dAlpha, dBeta *array.Array) (*array.Array, error) {
	out := array.New(d.schema)
	if dAlpha != nil {
		if err := accumulateJoin(d, dAlpha, beta, out); err != nil {
			return nil, err
		}
	}
	if dBeta != nil {
		if err := accumulateJoin(d, alpha, dBeta, out); err != nil {
			return nil, err
		}
	}
	if dAlpha != nil && dBeta != nil {
		if err := accumulateJoin(d, dAlpha, dBeta, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// MergeDelta folds differential view dv into v additively:
// V ← V + ΔV. Cells absent from v are created.
func MergeDelta(d *Definition, v, dv *array.Array) error {
	var err error
	dv.EachCell(func(p array.Point, t array.Tuple) bool {
		if cur, ok := v.Get(p); ok {
			d.AddState(cur, t)
			err = v.Set(p, cur)
		} else {
			err = v.Set(p, t)
		}
		return err == nil
	})
	return err
}
