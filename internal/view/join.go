package view

import (
	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
)

// StateMergeSpec lowers the view's aggregate list to the declarative merge
// spec a fabric can apply without function values: one state op per
// physical slot of the view's state tuples; local and remote merges both
// apply it.
func (d *Definition) StateMergeSpec() cluster.MergeSpec {
	ops := make([]uint8, 0, d.StateWidth())
	for _, a := range d.Aggs {
		switch a.Kind {
		case Count, Sum:
			ops = append(ops, cluster.StateAdd)
		case Avg:
			ops = append(ops, cluster.StateAdd, cluster.StateAdd)
		case Min:
			ops = append(ops, cluster.StateMin)
		case Max:
			ops = append(ops, cluster.StateMax)
		}
	}
	return cluster.MergeSpec{Kind: cluster.MergeState, Ops: ops}
}

// JoinPartials evaluates one chunk-pair join of the differential view
// computation and accumulates the per-view-chunk partial state chunks: the
// node-local unit of work of the paper's maintenance phase. cp is the α
// side; both evaluates the reverse orientation as well (self-join pairs);
// sign scales contributions (−1 retracts mixed pairs of a deletion batch).
func JoinPartials(d *Definition, cp, cq *array.Chunk, both bool, sign float64) (map[array.ChunkKey]*array.Chunk, error) {
	vs := d.Schema()
	partials := make(map[array.ChunkKey]*array.Chunk)
	var err error
	accumulate := func(a array.Point, tb array.Tuple) bool {
		g := d.GroupPoint(a)
		key := vs.ChunkCoordOf(g).Key()
		part, ok := partials[key]
		if !ok {
			part = array.NewChunk(vs, key.Coord())
			partials[key] = part
		}
		contrib := d.Contribution(tb)
		if sign != 1 {
			for ci := range contrib {
				contrib[ci] *= sign
			}
		}
		if cur, found := part.Get(g); found {
			d.AddState(cur, contrib)
			err = part.Set(g, cur)
		} else {
			err = part.Set(g, contrib)
		}
		return err == nil
	}
	d.Pred.JoinChunkPair(cp, cq, func(a, _ array.Point, ta, tb array.Tuple) bool {
		if !d.AlphaMatch(ta) || !d.BetaMatch(tb) {
			return true
		}
		return accumulate(a, tb)
	})
	if err == nil && both {
		d.Pred.JoinChunkPair(cq, cp, func(a, _ array.Point, ta, tb array.Tuple) bool {
			if !d.AlphaMatch(ta) || !d.BetaMatch(tb) {
				return true
			}
			return accumulate(a, tb)
		})
	}
	if err != nil {
		return nil, err
	}
	return partials, nil
}
