package maintain

import (
	"fmt"
	"math"
	"sort"

	"github.com/arrayview/arrayview/internal/array"
)

// Classifier splits base-array chunks into heavy (frequently updated,
// maintained eagerly) and light (rarely updated, deferred to the pending
// log) by scoring update frequency over the decaying history window —
// heavy-light partitioning in the sense of Abo-Khamis et al., applied to
// array chunks instead of relation tuples.
//
// Classification is keyed by *projected* chunk identity: PTF batches land
// in a fresh time slab every night, so a raw chunk key never repeats and
// every chunk would look cold. Projecting out the time dimension maps all
// slabs of one sky pointing onto one identity, which is the thing whose
// update frequency is actually skewed. Project is identity when nil.
//
// Reclassification runs once per batch with hysteresis: a light class is
// promoted when its score reaches HeavyThreshold, but a heavy class is
// only demoted when its score falls below HeavyThreshold*Hysteresis, so
// classes near the boundary don't flap between paths batch over batch.
type Classifier struct {
	// HeavyThreshold is the absolute update-frequency score (Σ Decay^l
	// over window batches touching the class) at or above which a class
	// is heavy. Ignored when TopK > 0.
	HeavyThreshold float64
	// TopK, when in (0, 1], switches to relative mode: the ⌈TopK·n⌉
	// highest-scoring classes are heavy, the rest light. The effective
	// threshold is recomputed each batch from the score distribution.
	TopK float64
	// Hysteresis in [0, 1] scales the demotion threshold relative to the
	// promotion threshold. 1 disables hysteresis; the default 0.5 means a
	// heavy class keeps its status until its score halves below the bar.
	Hysteresis float64
	// Project maps a raw chunk key to its classification identity.
	Project func(array.ChunkKey) array.ChunkKey

	heavy map[array.ChunkKey]bool

	promotions, demotions int64
}

// Validate reports whether the classifier's knobs are usable.
func (c *Classifier) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"heavy threshold", c.HeavyThreshold}, {"top-k", c.TopK}, {"hysteresis", c.Hysteresis}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("maintain: classifier %s %v is not finite", f.name, f.v)
		}
	}
	if c.HeavyThreshold < 0 {
		return fmt.Errorf("maintain: negative classifier threshold %v", c.HeavyThreshold)
	}
	if c.TopK < 0 || c.TopK > 1 {
		return fmt.Errorf("maintain: classifier top-k %v outside [0, 1]", c.TopK)
	}
	if c.Hysteresis < 0 || c.Hysteresis > 1 {
		return fmt.Errorf("maintain: classifier hysteresis %v outside [0, 1]", c.Hysteresis)
	}
	return nil
}

// ProjectKey maps a raw chunk key to its classification identity.
func (c *Classifier) ProjectKey(k array.ChunkKey) array.ChunkKey {
	if c.Project == nil {
		return k
	}
	return c.Project(k)
}

// IsHeavy reports whether the (raw) chunk key currently classifies heavy.
func (c *Classifier) IsHeavy(k array.ChunkKey) bool {
	return c.heavy[c.ProjectKey(k)]
}

// Reclassify recomputes the heavy set from the given scores (keyed by
// projected identity, as returned by History.UpdateScores over projected
// keys) and returns how many classes were promoted and demoted. Classes
// absent from scores have score 0: they are demoted if heavy (subject to
// hysteresis with a 0 score, i.e. always, unless the demotion bar is 0).
func (c *Classifier) Reclassify(scores map[array.ChunkKey]float64) (promoted, demoted int) {
	up := c.HeavyThreshold
	if c.TopK > 0 {
		up = c.topKThreshold(scores)
	}
	down := up * c.Hysteresis
	if c.heavy == nil {
		c.heavy = make(map[array.ChunkKey]bool)
	}
	for k, s := range scores {
		if !c.heavy[k] && s >= up {
			c.heavy[k] = true
			promoted++
		}
	}
	for k := range c.heavy {
		if s := scores[k]; s < down {
			delete(c.heavy, k)
			demoted++
		}
	}
	c.promotions += int64(promoted)
	c.demotions += int64(demoted)
	return promoted, demoted
}

// topKThreshold returns the score of the ⌈TopK·n⌉-th ranked class — the
// effective promotion bar in relative mode. With no scores yet, it returns
// +Inf so nothing is heavy.
func (c *Classifier) topKThreshold(scores map[array.ChunkKey]float64) float64 {
	if len(scores) == 0 {
		return math.Inf(1)
	}
	ranked := make([]float64, 0, len(scores))
	for _, s := range scores {
		ranked = append(ranked, s)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(ranked)))
	k := int(math.Ceil(c.TopK * float64(len(ranked))))
	if k < 1 {
		k = 1
	}
	if k > len(ranked) {
		k = len(ranked)
	}
	return ranked[k-1]
}

// Promote force-promotes a class (by projected key) outside the scoring
// cycle — used when a light chunk's pending log or query-touch rate
// crosses the pressure threshold. Returns false if it was already heavy.
func (c *Classifier) Promote(k array.ChunkKey) bool {
	if c.heavy == nil {
		c.heavy = make(map[array.ChunkKey]bool)
	}
	if c.heavy[k] {
		return false
	}
	c.heavy[k] = true
	c.promotions++
	return true
}

// HeavyCount returns the current number of heavy classes.
func (c *Classifier) HeavyCount() int { return len(c.heavy) }

// Flips returns the cumulative promotion and demotion counts.
func (c *Classifier) Flips() (promotions, demotions int64) {
	return c.promotions, c.demotions
}

// DropDims returns a projection that zeroes the given dimensions of the
// chunk coordinate — e.g. DropDims(0) collapses PTF's nightly time slabs
// so chunks are classified by sky pointing alone.
func DropDims(dims ...int) func(array.ChunkKey) array.ChunkKey {
	return func(k array.ChunkKey) array.ChunkKey {
		cc := k.Coord()
		for _, d := range dims {
			if d >= 0 && d < len(cc) {
				cc[d] = 0
			}
		}
		return cc.Key()
	}
}
