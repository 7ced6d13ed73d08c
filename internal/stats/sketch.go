package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sketch is a mergeable streaming quantile sketch with a bounded number
// of centroids and a deterministic, order-insensitive merge: two
// sketches built over the same multiset of observations — in any add
// order, under any merge tree, at any partition of the stream — hold
// bit-identical state and serialize to identical bytes. That contract
// is what lets the internal/dist coordinator fold worker batches in
// arrival order and still publish quantile snapshots byte-identical to
// an uninterrupted local run.
//
// Classic t-digest centroids cannot satisfy it: their positions are
// weighted means of whichever values happened to compress together, so
// they depend on insertion and merge history. This sketch instead pins
// every centroid to a deterministic location — log-spaced buckets with
// relative width alpha, as in DDSketch — and keeps exact integer counts
// per bucket, so bucket membership is a pure function of the value and
// counts add commutatively.
//
// The centroid bound is enforced by a canonical coarsening rule rather
// than by history-dependent compression: the sketch always holds
// (level L, counts at level L) where one level-L bucket spans 2^L base
// buckets, and L is the smallest level at which the multiset's bucket
// count fits MaxCentroids. L is a pure function of the observed
// multiset: coarsening is monotone and is triggered only when the
// bucket count of some sub-multiset exceeds the bound, and a
// sub-multiset never occupies more buckets than the full multiset —
// so every add/merge path lands on the same level and the same counts.
//
// Accuracy: a level-0 bucket has relative width alpha, and each
// coarsening doubles the width in log space, so Quantile's relative
// error is ~alpha·2^L. With the default MaxCentroids of 512 real
// workloads stay at level 0.
//
// The zero value is not ready to use; construct with NewSketch. Not
// safe for concurrent use. NaN and ±Inf observations are ignored.
type Sketch struct {
	alpha        float64
	lnGamma      float64 // ln((1+alpha)/(1-alpha)), the base bucket width
	maxCentroids int
	level        uint32
	count        int64
	zero         int64 // observations equal to ±0
	min, max     float64
	pos, neg     map[int32]int64 // level-L bucket index -> count
}

// DefaultSketchAlpha is the base relative accuracy of NewSketch.
const DefaultSketchAlpha = 0.005

// DefaultMaxCentroids bounds the sketch's bucket count under NewSketch.
const DefaultMaxCentroids = 512

// NewSketch returns an empty sketch with the default accuracy and
// centroid bound.
func NewSketch() *Sketch {
	s, err := NewSketchWith(DefaultSketchAlpha, DefaultMaxCentroids)
	if err != nil {
		panic(err) // defaults are valid by construction
	}
	return s
}

// NewSketchWith returns an empty sketch with relative accuracy alpha in
// (0, 1) and at most maxCentroids buckets (minimum 8). Sketches merge
// only with sketches of identical parameters.
func NewSketchWith(alpha float64, maxCentroids int) (*Sketch, error) {
	if !(alpha > 0 && alpha < 1) {
		return nil, fmt.Errorf("stats: sketch alpha %v not in (0, 1)", alpha)
	}
	if maxCentroids < 8 {
		return nil, fmt.Errorf("stats: sketch maxCentroids %d < 8", maxCentroids)
	}
	return &Sketch{
		alpha:        alpha,
		lnGamma:      math.Log((1 + alpha) / (1 - alpha)),
		maxCentroids: maxCentroids,
		pos:          make(map[int32]int64),
		neg:          make(map[int32]int64),
	}, nil
}

// baseIndex maps a positive magnitude to its level-0 bucket: bucket i
// covers (gamma^(i-1), gamma^i].
func (s *Sketch) baseIndex(v float64) int32 {
	return int32(math.Ceil(math.Log(v) / s.lnGamma))
}

// key coarsens a level-0 bucket index to the sketch's current level.
// Signed right shift is floor division by 2^level, which composes:
// coarsening twice by one level equals coarsening once by two, so a
// value's bucket at level L never depends on the path taken to L.
func (s *Sketch) key(base int32) int32 { return base >> s.level }

// Add folds one observation into the sketch. NaN and ±Inf are ignored.
func (s *Sketch) Add(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return
	}
	if s.count == 0 {
		s.min, s.max = x, x
	} else {
		s.min = math.Min(s.min, x)
		s.max = math.Max(s.max, x)
	}
	s.count++
	switch {
	case x == 0:
		s.zero++
	case x > 0:
		s.pos[s.key(s.baseIndex(x))]++
	default:
		s.neg[s.key(s.baseIndex(-x))]++
	}
	s.coarsen()
}

// coarsen raises the level until the bucket count fits the bound.
func (s *Sketch) coarsen() {
	for len(s.pos)+len(s.neg) > s.maxCentroids {
		s.level++
		s.pos = coarsenOne(s.pos)
		s.neg = coarsenOne(s.neg)
	}
}

// coarsenOne halves the resolution of one bucket map (level L → L+1).
func coarsenOne(m map[int32]int64) map[int32]int64 {
	out := make(map[int32]int64, (len(m)+1)/2)
	for k, n := range m {
		out[k>>1] += n
	}
	return out
}

// Merge folds another sketch into this one. The other sketch is not
// modified. Merging requires identical alpha and MaxCentroids — two
// sketches with different bucket geometry have no common canonical
// form — and fails loudly otherwise.
func (s *Sketch) Merge(o *Sketch) error {
	if o == nil || o.count == 0 {
		return nil
	}
	if o.alpha != s.alpha || o.maxCentroids != s.maxCentroids {
		return fmt.Errorf("stats: merge incompatible sketches: alpha %v/%v maxCentroids %d/%d",
			s.alpha, o.alpha, s.maxCentroids, o.maxCentroids)
	}
	opos, oneg := o.pos, o.neg
	switch {
	case o.level > s.level:
		// Raise the receiver; its maps are ours to rewrite.
		for s.level < o.level {
			s.level++
			s.pos = coarsenOne(s.pos)
			s.neg = coarsenOne(s.neg)
		}
	case o.level < s.level:
		// Raise copies of the other side's maps; o stays untouched.
		shift := s.level - o.level
		opos = coarsenBy(opos, shift)
		oneg = coarsenBy(oneg, shift)
	}
	for k, n := range opos {
		s.pos[k] += n
	}
	for k, n := range oneg {
		s.neg[k] += n
	}
	if s.count == 0 {
		s.min, s.max = o.min, o.max
	} else {
		s.min = math.Min(s.min, o.min)
		s.max = math.Max(s.max, o.max)
	}
	s.count += o.count
	s.zero += o.zero
	s.coarsen()
	return nil
}

// coarsenBy copies a bucket map coarsened by shift levels.
func coarsenBy(m map[int32]int64, shift uint32) map[int32]int64 {
	out := make(map[int32]int64, len(m))
	for k, n := range m {
		out[k>>shift] += n
	}
	return out
}

// Count returns the number of observations folded in.
func (s *Sketch) Count() int64 { return s.count }

// Min returns the exact minimum observation (NaN when empty).
func (s *Sketch) Min() float64 {
	if s.count == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the exact maximum observation (NaN when empty).
func (s *Sketch) Max() float64 {
	if s.count == 0 {
		return math.NaN()
	}
	return s.max
}

// Centroids returns the current number of occupied buckets (the memory
// footprint the MaxCentroids bound caps).
func (s *Sketch) Centroids() int { return len(s.pos) + len(s.neg) }

// Level returns the current coarsening level (0 = base resolution).
func (s *Sketch) Level() int { return int(s.level) }

// Quantile returns an estimate of the q-quantile (q in [0, 1]) with
// relative error ~alpha·2^level, clamped to the exact observed
// [Min, Max]. It returns NaN on an empty sketch or q outside [0, 1].
// Quantile is a pure function of the sketch's canonical state, so equal
// sketches answer equal quantiles.
func (s *Sketch) Quantile(q float64) float64 {
	if s.count == 0 || math.IsNaN(q) || q < 0 || q > 1 {
		return math.NaN()
	}
	rank := int64(math.Ceil(q * float64(s.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.count {
		rank = s.count
	}
	// The extreme ranks are known exactly — the sketch tracks true
	// min/max — so return them rather than a bucket midpoint.
	if rank == 1 {
		return s.min
	}
	if rank == s.count {
		return s.max
	}
	// Walk buckets in ascending value order: negatives (most negative
	// first), zeros, positives.
	cum := int64(0)
	for _, k := range sortedKeys(s.neg, true) {
		cum += s.neg[k]
		if cum >= rank {
			return s.clamp(-s.representative(k))
		}
	}
	cum += s.zero
	if cum >= rank {
		return s.clamp(0)
	}
	for _, k := range sortedKeys(s.pos, false) {
		cum += s.pos[k]
		if cum >= rank {
			return s.clamp(s.representative(k))
		}
	}
	return s.max // unreachable: cum == count after the last bucket
}

// representative returns the canonical point estimate of a level-L
// bucket: the geometric midpoint of the magnitude range it covers,
// (gamma^(k·2^L − 1), gamma^((k+1)·2^L − 1)].
func (s *Sketch) representative(k int32) float64 {
	p := float64(int64(1) << s.level)
	lo := float64(float64(int64(k))*p) - 1
	return math.Exp(s.lnGamma * (lo + float64(p/2)))
}

// clamp bounds an estimate by the exact observed extrema.
func (s *Sketch) clamp(v float64) float64 {
	if v < s.min {
		return s.min
	}
	if v > s.max {
		return s.max
	}
	return v
}

// sortedKeys returns the map's keys in ascending (or descending) order.
func sortedKeys(m map[int32]int64, desc bool) []int32 {
	keys := make([]int32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if desc {
			return keys[i] > keys[j]
		}
		return keys[i] < keys[j]
	})
	return keys
}

// SketchCentroid is one bucket of a sketch snapshot: the level-scaled
// bucket index and its exact observation count.
//
//accu:wire
type SketchCentroid struct {
	Index int32 `json:"i"`
	Count int64 `json:"n"`
}

// SketchSnapshot is the JSON-marshalable canonical state of a Sketch
// plus convenience quantiles. Buckets are sorted by index and counts
// are exact integers, so two snapshots of sketches over the same record
// set marshal to identical bytes regardless of how the observations
// were partitioned or in which order partial sketches were merged. Min,
// Max and the convenience quantiles are pure functions of that state
// (0, not NaN, when the sketch is empty, keeping the JSON valid).
//
//accu:wire
type SketchSnapshot struct {
	Count int64   `json:"count"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`

	Alpha        float64          `json:"alpha"`
	MaxCentroids int              `json:"maxCentroids"`
	Level        uint32           `json:"level"`
	Zero         int64            `json:"zero,omitempty"`
	Neg          []SketchCentroid `json:"neg,omitempty"`
	Pos          []SketchCentroid `json:"pos,omitempty"`
}

// Snapshot captures the sketch's canonical state and headline quantiles.
func (s *Sketch) Snapshot() SketchSnapshot {
	snap := SketchSnapshot{
		Count:        s.count,
		Alpha:        s.alpha,
		MaxCentroids: s.maxCentroids,
		Level:        s.level,
		Zero:         s.zero,
	}
	if s.count > 0 {
		snap.Min, snap.Max = s.min, s.max
		snap.P50 = s.Quantile(0.5)
		snap.P90 = s.Quantile(0.9)
		snap.P99 = s.Quantile(0.99)
	}
	for _, k := range sortedKeys(s.neg, false) {
		snap.Neg = append(snap.Neg, SketchCentroid{Index: k, Count: s.neg[k]})
	}
	for _, k := range sortedKeys(s.pos, false) {
		snap.Pos = append(snap.Pos, SketchCentroid{Index: k, Count: s.pos[k]})
	}
	return snap
}

// SketchFromSnapshot reconstructs a sketch from its snapshot — the
// inverse of Snapshot up to the convenience fields, which are
// recomputable. Counts must be positive and bucket indices unique.
func SketchFromSnapshot(snap SketchSnapshot) (*Sketch, error) {
	s, err := NewSketchWith(snap.Alpha, snap.MaxCentroids)
	if err != nil {
		return nil, err
	}
	s.level = snap.Level
	s.count = snap.Count
	s.zero = snap.Zero
	if snap.Count > 0 {
		s.min, s.max = snap.Min, snap.Max
	}
	total := snap.Zero
	for _, side := range [][]SketchCentroid{snap.Neg, snap.Pos} {
		for _, c := range side {
			if c.Count <= 0 {
				return nil, fmt.Errorf("stats: sketch snapshot bucket %d has count %d", c.Index, c.Count)
			}
			total += c.Count
		}
	}
	if total != snap.Count {
		return nil, fmt.Errorf("stats: sketch snapshot bucket counts sum to %d, want count %d", total, snap.Count)
	}
	for _, c := range snap.Neg {
		if _, dup := s.neg[c.Index]; dup {
			return nil, fmt.Errorf("stats: sketch snapshot duplicate neg bucket %d", c.Index)
		}
		s.neg[c.Index] = c.Count
	}
	for _, c := range snap.Pos {
		if _, dup := s.pos[c.Index]; dup {
			return nil, fmt.Errorf("stats: sketch snapshot duplicate pos bucket %d", c.Index)
		}
		s.pos[c.Index] = c.Count
	}
	return s, nil
}
