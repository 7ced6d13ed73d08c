package core

import (
	"fmt"

	"github.com/accu-sim/accu/internal/obs"
	"github.com/accu-sim/accu/internal/osn"
	"github.com/accu-sim/accu/internal/rng"
)

// ABM is the Adaptive Benefit Maximization greedy of Algorithm 1: at each
// step it requests the user with the highest potential P(u|ω).
//
// ABM keeps the potential event-driven. P_D and P_I are sums of
// per-neighbour terms, and neighbour v's term changes only when v's
// friend, FOF or cautious-deficit state does. ABM stores each
// candidate's fixed-point sums and the state each node last applied to
// its neighbours' sums; an acceptance re-derives that state for the new
// friend and its realized neighbours, adds the exact term difference to
// the sums of every neighbour of a node whose state changed, and
// re-scores only those candidates, in O(1) each. Stale heap entries are
// version-checked on pop. The stored scores always equal Potential.
type ABM struct {
	weights Weights

	scores  []float64
	version []int32
	pq      potentialHeap

	// direct[c] and indirect[c] are candidate c's neighbour sums of P_D
	// and P_I in fixed point (own benefit excluded); directOn[v] and
	// deficit[v] are the neighbourState node v last added to its
	// neighbours' sums (off/0 for friends).
	terms    fixedTerms
	direct   []int64
	indirect []int64
	directOn []bool
	deficit  []int32

	// touched lists the candidates to re-score after one acceptance;
	// stamp/epoch dedupe it without allocating: a node is already listed
	// this round iff its stamp equals the epoch.
	touched []int32
	stamp   []int32
	epoch   int32

	// Instruments resolved once by WithMetrics; nil (no-op) by default.
	// See DESIGN.md "Reading a metrics dump" for what each one means.
	mHeapPops    *obs.Counter   // heap entries popped in SelectNext
	mStaleSkips  *obs.Counter   // popped entries discarded as stale/requested
	mRescores    *obs.Counter   // O(1) score recomputations
	mDirtySize   *obs.Histogram // candidates touched per acceptance
	mCompactions *obs.Counter   // stale-entry heap compactions
}

// Option configures an ABM policy.
type Option func(*ABM)

// WithMetrics records the policy's work counters — heap pops, stale-entry
// skips, rescores and per-acceptance touched-candidate counts — into the given
// registry. The instruments are shared and atomic, so many concurrent
// attacks may report into one registry; a nil registry leaves the policy
// uninstrumented (the counters stay no-ops).
func WithMetrics(reg *obs.Registry) Option {
	return func(a *ABM) {
		a.mHeapPops = reg.Counter("abm.heap_pops")
		a.mStaleSkips = reg.Counter("abm.stale_skips")
		a.mRescores = reg.Counter("abm.rescores")
		a.mDirtySize = reg.Histogram("abm.dirty_size")
		a.mCompactions = reg.Counter("abm.heap_compactions")
	}
}

// NewABM builds an ABM policy with the given potential weights.
func NewABM(w Weights, opts ...Option) (*ABM, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	a := &ABM{weights: w}
	for _, o := range opts {
		o(a)
	}
	return a, nil
}

// NewPureGreedy returns ABM with w_D=1, w_I=0 — the classical adaptive
// greedy of the earlier crawling papers, which the theoretical guarantee
// of Theorem 1 covers.
func NewPureGreedy() *ABM {
	a, err := NewABM(Weights{WD: 1, WI: 0})
	if err != nil {
		// Weights{1, 0} is statically valid.
		panic(fmt.Sprintf("core: pure greedy construction: %v", err))
	}
	return a
}

var _ Policy = (*ABM)(nil)

// Name implements Policy.
func (a *ABM) Name() string { return a.weights.PolicyName() }

// Reseed implements Reusable: ABM ignores its construction seed, and Init
// re-slices every per-attack buffer, so reuse needs no reset work.
func (a *ABM) Reseed(rng.Seed) {}

// Weights returns the potential weights.
func (a *ABM) Weights() Weights { return a.weights }

// Init implements Policy: build every candidate's neighbour sums, score
// it and build the heap. A reused instance (scheduler-level pooling via
// Reusable) re-slices its previous buffers instead of reallocating.
func (a *ABM) Init(st *osn.State) error {
	n := st.Instance().N()
	a.terms = newFixedTerms(st.Instance())
	a.scores = resetSlice(a.scores, n)
	a.direct = resetSlice(a.direct, n)
	a.indirect = resetSlice(a.indirect, n)
	a.directOn = resetSlice(a.directOn, n)
	a.deficit = resetSlice(a.deficit, n)
	a.version = resetSlice(a.version, n)
	a.stamp = resetSlice(a.stamp, n)
	a.epoch = 0
	if cap(a.touched) < n {
		a.touched = make([]int32, 0, n)
	}
	// Starting from all-zero sums and states, one update per node adds
	// every term through the same path as Observe. Nothing is listed for
	// re-scoring: at epoch 0 every stamp already equals the epoch.
	for v := 0; v < n; v++ {
		a.update(st, v)
	}
	a.pq = a.pq[:0]
	if cap(a.pq) < n {
		a.pq = make(potentialHeap, 0, n)
	}
	for u := 0; u < n; u++ {
		a.scores[u] = a.score(st, u)
		a.pq = append(a.pq, heapEntry{score: a.scores[u], user: int32(u)})
	}
	a.pq.init()
	return nil
}

// resetSlice returns a zeroed slice of length n, reusing s's backing
// array when it is large enough.
func resetSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// state is the neighbourState node v currently contributes to its
// neighbours' sums; a friend contributes nothing.
func (a *ABM) state(st *osn.State, v int) (direct bool, deficit int32) {
	if st.IsFriend(v) {
		return false, 0
	}
	return a.weights.neighbourState(st.Instance(), v, st.IsFOF(v), st.Mutual(v))
}

// score is candidate c's potential from its stored sums: exactly
// Potential(st, c, a.weights).
func (a *ABM) score(st *osn.State, c int) float64 {
	if st.Requested(c) {
		return 0
	}
	q := st.AcceptChance(c)
	if q == 0 {
		return 0
	}
	return a.terms.score(q, a.weights, a.terms.own(c, st.IsFOF(c))+a.direct[c], a.indirect[c])
}

// SelectNext implements Policy: pop the freshest highest-potential
// candidate.
func (a *ABM) SelectNext(st *osn.State) (int, bool) {
	for a.pq.Len() > 0 {
		e := a.pq.pop()
		a.mHeapPops.Inc()
		u := int(e.user)
		if st.Requested(u) || e.version != a.version[u] {
			a.mStaleSkips.Inc()
			continue
		}
		return u, true
	}
	return 0, false
}

// Observe implements Policy: after an acceptance, bring the neighbour
// sums up to date and re-score the candidates they touched.
//
// Only the new friend u and its realized neighbours (whose mutual count
// grew) can change state. Under RunBatched the state already holds the
// whole batch, so each node's state is diffed against the one it last
// applied rather than assumed to have moved by one.
func (a *ABM) Observe(st *osn.State, out osn.Outcome) {
	if !out.Accepted {
		return
	}
	a.epoch++
	a.touched = a.touched[:0]
	u := out.User
	a.update(st, u)
	g := st.Instance().Graph()
	re := st.Realization()
	base := g.AdjBase(u)
	for i, v := range g.Neighbors(u) {
		if !re.EdgeExistsSlot(base + i) {
			continue
		}
		a.touch(st, int(v)) // its own FOF term and q̂ may have changed
		a.update(st, int(v))
	}
	for _, c := range a.touched {
		a.rescore(st, int(c))
	}
	a.mDirtySize.Observe(int64(len(a.touched)))
	a.maybeCompact(st)
}

// update re-derives node v's state and, if it changed, adds the exact
// term difference to the sums of every unrequested neighbour. Edge
// beliefs are the prior: an unrequested candidate and a non-friend
// neighbour are both unobserved, and a friend contributes no term.
func (a *ABM) update(st *osn.State, v int) {
	on, def := a.state(st, v)
	wasOn, wasDef := a.directOn[v], a.deficit[v]
	if on == wasOn && def == wasDef {
		return
	}
	a.directOn[v], a.deficit[v] = on, def
	inst := st.Instance()
	g := inst.Graph()
	base := g.AdjBase(v)
	for i, c32 := range g.Neighbors(v) {
		c := int(c32)
		if st.Requested(c) {
			continue
		}
		p := inst.EdgeProb(base + i)
		if on != wasOn {
			if d := a.terms.direct(p, v); on {
				a.direct[c] += d
			} else {
				a.direct[c] -= d
			}
		}
		if def != wasDef {
			a.indirect[c] += a.terms.indirect(p, v, def) - a.terms.indirect(p, v, wasDef)
		}
		a.touch(st, c)
	}
}

// touch lists unrequested candidate c for re-scoring, once per
// acceptance.
func (a *ABM) touch(st *osn.State, c int) {
	if a.stamp[c] == a.epoch || st.Requested(c) {
		return
	}
	a.stamp[c] = a.epoch
	a.touched = append(a.touched, int32(c))
}

// compactSlack keeps tiny instances from compacting on every acceptance.
const compactSlack = 64

// maybeCompact drops stale heap entries once they outnumber live
// candidates ~2:1. Every rescore that changes a score strands the
// previous entry in the heap, so a long high-churn attack would otherwise
// grow the heap without bound; compaction restores |heap| <= live
// candidates in O(|heap|), amortized O(1) per stranded entry. Selection
// is unaffected: stale entries are skipped on pop anyway, and the fresh
// entries form a total order on (score, user id), so rebuilding the heap
// preserves the pop sequence exactly.
func (a *ABM) maybeCompact(st *osn.State) {
	live := st.Instance().N() - st.Requests()
	if len(a.pq) <= 3*live+compactSlack {
		return
	}
	keep := a.pq[:0]
	for _, e := range a.pq {
		u := int(e.user)
		if e.version == a.version[u] && !st.Requested(u) {
			keep = append(keep, e)
		}
	}
	a.pq = keep
	a.pq.init()
	a.mCompactions.Inc()
}

// rescore recomputes c's potential from its sums and pushes a fresh heap
// entry if it changed.
func (a *ABM) rescore(st *osn.State, c int) {
	a.mRescores.Inc()
	s := a.score(st, c)
	if s == a.scores[c] {
		return
	}
	a.scores[c] = s
	a.version[c]++
	a.pq.push(heapEntry{score: s, user: int32(c), version: a.version[c]})
}
