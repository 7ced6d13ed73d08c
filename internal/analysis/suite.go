package analysis

// NewSuite returns fresh instances of the sixteen accuvet analyzers,
// grouped by the invariant they enforce (DESIGN §8 has the scope table):
//
// Determinism — the record path is a pure function of the seed tree:
//
//	detflow       — no clock/env/global-rand reads on the record path;
//	                no such value, nor map order, reaches a digest,
//	                sketch or summary input
//	maporder      — no order-dependent effects under map iteration
//	seedflow      — one Split per seed consumer
//	metricname    — obs metric names match the convention, one kind per name
//
// Concurrency — the parallel engine's locking and goroutine discipline:
//
//	lockbalance   — every Lock released on every CFG path; no lock copies
//	atomicmix     — no variable accessed both atomically and plainly
//	ctxcancel     — cancel funcs invoked on every path, never dropped
//	scratchescape — per-worker scratch never escapes its worker goroutine
//	errcmp        — errors.Is for module sentinels, not == (wrapping-safe)
//	chanleak      — no goroutine left blocked on an unreceived unbuffered send
//
// Service layer — handlers and clients that wait, write and commit:
//
//	httpbody      — every *http.Response body closed on all paths, drained
//	lockedio      — no blocking I/O reachable while a mutex is held
//	ctxflow       — outgoing requests carry a context; poll loops consult
//	                it; no time.After in loops, no time.Tick at all
//
// Durability — acknowledged work survives a crash:
//
//	errdrop       — no discarded error on a durability-critical call chain
//	fsyncack      — one header commit per path; handlers commit durably
//	                before writing a success response
//	wiretag       — //accu:wire structs carry explicit unique json tags,
//	                no unkeyed literals; feeds the wire-schema lockfile
//
// Instances hold per-run state (metricname's cross-package duplicate
// table), so every checker invocation must call NewSuite rather than
// sharing analyzers globally.
func NewSuite() []*Analyzer {
	return []*Analyzer{
		Detflow(),
		MapOrder(),
		SeedFlow(),
		MetricNames(),
		LockBalance(),
		AtomicMix(),
		CtxCancel(),
		ScratchEscape(),
		ErrCmp(),
		ChanLeak(),
		HTTPBody(),
		LockedIO(),
		CtxFlow(),
		ErrDrop(),
		FsyncAck(),
		WireTag(),
	}
}
