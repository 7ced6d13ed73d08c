package main

import (
	"context"
	"time"

	"github.com/accu-sim/accu/internal/sim"
)

// gridRunner runs each job as one local sim.Run, the way accurun does:
// the benchmark's collect callback folds every record into a sim.Summary
// and a sim.RecordDigest.
type gridRunner struct {
	w      *workload
	seed   uint64
	engine int
}

func (g *gridRunner) setup() error    { return nil }
func (g *gridRunner) teardown() error { return nil }

func (g *gridRunner) job(ctx context.Context, i int, rec *recorder) jobOut {
	out := jobOut{index: i, spec: g.w.jobSpec(g.seed, i, g.engine), start: time.Now()}
	var jobSpan span
	if rec != nil {
		jobSpan = span{trace: jobTrace(i), id: rec.newID(), name: "job", start: rec.now()}
	}
	reg := rec.registry()
	p, facs, err := out.spec.Build(reg)
	if err != nil {
		out.err, out.end = err, time.Now()
		return out
	}
	summary := sim.NewSummary(nil)
	digest := sim.NewRecordDigest()
	collect := func(r sim.Record) {
		summary.Collect(r)
		digest.Collect(r)
		if out.records == 0 {
			out.firstRecord = time.Now()
		}
		out.records++
	}
	if rec != nil {
		traceProtocol(&p, rec, jobTrace(i), jobSpan.id)
		facs = traceFactories(facs, rec, policySeeds(p, len(facs), i), jobSpan.id)
		collect = tracedCollect(rec, jobTrace(i), jobSpan.id, collect)
	}
	out.err = sim.Run(ctx, p, facs, collect)
	out.digest = digest.Sum()
	out.end = time.Now()
	if rec != nil {
		jobSpan.end = rec.now()
		rec.record(jobSpan)
	}
	return out
}

// tracedCollect times the benchmark's collect callback, the stats layer's
// Summary + sketch + digest fold. The engine calls collect serially, so
// the buffer needs no lock.
func tracedCollect(rec *recorder, trace uint64, parent uint32, collect func(sim.Record)) func(sim.Record) {
	buf := rec.buf()
	return func(r sim.Record) {
		start := rec.now()
		collect(r)
		buf.add(span{trace: trace, id: rec.newID(), parent: parent, name: "stats.collect", start: start, end: rec.now()})
	}
}
