package main

import (
	"fmt"
	"time"

	"github.com/accu-sim/accu/internal/serv"
)

// workload is one set of inputs the benchmark runs. Every workload runs
// jobs: a job is one Monte-Carlo grid submitted whole and waited for —
// a local sim.Run, an accuserv job, or an accudist coordinator grid —
// so jobs_per_s and job latency are defined on all four.
type workload struct {
	name string
	why  string
	kind string // "grid", "serv" or "dist"
	// spec is the job template; the job's seed is filled in per job.
	// Workers 0 means one engine worker per CPU.
	spec serv.Spec
	// clients is the closed loop's size: each client submits its next
	// job only after its previous one returned.
	clients int
	// dist knobs, pinned so the wall time does not hinge on defaults.
	distWorkers  int
	rangeSize    int
	pollInterval time.Duration
	leaseTTL     time.Duration
	// moves is the layer → end-to-end map: which end-to-end metric each
	// per-layer metric should move on this workload.
	moves []layerLink
}

// layerLink says which end-to-end metric a per-layer metric should move.
type layerLink struct {
	layer  string // per-layer metric (or a group, e.g. core.<policy>.*)
	metric string // end-to-end metric, or "none" for a predicted no-change
}

func policies(names ...string) []serv.PolicySpec {
	out := make([]serv.PolicySpec, len(names))
	for i, n := range names {
		out[i] = serv.PolicySpec{Name: n}
	}
	return out
}

// workloads is the benchmark's workload table, in BENCHMARK.json order.
var workloads = []workload{
	{
		name: "slashdot-1net",
		why:  "one network, many runs, full roster: ABM rescoring and PageRank init dominate, so core-layer and per-network caching gains show here",
		kind: "grid",
		spec: serv.Spec{Preset: "slashdot", Scale: 0.02, Policies: policies("abm", "maxdegree", "pagerank", "random"),
			Networks: 1, Runs: 16, K: 30},
		clients: 1,
		moves: []layerLink{
			{"core.abm.*, core.pagerank.init.busy_s, core.runner.self_s", "cells_per_s, job_latency_p50_ms"},
			{"core.abm.rescores_per_accept, core.abm.dirty_size_mean", "cells_per_s"},
			{"stats.collect.busy_s", "cells_per_s"},
			{"sim.cell.busy_s, sim.gc_pause_s, sim.other_s", "cells_per_s, allocs_per_cell"},
			{"gen.*, osn.build.*", "none (near zero: one build per job)"},
			{"osn.sample.*, osn.reveal.busy_s", "cells_per_s (minor share)"},
			{"serv.*, dist.*", "none (not exercised)"},
		},
	},
	{
		name: "dblp-manynet",
		why:  "many networks, one run each, no PageRank: generation and realization sampling dominate and no per-network cache can be reused",
		kind: "grid",
		spec: serv.Spec{Preset: "dblp", Scale: 0.02, Policies: policies("abm", "maxdegree", "random"),
			Networks: 9, Runs: 1, K: 30},
		clients: 1,
		moves: []layerLink{
			{"gen.generate.*, osn.build.*", "cells_per_s, job_latency_p50_ms"},
			{"osn.sample.*, osn.reveal.busy_s, osn.requests, osn.accepts", "cells_per_s, allocs_per_cell"},
			{"sim.cell.busy_s, sim.gc_pause_s, sim.other_s", "cells_per_s, allocs_per_cell"},
			{"core.abm.*", "little (lazy dirty set of a few dozen nodes)"},
			{"stats.collect.busy_s", "none (negligible)"},
			{"serv.*, dist.*", "none (not exercised)"},
		},
	},
	{
		name: "serv-jobs",
		why:  "in-process accuserv, closed loop of 2 clients submitting small jobs: queue, job documents, cell journal, SSE and result assembly dominate",
		kind: "serv",
		spec: serv.Spec{Preset: "slashdot", Scale: 0.02, Policies: policies("maxdegree", "random"),
			Networks: 1, Runs: 4, K: 30},
		clients: 2,
		moves: []layerLink{
			{"serv.submit.rtt_ms, serv.result.rtt_ms, serv.handler.*", "job_latency_p50_ms, job_latency_p90_ms"},
			{"serv.queue_wait_ms", "job_latency_p50_ms, job_latency_p90_ms (one job always queued)"},
			{"serv.run_ms, serv.job.network_s, serv.job.sample_s, serv.job.cell_s", "jobs_per_s, job_latency_p50_ms"},
			{"serv.notify_ms, serv.events_per_job", "job_latency_p50_ms"},
			{"serv.journal_bytes_per_cell", "jobs_per_s, allocs_per_cell"},
			{"core.abm.*, core.pagerank.*", "none (not in roster)"},
			{"dist.*", "none (not exercised)"},
		},
	},
	{
		name: "dist-loopback",
		why:  "in-process coordinator and 2 workers over loopback: per-cell upload round trips, fsync-before-ack and per-range network regeneration dominate",
		kind: "dist",
		spec: serv.Spec{Preset: "slashdot", Scale: 0.02, Policies: policies("maxdegree", "random"),
			Networks: 1, Runs: 32, K: 30, Workers: 1},
		clients:      1,
		distWorkers:  2,
		rangeSize:    16,
		pollInterval: 2 * time.Millisecond,
		leaseTTL:     30 * time.Second,
		moves: []layerLink{
			{"dist.upload.*, dist.cells_accepted_per_upload", "cells_per_s, job_latency_p50_ms"},
			{"dist.lease.*", "cells_per_s (idle-worker polling)"},
			{"gen.generate.per_network, gen.generate.busy_s, osn.build.busy_s", "cells_per_s (regeneration per leased range)"},
			{"sim.other_s", "cells_per_s (uploads run inside the engine's commit)"},
			{"core.abm.*, core.pagerank.*", "none (not in roster)"},
			{"serv.*", "none (not exercised)"},
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// jobSpec is job i of a run seeded by seed: the template with a seed of
// its own, so every job of a run computes a distinct grid and the same
// (seed, i) always computes the same one.
func (w *workload) jobSpec(seed uint64, i int, engineWorkers int) serv.Spec {
	s := w.spec
	s.Policies = append([]serv.PolicySpec(nil), w.spec.Policies...)
	s.Seed = mixSeed(seed, uint64(i))
	if s.Workers == 0 {
		s.Workers = engineWorkers
	}
	return s
}

// mixSeed derives a job seed (SplitMix64 finalizer over seed and index).
func mixSeed(seed, i uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + (i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z ^ (z >> 31)) >> 1 // keep 2·seed+1 (the root-seed derivation) from wrapping
}

// threads is the number of compute threads the workload keeps busy at
// once: engine workers for a local grid; job slots × engine workers for
// accuserv, whose clients block on their job while it is queued or runs;
// dist workers × their engine workers for accudist.
func (w *workload) threads(engineWorkers int) int {
	s := w.jobSpec(0, 0, engineWorkers)
	switch w.kind {
	case "serv":
		return servJobSlots * s.Workers
	case "dist":
		return w.distWorkers * s.Workers
	default:
		return s.Workers
	}
}

// servJobSlots is accuserv's default Config.Workers (jobs run one at a
// time).
const servJobSlots = 1
