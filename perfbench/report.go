package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"github.com/accu-sim/accu/internal/obs"
)

// metric is one printed measurement.
type metric struct {
	name  string
	value float64
	unit  string
	n     int    // sample count behind the value
	note  string // how the value was formed
}

// sums indexes a metrics snapshot: histogram sums and counts (exact, not
// the power-of-two bucket quantiles) and counter values.
type sums struct {
	hist     map[string]obs.HistogramValue
	counters map[string]int64
}

func snapshotSums(snaps ...*obs.Snapshot) sums {
	s := sums{hist: map[string]obs.HistogramValue{}, counters: map[string]int64{}}
	for _, snap := range snaps {
		if snap == nil {
			continue
		}
		for _, h := range snap.Histograms {
			cur := s.hist[h.Name]
			cur.Count += h.Count
			cur.Sum += h.Sum
			s.hist[h.Name] = cur
		}
		for _, c := range snap.Counters {
			s.counters[c.Name] += c.Value
		}
	}
	return s
}

func (s sums) sum(name string) int64     { return s.hist[name].Sum }
func (s sums) calls(name string) int64   { return s.hist[name].Count }
func (s sums) counter(name string) int64 { return s.counters[name] }

// e2eMetrics computes the end-to-end metrics of an untraced window: the
// gated ones of BENCHMARK.json, and the ones only recorded. error_rate is
// recorded here and gated through the result's attempted/failed counts,
// since a metric that reads 0 has no relative spread.
func e2eMetrics(w window, setupS float64, setupReps int, rssMB float64, ops *tally) (gated, recorded []metric) {
	lat := w.latenciesMS()
	n := len(lat)
	p90note := fmt.Sprintf("%d samples beyond it", n-rankOf(n, 90))
	if p, _, ok := tailPercentile(n); !ok || p < 90 {
		p90note += fmt.Sprintf("; below the percentile rule's floor of %d (highest qualifying: p%g)", minBeyond, p)
	}
	records := w.records()
	return []metric{
			{"cells_per_s", w.cellsPerS(), "1/s", records, fmt.Sprintf("median of %d segments", len(w.segs))},
			{"jobs_per_s", w.jobsPerS(), "1/s", n, fmt.Sprintf("median of %d segments", len(w.segs))},
			{"job_latency_p50_ms", median(lat), "ms", n, "submit to result"},
			{"job_latency_p90_ms", percentile(lat, 90), "ms", n, p90note},
			{"allocs_per_cell", float64(w.mallocs) / math.Max(1, float64(records)), "count", records, "heap allocations ÷ records"},
			{"peak_rss_mb", rssMB, "MB", 1, "peak resident set at window end"},
			{"setup_s", setupS, "s", setupReps, "median set-up incl. one warm-up job"},
		}, []metric{
			{"error_rate", ops.errorRate(), "ratio", int(ops.attempted.Load()), "failed or refused ÷ attempted operations"},
			{"raw.cells_per_s", float64(records) / w.rawWall.Seconds(), "1/s", records, "steal not subtracted; recorded, not gated"},
			{"raw.steal_pct", 100 * (1 - w.wall().Seconds()/w.rawWall.Seconds()), "%", 1, "share of the window removed as hypervisor steal"},
		}
}

// layerInput is everything the per-layer metrics are computed from.
type layerInput struct {
	w           *workload
	traced      window
	untracedCPS float64
	threads     int
	spans       []span
	rec         *recorder
	reg         sums // engine registry of the traced window (all jobs)
	servJobs    []servJobStats
	distCoord   map[string]int64
}

// perLayerNames lists the per-layer metrics in output order; every
// workload reports every one, 0 where the workload does not exercise the
// layer.
func perLayerNames() []string {
	names := []string{
		"gen.generate.calls", "gen.generate.busy_s", "gen.generate.per_network",
		"osn.build.calls", "osn.build.busy_s",
		"osn.sample.calls", "osn.sample.busy_s", "osn.reveal.busy_s", "osn.requests", "osn.accepts",
	}
	for _, p := range rosterPolicies {
		names = append(names, "core."+p+".init.busy_s", "core."+p+".select.busy_s", "core."+p+".observe.busy_s", "core."+p+".select.calls")
	}
	return append(names,
		"core.runner.self_s", "core.abm.rescores_per_accept", "core.abm.heap_pops_per_select", "core.abm.dirty_size_mean",
		"sim.cell.busy_s", "sim.worker_busy_s", "sim.utilization_pct", "sim.first_record_s", "sim.other_s", "sim.gc_pause_s",
		"stats.collect.calls", "stats.collect.busy_s",
		"serv.submit.rtt_ms", "serv.queue_wait_ms", "serv.run_ms", "serv.notify_ms", "serv.result.rtt_ms",
		"serv.handler.submit.busy_s", "serv.handler.events.busy_s", "serv.handler.result.busy_s",
		"serv.events_per_job", "serv.journal_bytes_per_cell", "serv.job.network_s", "serv.job.sample_s", "serv.job.cell_s",
		"dist.upload.calls", "dist.upload.rtt_ms_p50", "dist.upload.rtt_ms_p99", "dist.upload.server_ms_p50", "dist.upload.server_ms_p99",
		"dist.upload.bytes_per_cell", "dist.lease.calls", "dist.lease.rtt_ms_p50", "dist.lease.empty_frac", "dist.cells_accepted_per_upload",
		"gen.share_pct", "osn.share_pct", "core.share_pct", "sim.other.share_pct", "sim.accounted_pct",
		"trace.overhead_pct",
	)
}

// rosterPolicies are the policies of the §IV roster.
var rosterPolicies = []string{"abm", "maxdegree", "pagerank", "random"}

// unitOf derives a per-layer metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.Contains(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "_frac"):
		return "ratio"
	case strings.HasSuffix(name, "bytes_per_cell"):
		return "B"
	default:
		return "count"
	}
}

func secs(ns int64) float64 { return float64(ns) / 1e9 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics computes every per-layer metric of a traced window.
func layerMetrics(in layerInput) []metric {
	agg := aggregate(in.spans)
	get := func(name string) *spanAgg {
		if a, ok := agg[name]; ok {
			return a
		}
		return &spanAgg{}
	}
	v := map[string]float64{}
	n := map[string]int{}
	set := func(name string, val float64, samples int) { v[name], n[name] = val, samples }
	jobs := len(in.traced.jobs)

	// gen / osn.build: wrapped calls.
	networks := 0
	for _, j := range in.traced.jobs {
		networks += j.spec.Networks
	}
	g, b := get("gen.generate"), get("osn.build")
	set("gen.generate.calls", float64(g.calls), int(g.calls))
	set("gen.generate.busy_s", secs(g.ns), int(g.calls))
	set("gen.generate.per_network", ratio(float64(g.calls), float64(networks)), networks)
	set("osn.build.calls", float64(b.calls), int(b.calls))
	set("osn.build.busy_s", secs(b.ns), int(b.calls))

	// Engine-internal layers: exact registry sums. accuserv keeps one
	// registry per job, summed here.
	reg := in.reg
	var sampleNS, sampleCalls, revealNS, cellNS, cellCalls, busyNS, networkNS, requests, accepts int64
	if in.w.kind == "serv" {
		for _, s := range in.servJobs {
			sampleNS += s.sampleNS
			sampleCalls += s.sampleCalls
			revealNS += s.revealNS
			cellNS += s.cellNS
			cellCalls += s.cellCalls
			busyNS += s.workerBusyNS
			networkNS += s.networkNS
			requests += s.requests
			accepts += s.accepts
		}
	} else {
		sampleNS, sampleCalls = reg.sum("osn.sample_realization_ns"), reg.calls("osn.sample_realization_ns")
		revealNS = reg.sum("osn.reveal_ns")
		cellNS, cellCalls = reg.sum("sim.cell_ns"), reg.calls("sim.cell_ns")
		busyNS = reg.counter("sim.worker_busy_ns")
		networkNS = reg.sum("sim.network_ns")
		requests, accepts = reg.counter("osn.requests"), reg.counter("osn.accepts")
	}
	set("osn.sample.calls", float64(sampleCalls), int(sampleCalls))
	set("osn.sample.busy_s", secs(sampleNS), int(sampleCalls))
	set("osn.reveal.busy_s", secs(revealNS), int(accepts))
	set("osn.requests", float64(requests), int(requests))
	set("osn.accepts", float64(accepts), int(accepts))

	// core: policy spans.
	var policyNS int64
	for _, p := range rosterPolicies {
		names := namesFor(p)
		in, sel, obsv := get(names.init), get(names.sel), get(names.observe)
		policyNS += in.ns + sel.ns + obsv.ns
		set("core."+p+".init.busy_s", secs(in.ns), int(in.calls))
		set("core."+p+".select.busy_s", secs(sel.ns), int(sel.calls))
		set("core."+p+".observe.busy_s", secs(obsv.ns), int(obsv.calls))
		set("core."+p+".select.calls", float64(sel.calls), int(sel.calls))
	}
	if in.w.kind == "grid" { // only local grids wrap the policies
		set("core.runner.self_s", secs(cellNS-policyNS), int(cellCalls))
	}
	abmAccepts := in.rec.count(namesFor("abm").accepts)
	abmSelects := get(namesFor("abm").sel).calls
	set("core.abm.rescores_per_accept", ratio(float64(reg.counter("abm.rescores")), float64(abmAccepts)), int(abmAccepts))
	set("core.abm.heap_pops_per_select", ratio(float64(reg.counter("abm.heap_pops")), float64(abmSelects)), int(abmSelects))
	set("core.abm.dirty_size_mean", ratio(float64(reg.sum("abm.dirty_size")), float64(reg.calls("abm.dirty_size"))), int(reg.calls("abm.dirty_size")))

	// sim: the cell scheduler.
	otherNS := busyNS - networkNS - sampleNS - cellNS
	var firstNS int64
	firsts := 0
	for _, j := range in.traced.jobs {
		if !j.firstRecord.IsZero() {
			firstNS += int64(j.firstRecord.Sub(j.start))
			firsts++
		}
	}
	set("sim.cell.busy_s", secs(cellNS), int(cellCalls))
	set("sim.worker_busy_s", secs(busyNS), jobs)
	set("sim.utilization_pct", 100*ratio(float64(busyNS), float64(in.traced.rawWall)*float64(in.threads)), jobs)
	set("sim.first_record_s", secs(firstNS), firsts)
	set("sim.other_s", secs(otherNS), jobs)
	set("sim.gc_pause_s", in.traced.gcPause.Seconds(), 1)

	c := get("stats.collect")
	set("stats.collect.calls", float64(c.calls), int(c.calls))
	set("stats.collect.busy_s", secs(c.ns), int(c.calls))

	// serv: client round trips, job documents, handler spans.
	var qw, run, notify, events, submit, result []float64
	var jBytes, jCells, jNet, jSample, jCell int64
	for k, s := range in.servJobs {
		j := in.traced.jobs[k]
		qw = append(qw, ms(s.queueWait))
		run = append(run, ms(s.run))
		notify = append(notify, ms(s.notify))
		events = append(events, float64(j.frames))
		submit = append(submit, ms(j.submitRTT))
		result = append(result, ms(j.resultRTT))
		jBytes += s.journalBytes
		jCells += s.cells
		jNet += s.networkNS
		jSample += s.sampleNS
		jCell += s.cellNS
	}
	sj := len(in.servJobs)
	set("serv.submit.rtt_ms", median(submit), sj)
	set("serv.queue_wait_ms", median(qw), sj)
	set("serv.run_ms", median(run), sj)
	set("serv.notify_ms", median(notify), sj)
	set("serv.result.rtt_ms", median(result), sj)
	for _, h := range []string{"submit", "events", "result"} {
		a := get("serv.handler." + h)
		set("serv.handler."+h+".busy_s", secs(a.ns), int(a.calls))
	}
	set("serv.events_per_job", median(events), sj)
	set("serv.journal_bytes_per_cell", ratio(float64(jBytes), float64(jCells)), int(jCells))
	set("serv.job.network_s", secs(jNet), sj)
	set("serv.job.sample_s", secs(jSample), sj)
	set("serv.job.cell_s", secs(jCell), sj)

	// dist: worker-side round trips, coordinator-side handler time.
	up, upSrv, lease := get("dist.client.cells"), get("dist.handler.cells"), get("dist.client.lease")
	set("dist.upload.calls", float64(up.calls), int(up.calls))
	set("dist.upload.rtt_ms_p50", percentile(up.durs, 50), int(up.calls))
	set("dist.upload.rtt_ms_p99", percentile(up.durs, 99), int(up.calls))
	set("dist.upload.server_ms_p50", percentile(upSrv.durs, 50), int(upSrv.calls))
	set("dist.upload.server_ms_p99", percentile(upSrv.durs, 99), int(upSrv.calls))
	accepted := in.distCoord["dist.cells_accepted"]
	set("dist.upload.bytes_per_cell", ratio(float64(in.rec.count("dist.upload.bytes")), float64(accepted)), int(accepted))
	set("dist.lease.calls", float64(lease.calls), int(lease.calls))
	set("dist.lease.rtt_ms_p50", percentile(lease.durs, 50), int(lease.calls))
	set("dist.lease.empty_frac", ratio(float64(in.rec.count("dist.lease.empty")), float64(lease.calls)), int(lease.calls))
	set("dist.cells_accepted_per_upload", ratio(float64(accepted), float64(in.distCoord["dist.uploads"])), int(in.distCoord["dist.uploads"]))

	// Shares of worker busy time. osn covers build, sampling and the
	// reveal kernel; core is the policy run minus the reveals inside it;
	// other is busy time outside network build, sampling and cells.
	busy := float64(busyNS)
	set("gen.share_pct", 100*ratio(float64(g.ns), busy), jobs)
	set("osn.share_pct", 100*ratio(float64(b.ns+sampleNS+revealNS), busy), jobs)
	set("core.share_pct", 100*ratio(float64(cellNS-revealNS), busy), jobs)
	set("sim.other.share_pct", 100*ratio(float64(otherNS), busy), jobs)
	set("sim.accounted_pct", 100*ratio(float64(g.ns+b.ns+sampleNS+cellNS+otherNS), busy), jobs)
	set("trace.overhead_pct", 100*ratio(in.untracedCPS-in.traced.cellsPerS(), in.untracedCPS), len(in.traced.jobs))

	out := make([]metric, 0, len(v))
	for _, name := range perLayerNames() {
		out = append(out, metric{name: name, value: v[name], unit: unitOf(name), n: n[name]})
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// selfTimes sums, per span name, each span's self time: its duration
// minus the part its children cover.
func selfTimes(spans []span) []metric {
	children := make(map[uint32][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	sum := map[string]int64{}
	count := map[string]int{}
	for _, s := range spans {
		sum[s.name] += selfTime(s, children[s.id])
		count[s.name]++
	}
	out := make([]metric, 0, len(sum))
	for name, ns := range sum {
		out = append(out, metric{name: name, value: secs(ns), unit: "s", n: count[name]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].value > out[j].value })
	return out
}

// printTable writes metrics as aligned text lines.
func printTable(w io.Writer, title string, ms []metric) {
	fmt.Fprintf(w, "%s\n", title)
	for _, m := range ms {
		note := ""
		if m.note != "" {
			note = "  (" + m.note + ")"
		}
		fmt.Fprintf(w, "  %-34s %16.6g %-6s n=%d%s\n", m.name, m.value, m.unit, m.n, note)
	}
}
