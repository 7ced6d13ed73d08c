package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/accu-sim/accu/internal/serv"
	"github.com/accu-sim/accu/internal/sim"
)

// jobOut is what one job returned and when.
type jobOut struct {
	index   int
	spec    serv.Spec
	records int
	digest  string
	err     error
	start   time.Time
	end     time.Time
	// firstRecord is when the job's first record existed (collected,
	// streamed as progress, or uploaded); zero when not observed.
	firstRecord time.Time

	// accuserv client timings.
	id         string
	submitRTT  time.Duration
	resultRTT  time.Duration
	finalFrame time.Time
	frames     int

	// latency is submit to result, less the window's share of
	// hypervisor steal (see runWindow).
	latency time.Duration
}

// runner runs one workload's jobs. setup and teardown bracket a
// measurement; job may be called from several clients at once. rec is
// nil for untraced jobs.
type runner interface {
	setup() error
	job(ctx context.Context, i int, rec *recorder) jobOut
	teardown() error
}

// window is one closed-loop measurement.
type window struct {
	jobs    []jobOut // in completion order
	segs    []segment
	rawWall time.Duration
	mallocs uint64
	gcPause time.Duration
}

// segment is a run of consecutive job completions within a window.
type segment struct {
	records, jobs int
	wall          time.Duration // less hypervisor steal
}

// windowSegments is how many segments a window's throughput is the
// median of.
const windowSegments = 20

func (w window) records() int {
	n := 0
	for _, j := range w.jobs {
		n += j.records
	}
	return n
}

// wall is the window's wall time less hypervisor steal.
func (w window) wall() time.Duration {
	var d time.Duration
	for _, s := range w.segs {
		d += s.wall
	}
	return d
}

// cellsPerS is the median over segments of records per second.
func (w window) cellsPerS() float64 {
	return w.segMedian(func(s segment) int { return s.records })
}

// jobsPerS is the median over segments of jobs per second.
func (w window) jobsPerS() float64 {
	return w.segMedian(func(s segment) int { return s.jobs })
}

func (w window) segMedian(count func(segment) int) float64 {
	rates := make([]float64, 0, len(w.segs))
	for _, s := range w.segs {
		rates = append(rates, float64(count(s))/s.wall.Seconds())
	}
	return median(rates)
}

func (w window) latenciesMS() []float64 {
	out := make([]float64, len(w.jobs))
	for i, j := range w.jobs {
		out[i] = float64(j.latency) / 1e6
	}
	return out
}

// runWindow drives clients closed-loop clients, each starting its next
// job only when its previous one returned. New jobs start until dur has
// passed and at least minJobs were started, or until maxDur has passed.
// Job indices count up from first, so two windows with the same first
// compute the same grids.
func runWindow(ctx context.Context, d runner, clients int, dur, maxDur time.Duration, minJobs, first int, rec *recorder) window {
	type mark struct {
		at          time.Time
		busy, steal time.Duration
	}
	now := func() mark {
		busy, steal, _ := cpuTimes()
		return mark{at: time.Now(), busy: busy, steal: steal}
	}
	var (
		next  atomic.Int64
		mu    sync.Mutex
		jobs  []jobOut
		marks []mark // completion time and steal reading of each job
		wg    sync.WaitGroup
	)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	begin := now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				el := time.Since(begin.at)
				if el >= maxDur || (el >= dur && int(next.Load()) >= minJobs) {
					return
				}
				out := d.job(ctx, first+int(next.Add(1)-1), rec)
				mu.Lock()
				jobs = append(jobs, out)
				marks = append(marks, now())
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	w := window{
		jobs:    jobs,
		mallocs: after.Mallocs - before.Mallocs,
		gcPause: time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
	if len(jobs) == 0 {
		return w
	}
	w.rawWall = marks[len(marks)-1].at.Sub(begin.at)
	// Split the completions into segments. Time the hypervisor gave to
	// other guests (steal) is not the program's: each segment's wall time,
	// and the latency of each job completing in it, shrink by the share
	// of the time the CPUs wanted to run that went to steal. Relative to
	// wanted time, not wall time, because a serial phase stalls the job
	// while the other CPU idles and accrues no steal.
	per := (len(jobs) + windowSegments - 1) / windowSegments
	prev := begin
	for lo := 0; lo < len(jobs); lo += per {
		hi := min(lo+per, len(jobs))
		last := marks[hi-1]
		span := last.at.Sub(prev.at)
		scale := 1 - stealShare(last.busy-prev.busy, last.steal-prev.steal)
		seg := segment{jobs: hi - lo, wall: time.Duration(float64(span) * scale)}
		for i := lo; i < hi; i++ {
			seg.records += jobs[i].records
			jobs[i].latency = time.Duration(float64(jobs[i].end.Sub(jobs[i].start)) * scale)
		}
		w.segs = append(w.segs, seg)
		prev = last
	}
	return w
}

// stealShare is steal ÷ (busy + steal), capped so a segment keeps a
// tenth of its time.
func stealShare(busy, steal time.Duration) float64 {
	if busy+steal <= 0 {
		return 0
	}
	return min(0.9, float64(steal)/float64(busy+steal))
}

// merge joins two windows of the same mode.
func (w window) merge(o window) window {
	return window{
		jobs:    append(w.jobs, o.jobs...),
		segs:    append(w.segs, o.segs...),
		rawWall: w.rawWall + o.rawWall,
		mallocs: w.mallocs + o.mallocs,
		gcPause: w.gcPause + o.gcPause,
	}
}

// measureSetup sets the runner up reps times, each with one warm-up job,
// and returns the median set-up time less hypervisor steal; the last
// set-up stays up.
func measureSetup(ctx context.Context, d runner, reps int) (float64, error) {
	var times []float64
	for r := 0; r < reps; r++ {
		busy0, steal0, _ := cpuTimes()
		start := time.Now()
		if err := d.setup(); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		if out := d.job(ctx, warmupIndex+r, nil); out.err != nil {
			return 0, fmt.Errorf("warm-up job: %w", out.err)
		}
		busy, steal, _ := cpuTimes()
		times = append(times, time.Since(start).Seconds()*(1-stealShare(busy-busy0, steal-steal0)))
		if r < reps-1 {
			if err := d.teardown(); err != nil {
				return 0, fmt.Errorf("teardown: %w", err)
			}
		}
	}
	return median(times), nil
}

// warmupIndex keeps warm-up grids apart from measured ones.
const warmupIndex = 1 << 20

// referenceDigest runs spec in process with the stock engine, untraced,
// on every CPU (the digest does not depend on the worker count), and
// returns its record digest and record count.
func referenceDigest(ctx context.Context, spec serv.Spec) (string, int, error) {
	spec.Workers = runtime.NumCPU()
	p, facs, err := spec.Build(nil)
	if err != nil {
		return "", 0, err
	}
	d := sim.NewRecordDigest()
	if err := sim.Run(ctx, p, facs, d.Collect); err != nil {
		return "", 0, err
	}
	return d.Sum(), d.Count(), nil
}

// checker runs the output checks; each check is an operation of the
// error rate.
type checker struct {
	ops      *tally
	failures []string
}

func (c *checker) check(ok bool, format string, args ...any) {
	c.ops.op(ok)
	if !ok {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// checkJobs checks every job of a window: it finished, delivered
// networks × runs × roster records, and — where the job ran outside the
// benchmark's own engine call (accuserv, accudist) — its digest equals an
// in-process sim.Run of the same spec, computed now, outside the timed
// window.
func (c *checker) checkJobs(ctx context.Context, w window, label string, reference bool) {
	for _, j := range w.jobs {
		want := int(j.spec.Cells())
		c.ops.ops(int64(want), int64(want-min(j.records, want)))
		c.check(j.err == nil, "%s job %d: %v", label, j.index, j.err)
		c.check(j.records == want, "%s job %d: %d records, want %d", label, j.index, j.records, want)
		if !reference || j.err != nil {
			continue
		}
		ref, n, err := referenceDigest(ctx, j.spec)
		c.check(err == nil && n == want && ref == j.digest,
			"%s job %d: digest %s, in-process reference %s (%d records, err %v)", label, j.index, j.digest, ref, n, err)
	}
}

// checkAgree checks that the jobs both windows ran have equal digests.
func (c *checker) checkAgree(a, b window, labelA, labelB string) (compared int) {
	byIndex := make(map[int]jobOut, len(a.jobs))
	for _, j := range a.jobs {
		byIndex[j.index] = j
	}
	for _, j := range b.jobs {
		o, ok := byIndex[j.index]
		if !ok || o.err != nil || j.err != nil {
			continue
		}
		compared++
		c.check(o.digest == j.digest, "job %d: %s digest %s != %s digest %s", j.index, labelA, o.digest, labelB, j.digest)
	}
	c.check(compared > 0, "no job ran in both the %s and the %s window", labelA, labelB)
	return compared
}
