// Command perfbench is the accu benchmark: it runs one workload of the
// paper's Monte-Carlo protocol end to end — locally, through the accuserv
// job service or over accudist — and prints every end-to-end metric (or,
// traced, every per-layer metric) followed by one JSON result line.
//
//	go run . --workload slashdot-1net --seed 1 --seconds 20 --trace 0
//	go run . --list
//
// Run it through run.sh from the repository root; see README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 5

// sliceStride spaces the job indices of a traced run's slice pairs.
const sliceStride = 1 << 16

// minJobs is the job floor of an untraced window: with 100 jobs, ten lie
// beyond p90 (the percentile rule).
const minJobs = 100

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		var ce checkError
		if errors.As(err, &ce) {
			os.Exit(1)
		}
		os.Exit(2)
	}
}

// checkError marks a run whose output checks failed; its result line is
// already printed.
type checkError struct{ failures []string }

func (e checkError) Error() string {
	return fmt.Sprintf("%d output check(s) failed; first: %s", len(e.failures), e.failures[0])
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	buildDir string
	list     bool
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload name (see --list)")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same jobs")
	fs.IntVar(&o.seconds, "seconds", 20, "length of the measured window")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced per-layer measurement")
	fs.StringVar(&o.buildDir, "build-dir", ".bench_build", "directory for data directories and trace files")
	fs.BoolVar(&o.list, "list", false, "print the workloads with their layer → end-to-end maps and exit")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if !o.list && (o.workload == "" || o.seconds < 1 || (o.trace != 0 && o.trace != 1)) {
		return o, fmt.Errorf("need --workload, --seconds >= 1 and --trace 0|1")
	}
	return o, nil
}

// stamp records the machine and run a measurement came from.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Trace      int    `json:"trace"`
	NumCPU     int    `json:"numCpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	DataFS     string `json:"dataFs"`
	Threads    int    `json:"computeThreads"`
}

func run(args []string, stdout, stderr io.Writer) error {
	o, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	if o.list {
		listWorkloads(stdout)
		return nil
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	nproc := runtime.NumCPU()
	engine := nproc
	threads := w.threads(engine)
	// Load guard (simbench -strict's rule): more compute threads than
	// CPUs would measure time-slicing, not the program.
	if threads > nproc || w.clients > nproc || runtime.GOMAXPROCS(0) < threads {
		return fmt.Errorf("workload %s needs %d compute threads and %d clients; nproc=%d GOMAXPROCS=%d: refusing an oversubscribed run",
			w.name, threads, w.clients, nproc, runtime.GOMAXPROCS(0))
	}
	dataRoot := filepath.Join(o.buildDir, "data")
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		return err
	}
	base, err := os.MkdirTemp(dataRoot, w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)
	st := stamp{Workload: w.name, Seed: o.seed, Trace: o.trace, NumCPU: nproc, GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), DataFS: fsType(base), Threads: threads}
	hdr, _ := json.Marshal(st)
	fmt.Fprintf(stdout, "machine %s\n", hdr)

	ops := &tally{}
	var d runner
	var sd *servRunner
	var dd *distRunner
	switch w.kind {
	case "grid":
		d = &gridRunner{w: w, seed: o.seed, engine: engine}
	case "serv":
		sd = &servRunner{w: w, seed: o.seed, engine: engine, base: base, ops: ops}
		d = sd
	case "dist":
		dd = &distRunner{w: w, seed: o.seed, engine: engine, base: base, ops: ops, coordM: map[string]int64{}}
		d = dd
	}
	ctx := context.Background()
	setupS, err := measureSetup(ctx, d, setupReps)
	if err != nil {
		return err
	}
	chk := &checker{ops: ops}
	dur := time.Duration(o.seconds) * time.Second
	maxDur := max(6*dur, 60*time.Second)
	// The whole run, set-up and checks included, must end well inside
	// three minutes.
	maxDur = min(maxDur, 120*time.Second)

	var metrics []metric
	if o.trace == 0 {
		win := runWindow(ctx, d, w.clients, dur, maxDur, minJobs, 0, nil)
		rss := peakRSSMB()
		ops.ops(int64(len(win.jobs)), int64(countFailed(win)))
		chk.checkJobs(ctx, win, "untraced", w.kind != "grid")
		// Re-run a few of the window's jobs traced: the trace must not
		// change what the program computes.
		traced := rerun(ctx, d, win, newRecorder())
		chk.checkAgree(win, traced, "untraced", "traced")
		printDigests(stdout, win, traced)
		if err := d.teardown(); err != nil {
			chk.check(false, "teardown: %v", err)
		}
		var recorded []metric
		metrics, recorded = e2eMetrics(win, setupS, setupReps, rss, ops)
		printTable(stdout, "end-to-end ("+w.name+", seed "+fmt.Sprint(o.seed)+")", append(metrics, recorded...))
	} else {
		// Alternate untraced and traced slices so drift in the machine's
		// speed does not masquerade as tracing overhead. Each pair starts
		// at the same job index, so both modes compute the same grids.
		rec := newRecorder()
		var plain, traced window
		slice := dur / 4
		for k := 0; k < 2; k++ {
			first := k * sliceStride
			plain = plain.merge(runWindow(ctx, d, w.clients, slice, maxDur/4, 0, first, nil))
			traced = traced.merge(runWindow(ctx, d, w.clients, slice, maxDur/4, 0, first, rec))
		}
		ops.ops(int64(len(plain.jobs)+len(traced.jobs)), int64(countFailed(plain)+countFailed(traced)))
		in := layerInput{w: w, traced: traced, untracedCPS: plain.cellsPerS(), threads: threads, rec: rec,
			reg: snapshotSums(rec.reg.Snapshot())}
		if sd != nil {
			for _, j := range traced.jobs {
				s, err := sd.jobStats(j)
				chk.check(err == nil, "job %d stats: %v", j.index, err)
				in.servJobs = append(in.servJobs, s)
			}
		}
		if dd != nil {
			in.distCoord = dd.coordM
		}
		in.spans = rec.all()
		chk.checkJobs(ctx, plain, "untraced", w.kind != "grid")
		chk.checkJobs(ctx, traced, "traced", w.kind != "grid")
		chk.checkAgree(plain, traced, "untraced", "traced")
		printDigests(stdout, plain, traced)
		if err := d.teardown(); err != nil {
			chk.check(false, "teardown: %v", err)
		}
		metrics = layerMetrics(in)
		printTable(stdout, "per-layer ("+w.name+", seed "+fmt.Sprint(o.seed)+", traced window)", metrics)
		printTable(stdout, "self time by span name (traced window)", selfTimes(in.spans))
		tdir := filepath.Join(o.buildDir, "traces")
		if err := os.MkdirAll(tdir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(tdir, fmt.Sprintf("%s-seed%d.jsonl.gz", w.name, o.seed))
		if err := writeSpans(path, st, in.spans); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(in.spans), path)
	}
	for _, f := range chk.failures {
		fmt.Fprintln(stdout, "CHECK FAILED:", f)
	}
	if err := printResult(stdout, len(chk.failures) == 0, ops, metrics); err != nil {
		return err
	}
	if len(chk.failures) > 0 {
		return checkError{chk.failures}
	}
	return nil
}

func countFailed(w window) int {
	n := 0
	for _, j := range w.jobs {
		if j.err != nil {
			n++
		}
	}
	return n
}

// rerun runs the first, middle and last job of win again with rec.
func rerun(ctx context.Context, d runner, win window, rec *recorder) window {
	var out window
	seen := map[int]bool{}
	for _, k := range []int{0, len(win.jobs) / 2, len(win.jobs) - 1} {
		if k < 0 || seen[win.jobs[k].index] {
			continue
		}
		seen[win.jobs[k].index] = true
		out.jobs = append(out.jobs, d.job(ctx, win.jobs[k].index, rec))
	}
	rec.all()
	return out
}

// printDigests prints the digests the mode check compared; no golden
// values are kept, so a documented re-baseline needs no benchmark edit.
func printDigests(w io.Writer, a, b window) {
	byIndex := map[int]string{}
	for _, j := range a.jobs {
		byIndex[j.index] = j.digest
	}
	for _, j := range b.jobs {
		if d, ok := byIndex[j.index]; ok {
			fmt.Fprintf(w, "digest job %d: untraced %s traced %s\n", j.index, d, j.digest)
		}
	}
}

// printResult prints the final JSON line.
func printResult(w io.Writer, correct bool, ops *tally, ms []metric) error {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := make(map[string]val, len(ms))
	for _, x := range ms {
		m[x.name] = val{Value: x.value, Unit: x.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{correct, ops.attempted.Load(), ops.failed.Load(), m})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func listWorkloads(w io.Writer) {
	for _, wl := range workloads {
		fmt.Fprintf(w, "%s (%s): %s\n", wl.name, wl.kind, wl.why)
		for _, l := range wl.moves {
			fmt.Fprintf(w, "  %-60s → %s\n", l.layer, l.metric)
		}
	}
}
