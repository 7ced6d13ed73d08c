package serv

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// testSpec is a valid tiny spec: the facebook preset floors at 64 nodes,
// so validation passes and (in the real-executor tests) cells run fast.
func testSpec() Spec {
	cautious := 4 // the 64-node floor graph lacks candidates for the default 10
	return Spec{
		Preset:   "facebook",
		Scale:    0.001,
		Cautious: &cautious,
		Policies: []PolicySpec{{Name: "random"}, {Name: "maxdegree"}},
		Networks: 2,
		Runs:     2,
		K:        3,
		Seed:     42,
		Workers:  1,
	}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// waitState polls until the job reaches the wanted state.
func waitState(t *testing.T, s *Server, id string, want State) Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		j, err := s.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if j.State == want {
			return j
		}
		time.Sleep(2 * time.Millisecond)
	}
	j, _ := s.Get(id)
	t.Fatalf("job %s: state %s, want %s (error %q)", id, j.State, want, j.Error)
	return Job{}
}

// instantOK is an execute stub that succeeds immediately.
func instantOK(context.Context, *entry) (*Result, error) {
	return &Result{Digest: "stub"}, nil
}

// blockUntilCancel is an execute stub that parks until the job context is
// cancelled (by client cancel or drain).
func blockUntilCancel(ctx context.Context, _ *entry) (*Result, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

func TestSubmitAssignsIDAndPersists(t *testing.T) {
	s := newTestServer(t, Config{})
	job, err := s.Submit(SubmitRequest{Spec: testSpec()})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if job.ID != "j000000" {
		t.Errorf("auto ID = %q, want j000000", job.ID)
	}
	if job.State != StateQueued {
		t.Errorf("state = %s, want queued", job.State)
	}
	if job.Tenant != "default" {
		t.Errorf("tenant = %q, want default", job.Tenant)
	}
	if want := int64(8); job.Progress.Total != want { // 2 nets × 2 runs × 2 policies
		t.Errorf("total = %d, want %d", job.Progress.Total, want)
	}
	if _, err := os.Stat(s.store.jobPath(job.ID)); err != nil {
		t.Errorf("job document not persisted: %v", err)
	}
}

func TestSubmitRejectsInvalid(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  SubmitRequest
	}{
		{"bad id", SubmitRequest{ID: "Bad-ID", Spec: testSpec()}},
		{"unknown preset", SubmitRequest{Spec: func() Spec { sp := testSpec(); sp.Preset = "nope"; return sp }()}},
		{"no policies", SubmitRequest{Spec: func() Spec { sp := testSpec(); sp.Policies = nil; return sp }()}},
		{"unknown policy", SubmitRequest{Spec: func() Spec {
			sp := testSpec()
			sp.Policies = []PolicySpec{{Name: "oracle"}}
			return sp
		}()}},
		{"duplicate policy", SubmitRequest{Spec: func() Spec {
			sp := testSpec()
			sp.Policies = []PolicySpec{{Name: "random"}, {Name: "random"}}
			return sp
		}()}},
		{"zero runs", SubmitRequest{Spec: func() Spec { sp := testSpec(); sp.Runs = 0; return sp }()}},
	}
	for _, tc := range cases {
		if _, err := s.Submit(tc.req); err == nil {
			t.Errorf("%s: Submit accepted, want error", tc.name)
		}
	}
}

func TestDuplicateSubmit(t *testing.T) {
	s := newTestServer(t, Config{})
	if _, err := s.Submit(SubmitRequest{ID: "mine", Spec: testSpec()}); err != nil {
		t.Fatalf("first Submit: %v", err)
	}
	_, err := s.Submit(SubmitRequest{ID: "mine", Spec: testSpec()})
	if !errors.Is(err, ErrDuplicateJob) {
		t.Fatalf("second Submit err = %v, want ErrDuplicateJob", err)
	}
	if got := counterValue(t, s, "serv.duplicate_rejections"); got != 1 {
		t.Errorf("duplicate_rejections = %v, want 1", got)
	}
}

// counterValue reads one counter from the server registry snapshot.
func counterValue(t *testing.T, s *Server, name string) int64 {
	t.Helper()
	for _, c := range s.Registry().Snapshot().Counters {
		if c.Name == name {
			return c.Value
		}
	}
	t.Fatalf("counter %s not in snapshot", name)
	return 0
}

func TestQuotaExceeded(t *testing.T) {
	s := newTestServer(t, Config{
		DefaultQuota: 2,
		TenantQuotas: map[string]int{"vip": 3},
	})
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(SubmitRequest{Spec: testSpec()}); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	_, err := s.Submit(SubmitRequest{Spec: testSpec()})
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("third Submit err = %v, want ErrQuotaExceeded", err)
	}
	// Another tenant's quota is independent, and an override applies.
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(SubmitRequest{Tenant: "vip", Spec: testSpec()}); err != nil {
			t.Fatalf("vip Submit %d: %v", i, err)
		}
	}
	if _, err := s.Submit(SubmitRequest{Tenant: "vip", Spec: testSpec()}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("vip overflow err = %v, want ErrQuotaExceeded", err)
	}
	if got := counterValue(t, s, "serv.quota_rejections"); got != 2 {
		t.Errorf("quota_rejections = %v, want 2", got)
	}
}

func TestQuotaSlotFreedByTerminal(t *testing.T) {
	s := newTestServer(t, Config{DefaultQuota: 1})
	s.execute = instantOK
	job, err := s.Submit(SubmitRequest{Spec: testSpec()})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := s.Submit(SubmitRequest{Spec: testSpec()}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota Submit err = %v, want ErrQuotaExceeded", err)
	}
	s.Start()
	defer drain(t, s)
	waitState(t, s, job.ID, StateDone)
	if _, err := s.Submit(SubmitRequest{Spec: testSpec()}); err != nil {
		t.Fatalf("Submit after completion: %v, want quota slot freed", err)
	}
}

func drain(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

func TestLifecycleDone(t *testing.T) {
	s := newTestServer(t, Config{})
	s.execute = func(ctx context.Context, e *entry) (*Result, error) {
		e.done.Store(8)
		return &Result{Records: 8, Digest: "abc"}, nil
	}
	s.Start()
	defer drain(t, s)
	job, err := s.Submit(SubmitRequest{Spec: testSpec()})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	done := waitState(t, s, job.ID, StateDone)
	if done.Result == nil || done.Result.Digest != "abc" {
		t.Fatalf("Result = %+v, want digest abc", done.Result)
	}
	if done.Progress.Done != 8 {
		t.Errorf("Progress.Done = %d, want 8", done.Progress.Done)
	}
	if done.Attempt != 1 {
		t.Errorf("Attempt = %d, want 1", done.Attempt)
	}
	if done.StartedAt == nil || done.FinishedAt == nil {
		t.Errorf("StartedAt/FinishedAt not set: %+v", done)
	}
}

func TestRetryThenSucceed(t *testing.T) {
	s := newTestServer(t, Config{DefaultMaxAttempts: 3})
	var attempts int
	var mu sync.Mutex
	s.execute = func(ctx context.Context, e *entry) (*Result, error) {
		mu.Lock()
		attempts++
		n := attempts
		mu.Unlock()
		if n == 1 {
			return nil, errors.New("transient fault")
		}
		return &Result{Digest: "ok"}, nil
	}
	s.Start()
	defer drain(t, s)
	job, err := s.Submit(SubmitRequest{Spec: testSpec()})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	done := waitState(t, s, job.ID, StateDone)
	if done.Attempt != 2 {
		t.Errorf("Attempt = %d, want 2 (one retry)", done.Attempt)
	}
	if done.Error != "" {
		t.Errorf("Error = %q, want cleared after successful retry", done.Error)
	}
	if got := counterValue(t, s, "serv.jobs_retried"); got != 1 {
		t.Errorf("jobs_retried = %v, want 1", got)
	}
}

func TestRetriesExhaustedFails(t *testing.T) {
	s := newTestServer(t, Config{})
	s.execute = func(context.Context, *entry) (*Result, error) {
		return nil, errors.New("permanent fault")
	}
	s.Start()
	defer drain(t, s)
	job, err := s.Submit(SubmitRequest{MaxAttempts: 2, Spec: testSpec()})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	failed := waitState(t, s, job.ID, StateFailed)
	if failed.Attempt != 2 {
		t.Errorf("Attempt = %d, want 2", failed.Attempt)
	}
	if failed.Error != "permanent fault" {
		t.Errorf("Error = %q, want permanent fault", failed.Error)
	}
}

func TestCancelQueued(t *testing.T) {
	s := newTestServer(t, Config{}) // workers never started: stays queued
	job, err := s.Submit(SubmitRequest{Spec: testSpec()})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	got, err := s.Cancel(job.ID)
	if err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if got.State != StateCancelled {
		t.Errorf("state = %s, want cancelled", got.State)
	}
	// The quota slot is back.
	if len(s.tenantActive) != 0 {
		t.Errorf("tenantActive = %v, want empty", s.tenantActive)
	}
}

func TestCancelRunning(t *testing.T) {
	s := newTestServer(t, Config{})
	s.execute = blockUntilCancel
	s.Start()
	defer drain(t, s)
	job, err := s.Submit(SubmitRequest{Spec: testSpec()})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, s, job.ID, StateRunning)
	if _, err := s.Cancel(job.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	got := waitState(t, s, job.ID, StateCancelled)
	if got.FinishedAt == nil {
		t.Error("FinishedAt not set on cancelled job")
	}
}

func TestCancelTerminalConflicts(t *testing.T) {
	s := newTestServer(t, Config{})
	s.execute = instantOK
	s.Start()
	defer drain(t, s)
	job, err := s.Submit(SubmitRequest{Spec: testSpec()})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, s, job.ID, StateDone)
	if _, err := s.Cancel(job.ID); !errors.Is(err, ErrConflict) {
		t.Fatalf("Cancel done job err = %v, want ErrConflict", err)
	}
	if _, err := s.Cancel("nosuch"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Cancel unknown job err = %v, want ErrNotFound", err)
	}
}

func TestResumeFailedJob(t *testing.T) {
	s := newTestServer(t, Config{})
	var fail = true
	var mu sync.Mutex
	s.execute = func(context.Context, *entry) (*Result, error) {
		mu.Lock()
		f := fail
		mu.Unlock()
		if f {
			return nil, errors.New("boom")
		}
		return &Result{Digest: "recovered"}, nil
	}
	s.Start()
	defer drain(t, s)
	job, err := s.Submit(SubmitRequest{Spec: testSpec()})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, s, job.ID, StateFailed)

	if _, err := s.Resume("nosuch"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Resume unknown err = %v, want ErrNotFound", err)
	}
	mu.Lock()
	fail = false
	mu.Unlock()
	resumed, err := s.Resume(job.ID)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if resumed.State != StateQueued || resumed.Attempt != 0 {
		t.Errorf("resumed job = state %s attempt %d, want queued/0", resumed.State, resumed.Attempt)
	}
	done := waitState(t, s, job.ID, StateDone)
	if done.Result == nil || done.Result.Digest != "recovered" {
		t.Fatalf("Result = %+v, want digest recovered", done.Result)
	}
	if _, err := s.Resume(job.ID); !errors.Is(err, ErrConflict) {
		t.Fatalf("Resume done job err = %v, want ErrConflict", err)
	}
}

func TestPriorityOrdering(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	var mu sync.Mutex
	var order []string
	s.execute = func(_ context.Context, e *entry) (*Result, error) {
		mu.Lock()
		order = append(order, e.job.ID)
		mu.Unlock()
		return &Result{}, nil
	}
	// Enqueue before starting the worker so priorities decide the order.
	submit := func(id string, prio int) {
		t.Helper()
		if _, err := s.Submit(SubmitRequest{ID: id, Priority: prio, Spec: testSpec()}); err != nil {
			t.Fatalf("Submit %s: %v", id, err)
		}
	}
	submit("low", 0)
	submit("high_a", 5)
	submit("mid", 2)
	submit("high_b", 5) // same class as high_a: FIFO within it
	s.Start()
	defer drain(t, s)
	for _, id := range []string{"low", "high_a", "mid", "high_b"} {
		waitState(t, s, id, StateDone)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"high_a", "high_b", "mid", "low"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("execution order = %v, want %v", order, want)
	}
}

func TestDrainPreemptsAndRequeues(t *testing.T) {
	s := newTestServer(t, Config{})
	s.execute = blockUntilCancel
	s.Start()
	job, err := s.Submit(SubmitRequest{Spec: testSpec()})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, s, job.ID, StateRunning)
	drain(t, s)

	got, err := s.Get(job.ID)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got.State != StateQueued {
		t.Errorf("state after drain = %s, want queued (preempted, not failed)", got.State)
	}
	if got.Attempt != 0 {
		t.Errorf("Attempt after drain = %d, want 0 (drain does not consume attempts)", got.Attempt)
	}
	if _, err := s.Submit(SubmitRequest{Spec: testSpec()}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit while draining err = %v, want ErrDraining", err)
	}
	if _, err := s.Resume(job.ID); !errors.Is(err, ErrConflict) {
		// queued is not resumable — and must not be corrupted by the call.
		t.Fatalf("Resume queued err = %v, want ErrConflict", err)
	}
}

func TestRestartRecoversCrashedRunningJob(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{Dir: dir})
	job, err := s.Submit(SubmitRequest{Spec: testSpec()})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Simulate a crash mid-run: the document says running, the process is
	// gone (no Drain, no transition).
	s.mu.Lock()
	e := s.jobs[job.ID]
	e.job.State = StateRunning
	e.job.Attempt = 1
	if err := s.store.saveJob(&e.job); err != nil {
		t.Fatalf("saveJob: %v", err)
	}
	s.mu.Unlock()

	s2 := newTestServer(t, Config{Dir: dir})
	got, err := s2.Get(job.ID)
	if err != nil {
		t.Fatalf("Get after restart: %v", err)
	}
	if got.State != StateQueued {
		t.Errorf("recovered state = %s, want queued", got.State)
	}
	if got.Attempt != 0 {
		t.Errorf("recovered Attempt = %d, want 0 (crash requeue is free)", got.Attempt)
	}
	// And it executes to completion on the new server.
	s2.execute = instantOK
	s2.Start()
	defer drain(t, s2)
	waitState(t, s2, job.ID, StateDone)
	// Sequence numbering continues past the recovered job.
	next, err := s2.Submit(SubmitRequest{Spec: testSpec()})
	if err != nil {
		t.Fatalf("Submit on restarted server: %v", err)
	}
	if next.Seq <= got.Seq {
		t.Errorf("next Seq = %d, want > %d", next.Seq, got.Seq)
	}
}

func TestConcurrentSubmitters(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4})
	s.execute = instantOK
	s.Start()
	defer drain(t, s)

	const submitters, each = 8, 10
	var wg sync.WaitGroup
	errs := make(chan error, submitters*each)
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for j := 0; j < each; j++ {
				if _, err := s.Submit(SubmitRequest{Tenant: tenant, Spec: testSpec()}); err != nil {
					errs <- err
				}
			}
		}(fmt.Sprintf("t%d", i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent Submit: %v", err)
	}
	jobs := s.List("", "")
	if len(jobs) != submitters*each {
		t.Fatalf("List: %d jobs, want %d", len(jobs), submitters*each)
	}
	seen := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		if seen[j.ID] {
			t.Fatalf("duplicate auto-assigned ID %s", j.ID)
		}
		seen[j.ID] = true
	}
	for _, j := range jobs {
		waitState(t, s, j.ID, StateDone)
	}
}

func TestDrainLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	s := newTestServer(t, Config{Workers: 4})
	s.execute = blockUntilCancel
	s.Start()
	for i := 0; i < 6; i++ { // more jobs than workers: some stay queued
		if _, err := s.Submit(SubmitRequest{Spec: testSpec()}); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	drain(t, s)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("second Drain (idempotency): %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines: %d before, %d after drain; stacks:\n%s",
		before, runtime.NumGoroutine(), buf[:n])
}

func TestListFilters(t *testing.T) {
	s := newTestServer(t, Config{})
	for i, tenant := range []string{"alpha", "alpha", "beta"} {
		if _, err := s.Submit(SubmitRequest{ID: fmt.Sprintf("job%d", i), Tenant: tenant, Spec: testSpec()}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	if _, err := s.Cancel("job0"); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if got := len(s.List("", "")); got != 3 {
		t.Errorf("List all = %d, want 3", got)
	}
	if got := len(s.List(StateQueued, "")); got != 2 {
		t.Errorf("List queued = %d, want 2", got)
	}
	if got := len(s.List("", "alpha")); got != 2 {
		t.Errorf("List alpha = %d, want 2", got)
	}
	if got := len(s.List(StateQueued, "alpha")); got != 1 {
		t.Errorf("List queued+alpha = %d, want 1", got)
	}
	// Submission order.
	all := s.List("", "")
	for i := 1; i < len(all); i++ {
		if all[i-1].Seq >= all[i].Seq {
			t.Errorf("List not in Seq order: %v", all)
		}
	}
}

func TestMetricsMerge(t *testing.T) {
	s := newTestServer(t, Config{})
	s.execute = func(_ context.Context, e *entry) (*Result, error) {
		e.reg.Counter("sim.cells").Add(4)
		return &Result{}, nil
	}
	s.Start()
	defer drain(t, s)
	job, err := s.Submit(SubmitRequest{ID: "metricjob", Spec: testSpec()})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, s, job.ID, StateDone)

	snap, err := s.Metrics("")
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	var foundServ, foundJob bool
	for _, c := range snap.Counters {
		switch c.Name {
		case "serv.jobs_completed":
			foundServ = c.Value == 1
		case "job.metricjob.sim.cells":
			foundJob = c.Value == 4
		}
	}
	if !foundServ || !foundJob {
		t.Errorf("merged snapshot missing serv/job counters (serv %v, job %v): %+v", foundServ, foundJob, snap.Counters)
	}

	jobSnap, err := s.Metrics("metricjob")
	if err != nil {
		t.Fatalf("Metrics(job): %v", err)
	}
	var unprefixed bool
	for _, c := range jobSnap.Counters {
		if c.Name == "sim.cells" && c.Value == 4 {
			unprefixed = true
		}
	}
	if !unprefixed {
		t.Errorf("job snapshot missing unprefixed sim.cells: %+v", jobSnap.Counters)
	}
	if _, err := s.Metrics("nosuch"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Metrics(unknown) err = %v, want ErrNotFound", err)
	}
}

func TestFinishedRegistriesBounded(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	release := make(chan struct{})
	var resumedRuns sync.Map // job id → true once its first attempt failed
	s.execute = func(ctx context.Context, e *entry) (*Result, error) {
		e.reg.Counter("sim.cells").Add(1)
		if e.job.ID != "resumed" {
			return &Result{}, nil
		}
		if _, again := resumedRuns.LoadOrStore(e.job.ID, true); !again {
			return nil, errors.New("first attempt fails")
		}
		select {
		case <-release:
			return &Result{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s.Start()
	defer drain(t, s)

	// "resumed" enters the window as failed, then runs again (parked on
	// release) while every later job finishes past it.
	if _, err := s.Submit(SubmitRequest{ID: "resumed", Spec: testSpec()}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, s, "resumed", StateFailed)
	if _, err := s.Resume("resumed"); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	waitState(t, s, "resumed", StateRunning)

	const jobs = retainedRegistries + 6
	ids := make([]string, jobs)
	for i := range ids {
		ids[i] = fmt.Sprintf("j_%02d", i)
		if _, err := s.Submit(SubmitRequest{ID: ids[i], Spec: testSpec()}); err != nil {
			t.Fatalf("Submit %s: %v", ids[i], err)
		}
	}
	for _, id := range ids {
		waitState(t, s, id, StateDone)
	}

	counters := func(id string) int {
		t.Helper()
		snap, err := s.Metrics(id)
		if err != nil {
			t.Fatalf("Metrics(%s): %v", id, err)
		}
		return len(snap.Counters)
	}
	jobPrefixes := func() int {
		t.Helper()
		snap, err := s.Metrics("")
		if err != nil {
			t.Fatalf("Metrics: %v", err)
		}
		seen := map[string]bool{}
		for _, c := range snap.Counters {
			if rest, ok := strings.CutPrefix(c.Name, "job."); ok {
				seen[rest[:strings.IndexByte(rest, '.')]] = true
			}
		}
		return len(seen)
	}
	for i, id := range ids {
		if got, kept := counters(id), i >= jobs-retainedRegistries; (got > 0) != kept {
			t.Errorf("Metrics(%s) has %d counters, want registry kept = %v", id, got, kept)
		}
	}
	if counters("resumed") == 0 {
		t.Error("running resumed job lost its registry when it left the window")
	}
	if got := jobPrefixes(); got != retainedRegistries+1 {
		t.Errorf("Metrics(\"\") carries %d job prefixes, want %d finished + 1 running", got, retainedRegistries)
	}

	// Finishing again makes "resumed" the newest entry and pushes the
	// oldest kept job out.
	close(release)
	waitState(t, s, "resumed", StateDone)
	if counters("resumed") == 0 {
		t.Error("resumed job has no registry after finishing")
	}
	if got := counters(ids[jobs-retainedRegistries]); got != 0 {
		t.Errorf("Metrics(%s) has %d counters after a newer job finished, want 0", ids[jobs-retainedRegistries], got)
	}
	if got := jobPrefixes(); got > retainedRegistries {
		t.Errorf("Metrics(\"\") carries %d job prefixes, want <= %d", got, retainedRegistries)
	}
}
