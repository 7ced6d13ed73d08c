// Package serv turns the batch Monte-Carlo engine into a long-running
// HTTP service: clients submit sim protocols as jobs into a persistent
// priority queue with per-tenant quotas, a worker pool executes them with
// per-job checkpoint journals (so a crashed or drained server resumes
// exactly where it stopped, bit-identically), progress streams out over
// SSE or polling, and an admin surface lists, cancels, resumes and
// observes jobs. cmd/accuserv is the binary wrapping this package.
//
// Durability model: the job documents (state, priority, attempts) and the
// per-job sim.CellJournal both live under one data directory. Every
// completed (network, run) cell is journaled before it counts, so the
// kill-anywhere guarantee of the PR-4 checkpoint machinery extends to the
// whole service — a SIGKILL mid-cell costs at most that cell's partial
// work, never correctness: the resumed job's record set (and therefore
// its result digest) is bit-identical to an uninterrupted run.
package serv

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/accu-sim/accu/internal/obs"
)

// Service errors, mapped onto HTTP statuses by the handlers.
var (
	// ErrDuplicateJob rejects a submit reusing an existing job ID.
	ErrDuplicateJob = errors.New("serv: duplicate job id")
	// ErrQuotaExceeded rejects a submit that would push the tenant past
	// its active-job quota.
	ErrQuotaExceeded = errors.New("serv: tenant quota exceeded")
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("serv: job not found")
	// ErrConflict reports an operation invalid in the job's state
	// (cancel a finished job, resume a running one, ...).
	ErrConflict = errors.New("serv: operation conflicts with job state")
	// ErrDraining rejects submits while the server shuts down.
	ErrDraining = errors.New("serv: server draining")
)

// Cancellation causes, distinguished via context.Cause so the runner can
// tell a client cancel (job → cancelled) from a drain preemption (job →
// queued, resumed by the next process).
var (
	errCancelJob = errors.New("serv: job cancelled by client")
	errDrainJob  = errors.New("serv: job preempted by drain")
)

// retainedRegistries bounds how many terminal jobs keep their job-scoped
// metrics registry for /metrics. A registry is most of a finished job's
// retained heap, so without the bound a long-lived server's memory grows
// with every job it completes.
const retainedRegistries = 64

// Config sizes the service.
type Config struct {
	// Dir is the persistent data directory (job documents and cell
	// journals).
	Dir string
	// Workers is the number of concurrent job executions (not to be
	// confused with Spec.Workers, the engine pool inside one job).
	// 0 means 1: jobs run strictly one at a time.
	Workers int
	// DefaultQuota bounds each tenant's active (queued + running) jobs;
	// 0 means unlimited. TenantQuotas overrides it per tenant.
	DefaultQuota int
	TenantQuotas map[string]int
	// DefaultMaxAttempts is the per-job attempt budget when a submit
	// does not set one; 0 means 1 (no automatic retry).
	DefaultMaxAttempts int
	// Logf, when non-nil, receives one line per lifecycle transition.
	Logf func(format string, args ...any)
}

// servMetrics are the server-scoped instruments (per-job engine metrics
// live in each job's own registry, surfaced via /metrics prefixed with
// "job.<id>.").
type servMetrics struct {
	submitted    *obs.Counter
	completed    *obs.Counter
	failed       *obs.Counter
	cancelled    *obs.Counter
	retried      *obs.Counter
	resumed      *obs.Counter
	requeued     *obs.Counter
	quotaRejects *obs.Counter
	dupRejects   *obs.Counter
	queued       *obs.Gauge
	running      *obs.Gauge
	jobNS        *obs.Histogram
}

func newServMetrics(reg *obs.Registry) servMetrics {
	return servMetrics{
		submitted:    reg.Counter("serv.jobs_submitted"),
		completed:    reg.Counter("serv.jobs_completed"),
		failed:       reg.Counter("serv.jobs_failed"),
		cancelled:    reg.Counter("serv.jobs_cancelled"),
		retried:      reg.Counter("serv.jobs_retried"),
		resumed:      reg.Counter("serv.jobs_resumed"),
		requeued:     reg.Counter("serv.jobs_requeued"),
		quotaRejects: reg.Counter("serv.quota_rejections"),
		dupRejects:   reg.Counter("serv.duplicate_rejections"),
		queued:       reg.Gauge("serv.jobs_queued"),
		running:      reg.Gauge("serv.jobs_running"),
		jobNS:        reg.Histogram("serv.job_ns"),
	}
}

// Server is the job-queue service. Create with New, start the worker
// pool with Start, wire Handler into an http.Server, and stop with
// Drain.
type Server struct {
	cfg   Config
	store *store
	reg   *obs.Registry
	m     servMetrics

	mu           sync.Mutex
	cond         *sync.Cond
	jobs         map[string]*entry
	queue        entryHeap
	tenantActive map[string]int
	runningCount int
	seq          int64
	draining     bool
	// finished lists, oldest first, the jobs that keep their registry
	// after finishing; finishLocked keeps it at most retainedRegistries
	// long.
	finished []*entry

	workersWG sync.WaitGroup

	// execute runs one claimed job and returns its result; swapped by
	// lifecycle tests to script outcomes without real simulations. The
	// default is (*Server).executeJob.
	execute func(ctx context.Context, e *entry) (*Result, error)
}

// New opens (or creates) the data directory, loads every persisted job
// and requeues the ones a previous process left queued or running —
// running jobs are the crash case and resume from their checkpoints
// without consuming an attempt.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.DefaultMaxAttempts <= 0 {
		cfg.DefaultMaxAttempts = 1
	}
	st, err := openStore(cfg.Dir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:          cfg,
		store:        st,
		reg:          obs.New(),
		jobs:         make(map[string]*entry),
		tenantActive: make(map[string]int),
	}
	s.cond = sync.NewCond(&s.mu)
	s.m = newServMetrics(s.reg)
	s.execute = s.executeJob

	jobs, err := st.loadJobs()
	if err != nil {
		return nil, err
	}
	for i := range jobs {
		j := jobs[i]
		e := &entry{job: j, heapIndex: -1, hub: newHub()}
		if j.State == StateRunning {
			// Crash recovery: the previous process died mid-run. The cell
			// journal holds the completed cells; requeue without burning
			// an attempt.
			e.job.State = StateQueued
			if e.job.Attempt > 0 {
				e.job.Attempt--
			}
			if err := st.saveJob(&e.job); err != nil {
				return nil, err
			}
			s.m.requeued.Inc()
			s.logf("job %s: recovered running job, requeued (attempt %d/%d)",
				j.ID, e.job.Attempt, e.job.MaxAttempts)
		}
		if e.job.State.terminal() {
			e.hub.close()
		}
		s.jobs[j.ID] = e
		if e.job.State == StateQueued {
			heap.Push(&s.queue, e)
			s.tenantActive[j.Tenant]++
		}
		if j.Seq >= s.seq {
			s.seq = j.Seq + 1
		}
	}
	s.updateGauges()
	return s, nil
}

// Registry exposes the server-scoped metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Start launches the worker pool. Call once.
func (s *Server) Start() {
	s.workersWG.Add(s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go s.workerLoop()
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// updateGauges refreshes the queue-depth gauges; callers hold s.mu.
func (s *Server) updateGauges() {
	s.m.queued.Set(float64(s.queue.Len()))
	s.m.running.Set(float64(s.runningCount))
}

// SubmitRequest is the POST /api/v1/jobs payload.
//
//accu:wire
type SubmitRequest struct {
	// ID, when set, names the job (lowercase [a-z0-9_], ≤ 64 chars); a
	// resubmission of an existing ID is rejected with ErrDuplicateJob,
	// which is the idempotency handle. Empty auto-assigns "j<seq>".
	ID string `json:"id,omitempty"`
	// Tenant attributes the job for quota accounting ("default" when
	// empty; the X-Accu-Tenant header also sets it).
	Tenant string `json:"tenant,omitempty"`
	// Priority orders the queue: higher first, FIFO within a class.
	Priority int `json:"priority,omitempty"`
	// MaxAttempts bounds automatic retries of failed executions; 0 uses
	// the server default.
	MaxAttempts int  `json:"maxAttempts,omitempty"`
	Spec        Spec `json:"spec"`
}

// Submit validates and enqueues a job, returning its document.
func (s *Server) Submit(req SubmitRequest) (Job, error) {
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	if req.ID != "" && !ValidJobID(req.ID) {
		return Job{}, fmt.Errorf("serv: invalid job id %q (want lowercase [a-z0-9_], max 64 chars)", req.ID)
	}
	if err := req.Spec.Validate(); err != nil {
		return Job{}, err
	}
	maxAttempts := req.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = s.cfg.DefaultMaxAttempts
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return Job{}, ErrDraining
	}
	id := req.ID
	if id == "" {
		id = fmt.Sprintf("j%06d", s.seq)
	}
	if _, ok := s.jobs[id]; ok {
		s.m.dupRejects.Inc()
		return Job{}, fmt.Errorf("%w: %s", ErrDuplicateJob, id)
	}
	if limit, ok := s.quota(req.Tenant); ok && s.tenantActive[req.Tenant] >= limit {
		s.m.quotaRejects.Inc()
		return Job{}, fmt.Errorf("%w: tenant %s has %d active jobs (limit %d)",
			ErrQuotaExceeded, req.Tenant, s.tenantActive[req.Tenant], limit)
	}
	e := &entry{
		job: Job{
			ID:          id,
			Tenant:      req.Tenant,
			Priority:    req.Priority,
			Seq:         s.seq,
			Spec:        req.Spec,
			State:       StateQueued,
			MaxAttempts: maxAttempts,
			SubmittedAt: time.Now().UTC(),
			Progress:    Progress{Total: req.Spec.Cells()},
		},
		heapIndex: -1,
		hub:       newHub(),
	}
	if err := s.store.saveJob(&e.job); err != nil { //accu:allow lockedio -- durability-before-signal: the job document must hit disk before the ID is visible
		return Job{}, err
	}
	s.seq++
	s.jobs[id] = e
	s.tenantActive[req.Tenant]++
	heap.Push(&s.queue, e)
	s.m.submitted.Inc()
	s.updateGauges()
	s.cond.Signal()
	s.logf("job %s: submitted by %s (priority %d, %d cells)", id, req.Tenant, req.Priority, e.job.Progress.Total)
	return e.job, nil
}

// quota resolves a tenant's active-job limit.
func (s *Server) quota(tenant string) (int, bool) {
	if q, ok := s.cfg.TenantQuotas[tenant]; ok {
		return q, q > 0
	}
	return s.cfg.DefaultQuota, s.cfg.DefaultQuota > 0
}

// Get returns a job's document; running jobs carry live progress.
func (s *Server) Get(id string) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.jobs[id]
	if !ok {
		return Job{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return s.view(e), nil
}

// List returns every job (optionally filtered by state and/or tenant) in
// submission order.
func (s *Server) List(state State, tenant string) []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.jobs))
	for _, e := range s.jobs {
		if state != "" && e.job.State != state {
			continue
		}
		if tenant != "" && e.job.Tenant != tenant {
			continue
		}
		out = append(out, s.view(e))
	}
	sortJobs(out)
	return out
}

// view snapshots a job document with live progress; callers hold s.mu.
func (s *Server) view(e *entry) Job {
	j := e.job // value copy; Result pointer shared but immutable once set
	if j.State == StateRunning {
		j.Progress.Done = e.done.Load()
		j.Progress.Resumed = e.resumed.Load()
	}
	return j
}

// Cancel stops a job: a queued job is cancelled immediately, a running
// one is interrupted (its cancellation is observed asynchronously; the
// checkpoint keeps its completed cells for a later Resume). Terminal jobs
// conflict.
func (s *Server) Cancel(id string) (Job, error) {
	s.mu.Lock()
	e, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return Job{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	switch e.job.State {
	case StateQueued:
		heap.Remove(&s.queue, e.heapIndex)
		s.finishLocked(e, StateCancelled, "cancelled by client") //accu:allow lockedio -- durability-before-signal: the terminal state persists before waiters wake
		job := s.view(e)
		s.mu.Unlock()
		return job, nil
	case StateRunning:
		e.cancel(errCancelJob)
		job := s.view(e)
		s.mu.Unlock()
		return job, nil
	default:
		job := s.view(e)
		s.mu.Unlock()
		return job, fmt.Errorf("%w: job %s is %s", ErrConflict, id, job.State)
	}
}

// Resume requeues a failed or cancelled job with a fresh attempt budget;
// its checkpoint journal is picked up where it left off.
func (s *Server) Resume(id string) (Job, error) {
	s.mu.Lock()
	e, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return Job{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if st := e.job.State; st != StateFailed && st != StateCancelled {
		job := s.view(e)
		s.mu.Unlock()
		return job, fmt.Errorf("%w: job %s is %s, resume applies to failed or cancelled jobs", ErrConflict, id, st)
	}
	if s.draining {
		s.mu.Unlock()
		return Job{}, ErrDraining
	}
	e.job.State = StateQueued
	e.job.Attempt = 0
	e.job.Error = ""
	e.job.FinishedAt = nil
	e.hub = newHub()                                // the old hub closed at the terminal transition
	if err := s.store.saveJob(&e.job); err != nil { //accu:allow lockedio -- durability-before-signal: the requeued attempt persists before the queue signals
		s.mu.Unlock()
		return Job{}, err
	}
	s.tenantActive[e.job.Tenant]++
	heap.Push(&s.queue, e)
	s.m.resumed.Inc()
	s.updateGauges()
	s.cond.Signal()
	job := s.view(e)
	s.mu.Unlock()
	s.logf("job %s: resumed from checkpoint", id)
	return job, nil
}

// Metrics returns the merged observability snapshot: server-scoped
// instruments plus every job's registry prefixed "job.<id>.". Only
// running jobs and the retainedRegistries most recently finished ones
// still hold a registry. With a non-empty jobID only that job's registry
// is returned (unprefixed), or an empty snapshot if it has none.
func (s *Server) Metrics(jobID string) (*obs.Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if jobID != "" {
		e, ok := s.jobs[jobID]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, jobID)
		}
		if e.reg == nil {
			return &obs.Snapshot{}, nil
		}
		return e.reg.Snapshot(), nil
	}
	snap := s.reg.Snapshot()
	for id, e := range s.jobs {
		if e.reg == nil {
			continue
		}
		snap = snap.Merge(e.reg.Snapshot().Prefixed("job." + id + "."))
	}
	return snap, nil
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully stops the worker pool: no new claims, running jobs
// are preempted (they checkpoint at cell granularity and requeue without
// consuming an attempt), and every SSE stream is closed. It returns when
// the pool has stopped or ctx expires. Idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		for _, e := range s.jobs {
			if e.job.State == StateRunning && e.cancel != nil {
				e.cancel(errDrainJob)
			}
		}
		s.cond.Broadcast()
	}
	s.mu.Unlock()

	stopped := make(chan struct{})
	go func() {
		s.workersWG.Wait()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.mu.Lock()
	for _, e := range s.jobs {
		e.hub.close()
	}
	s.mu.Unlock()
	return nil
}

// workerLoop claims and executes jobs until drain.
func (s *Server) workerLoop() {
	defer s.workersWG.Done()
	for {
		e, ctx, cancel := s.claim()
		if e == nil {
			return
		}
		s.runJob(e, ctx, cancel)
	}
}

// claim blocks until a job is available (or drain begins) and moves it
// queued → running.
func (s *Server) claim() (*entry, context.Context, context.CancelCauseFunc) {
	s.mu.Lock()
	for !s.draining && s.queue.Len() == 0 {
		s.cond.Wait()
	}
	if s.draining {
		s.mu.Unlock()
		return nil, nil, nil
	}
	e := heap.Pop(&s.queue).(*entry)
	ctx, cancel := context.WithCancelCause(context.Background())
	e.cancel = cancel
	e.job.State = StateRunning
	e.job.Attempt++
	now := time.Now().UTC()
	e.job.StartedAt = &now
	e.job.Error = ""
	e.reg = obs.New() // fresh per attempt: /metrics reflects the live run
	e.done.Store(0)
	e.resumed.Store(0)
	s.runningCount++
	if err := s.store.saveJob(&e.job); err != nil { //accu:allow lockedio -- durability-before-signal: the claim persists before the job is handed to a runner
		// The document could not be made durable; running it anyway would
		// desynchronize disk and memory. Fail the job in memory and keep
		// serving.
		s.logf("job %s: persist claim: %v", e.job.ID, err)
	}
	s.updateGauges()
	hub := e.hub
	job := e.job
	s.mu.Unlock()
	hub.publish(Event{Type: "state", JobID: job.ID, State: StateRunning})
	s.logf("job %s: claimed (attempt %d/%d)", job.ID, job.Attempt, job.MaxAttempts)
	return e, ctx, cancel
}

// runJob executes one claimed job and applies the outcome transition.
func (s *Server) runJob(e *entry, ctx context.Context, cancel context.CancelCauseFunc) {
	span := obs.StartSpan(s.m.jobNS)
	res, err := s.execute(ctx, e)
	span.End()
	cause := context.Cause(ctx)
	cancel(nil) // release the context's resources; cause is already set

	s.mu.Lock()
	e.cancel = nil
	s.runningCount--
	e.job.Progress.Done = e.done.Load()
	e.job.Progress.Resumed = e.resumed.Load()
	switch {
	case err == nil:
		e.job.Result = res
		s.finishLocked(e, StateDone, "") //accu:allow lockedio -- durability-before-signal: the terminal state persists before waiters wake
	case errors.Is(cause, errCancelJob):
		s.finishLocked(e, StateCancelled, "cancelled by client") //accu:allow lockedio -- durability-before-signal: the terminal state persists before waiters wake
	case errors.Is(cause, errDrainJob):
		// Preempted, not failed: requeue for the next process without
		// consuming an attempt. The checkpoint holds the completed cells.
		e.job.State = StateQueued
		e.job.Attempt--
		e.job.StartedAt = nil
		if perr := s.store.saveJob(&e.job); perr != nil { //accu:allow lockedio -- durability-before-signal: the requeue persists before the queue signals
			s.logf("job %s: persist requeue: %v", e.job.ID, perr)
		}
		heap.Push(&s.queue, e)
		s.m.requeued.Inc()
		s.logf("job %s: drained, requeued", e.job.ID)
	case e.job.Attempt < e.job.MaxAttempts:
		e.job.State = StateQueued
		e.job.Error = err.Error()
		if perr := s.store.saveJob(&e.job); perr != nil { //accu:allow lockedio -- durability-before-signal: the retry persists before the queue signals
			s.logf("job %s: persist retry: %v", e.job.ID, perr)
		}
		heap.Push(&s.queue, e)
		s.m.retried.Inc()
		s.cond.Signal()
		s.logf("job %s: attempt %d/%d failed, retrying: %v", e.job.ID, e.job.Attempt, e.job.MaxAttempts, err)
	default:
		s.finishLocked(e, StateFailed, err.Error()) //accu:allow lockedio -- durability-before-signal: the terminal state persists before waiters wake
	}
	s.updateGauges()
	s.mu.Unlock()
}

// finishLocked applies a terminal transition: persist, account the
// tenant's quota slot back, count, publish the final event and close the
// job's hub. Callers hold s.mu.
func (s *Server) finishLocked(e *entry, st State, errMsg string) {
	e.job.State = st
	e.job.Error = errMsg
	now := time.Now().UTC()
	e.job.FinishedAt = &now
	if err := s.store.saveJob(&e.job); err != nil {
		s.logf("job %s: persist %s: %v", e.job.ID, st, err)
	}
	s.tenantActive[e.job.Tenant]--
	if s.tenantActive[e.job.Tenant] <= 0 {
		delete(s.tenantActive, e.job.Tenant)
	}
	switch st {
	case StateDone:
		s.m.completed.Inc()
	case StateFailed:
		s.m.failed.Inc()
	case StateCancelled:
		s.m.cancelled.Inc()
	}
	s.retainRegistryLocked(e)
	hub := e.hub
	ev := Event{Type: "state", JobID: e.job.ID, State: st, Error: errMsg}
	s.logf("job %s: %s%s", e.job.ID, st, errSuffix(errMsg))
	// Publish-then-close under the lock keeps the final event ordered
	// before the stream end for every subscriber.
	hub.publish(ev)
	hub.close()
}

// retainRegistryLocked makes e the newest terminal job holding its
// registry and drops the registry of the job that falls out of the
// window. A job resumed since it finished is running again on a fresh
// registry, so it keeps that one. Callers hold s.mu.
func (s *Server) retainRegistryLocked(e *entry) {
	if i := slices.Index(s.finished, e); i >= 0 { // finished before, then resumed
		s.finished = slices.Delete(s.finished, i, i+1)
	}
	s.finished = append(s.finished, e)
	if len(s.finished) <= retainedRegistries {
		return
	}
	old := s.finished[0]
	s.finished = slices.Delete(s.finished, 0, 1)
	if old.job.State.terminal() {
		old.reg = nil
	}
}

// errSuffix formats an optional error for a log line.
func errSuffix(msg string) string {
	if msg == "" {
		return ""
	}
	return ": " + msg
}

// sortJobs orders job views by submission sequence.
func sortJobs(jobs []Job) {
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].Seq < jobs[j].Seq })
}

// entryHeap orders queued entries by (priority desc, seq asc) and keeps
// heapIndex in sync for heap.Remove on cancel.
type entryHeap []*entry

func (h entryHeap) Len() int { return len(h) }
func (h entryHeap) Less(i, j int) bool {
	if h[i].job.Priority != h[j].job.Priority {
		return h[i].job.Priority > h[j].job.Priority
	}
	return h[i].job.Seq < h[j].job.Seq
}
func (h entryHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIndex = i
	h[j].heapIndex = j
}
func (h *entryHeap) Push(x any) {
	e := x.(*entry)
	e.heapIndex = len(*h)
	*h = append(*h, e)
}
func (h *entryHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.heapIndex = -1
	*h = old[:n-1]
	return e
}
