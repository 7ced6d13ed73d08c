package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/accu-sim/accu/internal/core"
	"github.com/accu-sim/accu/internal/dist"
	"github.com/accu-sim/accu/internal/gen"
	"github.com/accu-sim/accu/internal/graph"
	"github.com/accu-sim/accu/internal/obs"
	"github.com/accu-sim/accu/internal/osn"
	"github.com/accu-sim/accu/internal/rng"
	"github.com/accu-sim/accu/internal/sim"
)

// span is one timed call across a layer boundary. Spans of one job share
// a trace id; spans of one (network, run) cell additionally carry the
// cell in the low bits (see cellTrace). Times are nanoseconds since the
// recorder's epoch.
type span struct {
	trace      uint64
	id, parent uint32
	name       string
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

// jobTrace is the trace id of job i's job-level spans.
func jobTrace(job int) uint64 { return uint64(job+1) << 32 }

// cellTrace is the trace id shared by the spans of cell c of job i.
func cellTrace(job, c int) uint64 { return jobTrace(job) | uint64(c+1) }

// spanBuf is a single-owner span buffer: a policy instance belongs to one
// engine worker at a time, so its spans need no lock.
type spanBuf struct {
	spans []span
}

func (b *spanBuf) add(s span) { b.spans = append(b.spans, s) }

// recorder keeps every span of a traced window in memory and writes them
// out when the run ends. Counters hold work counts measured at the same
// boundaries (bytes uploaded, accepted requests per policy, ...).
type recorder struct {
	epoch  time.Time
	nextID atomic.Uint32
	// reg receives the engine's own instrumentation (the registry
	// histograms and abm.* counters) for the traced window.
	reg *obs.Registry

	mu       sync.Mutex
	bufs     []*spanBuf
	shared   spanBuf // spans from concurrent call sites, under mu
	closers  []func()
	counters map[string]*atomic.Int64
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), reg: obs.New(), counters: make(map[string]*atomic.Int64)}
}

// registry is the engine registry of a traced window; nil (the engine's
// uninstrumented default) for an untraced one.
func (r *recorder) registry() *obs.Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// now is the monotonic time since the epoch.
func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// nowOrZero is now on a recorder and 0 on nil (an untraced job).
func (r *recorder) nowOrZero() int64 {
	if r == nil {
		return 0
	}
	return r.now()
}

func (r *recorder) newID() uint32 { return r.nextID.Add(1) }

// buf registers a buffer for one single-goroutine owner.
func (r *recorder) buf() *spanBuf {
	b := &spanBuf{}
	r.mu.Lock()
	r.bufs = append(r.bufs, b)
	r.mu.Unlock()
	return b
}

// record stores a span from a call site that may run concurrently.
func (r *recorder) record(s span) {
	r.mu.Lock()
	r.shared.add(s)
	r.mu.Unlock()
}

// counter returns the named work counter, creating it on first use.
func (r *recorder) counter(name string) *atomic.Int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = new(atomic.Int64)
		r.counters[name] = c
	}
	return c
}

func (r *recorder) count(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c.Load()
	}
	return 0
}

// onFlush registers f to close open spans before the spans are read.
func (r *recorder) onFlush(f func()) {
	r.mu.Lock()
	r.closers = append(r.closers, f)
	r.mu.Unlock()
}

// all closes open spans and returns every recorded span. Call it only
// once the traced calls have stopped.
func (r *recorder) all() []span {
	r.mu.Lock()
	closers := r.closers
	r.closers = nil
	r.mu.Unlock()
	for _, f := range closers {
		f()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]span(nil), r.shared.spans...)
	for _, b := range r.bufs {
		out = append(out, b.spans...)
	}
	return out
}

// spanAgg is the call count and summed duration of one span name.
type spanAgg struct {
	calls int64
	ns    int64
	durs  []float64 // milliseconds, kept for percentiles
}

// aggregate groups spans by name.
func aggregate(spans []span) map[string]*spanAgg {
	out := make(map[string]*spanAgg)
	for _, s := range spans {
		a, ok := out[s.name]
		if !ok {
			a = &spanAgg{}
			out[s.name] = a
		}
		a.calls++
		a.ns += s.dur()
		a.durs = append(a.durs, float64(s.dur())/1e6)
	}
	return out
}

// selfTime is the part of parent's interval that none of its children
// cover. Children may overlap each other (concurrent calls) and may reach
// outside the parent; only the covered part of the parent counts once.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.start, parent.start), min(c.end, parent.end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			covered += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		covered += curHi - curLo
	}
	return parent.dur() - covered
}

// writeSpans writes spans as gzip-compressed JSON lines, one span each,
// after a header line describing the run.
func writeSpans(path string, header any, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(zw)
	hdr, err := json.Marshal(header)
	if err != nil {
		return err
	}
	w.Write(append(hdr, '\n'))
	for _, s := range spans {
		fmt.Fprintf(w, `{"trace":%d,"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.trace, s.id, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}

// --- gen / osn wrappers (installed through sim.Protocol or dist.Worker.Mutate) ---

// tracedGen times gen.Generator.Generate.
type tracedGen struct {
	inner  gen.Generator
	rec    *recorder
	trace  uint64
	parent uint32
}

func (g tracedGen) Name() string { return g.inner.Name() }

func (g tracedGen) Generate(seed rng.Seed) (*graph.Graph, error) {
	start := g.rec.now()
	out, err := g.inner.Generate(seed)
	g.rec.record(span{trace: g.trace, id: g.rec.newID(), parent: g.parent, name: "gen.generate", start: start, end: g.rec.now()})
	return out, err
}

// tracedSetup times Protocol.Setup (osn.Setup), which dresses a graph
// into an instance.
type tracedSetup struct {
	inner  sim.Builder
	rec    *recorder
	trace  uint64
	parent uint32
}

func (b tracedSetup) Build(g *graph.Graph, seed rng.Seed) (*osn.Instance, error) {
	start := b.rec.now()
	out, err := b.inner.Build(g, seed)
	b.rec.record(span{trace: b.trace, id: b.rec.newID(), parent: b.parent, name: "osn.build", start: start, end: b.rec.now()})
	return out, err
}

// traceProtocol wraps a protocol's generator and setup.
func traceProtocol(p *sim.Protocol, rec *recorder, trace uint64, parent uint32) {
	p.Gen = tracedGen{inner: p.Gen, rec: rec, trace: trace, parent: parent}
	p.Setup = tracedSetup{inner: p.Setup, rec: rec, trace: trace, parent: parent}
}

// --- policy wrapper (installed through sim.PolicyFactory) ---

// policyNames are the span names of one policy, built once.
type policyNames struct {
	attack, init, sel, observe, accepts string
}

func namesFor(policy string) policyNames {
	p := "core." + policy
	return policyNames{attack: p + ".attack", init: p + ".init", sel: p + ".select", observe: p + ".observe", accepts: p + ".accepts"}
}

// tracedPolicy times Init, SelectNext and Observe of one policy instance.
// Each attack opens a parent span at Init that ends with the last call
// of that attack; its self time is the runner's own work (requests,
// reveals, trace bookkeeping). The instance is used by one engine worker
// at a time, so its buffer needs no lock.
type tracedPolicy struct {
	inner   core.Policy
	rec     *recorder
	buf     *spanBuf
	names   policyNames
	accepts *atomic.Int64
	cells   map[rng.Seed]uint64 // policy seed → cell trace id
	trace   uint64
	parent  uint32 // the job span
	attack  span
	open    bool
}

func (t *tracedPolicy) Name() string { return t.inner.Name() }

func (t *tracedPolicy) closeAttack() {
	if t.open {
		t.buf.add(t.attack)
		t.open = false
	}
}

func (t *tracedPolicy) child(name string, start int64) {
	end := t.rec.now()
	t.buf.add(span{trace: t.trace, id: t.rec.newID(), parent: t.attack.id, name: name, start: start, end: end})
	t.attack.end = end
}

func (t *tracedPolicy) Init(st *osn.State) error {
	t.closeAttack()
	start := t.rec.now()
	t.attack = span{trace: t.trace, id: t.rec.newID(), parent: t.parent, name: t.names.attack, start: start, end: start}
	t.open = true
	err := t.inner.Init(st)
	t.child(t.names.init, start)
	return err
}

func (t *tracedPolicy) SelectNext(st *osn.State) (int, bool) {
	start := t.rec.now()
	u, ok := t.inner.SelectNext(st)
	t.child(t.names.sel, start)
	return u, ok
}

func (t *tracedPolicy) Observe(st *osn.State, out osn.Outcome) {
	start := t.rec.now()
	t.inner.Observe(st, out)
	t.child(t.names.observe, start)
	if out.Accepted {
		t.accepts.Add(1)
	}
}

func (t *tracedPolicy) reseed(seed rng.Seed) {
	t.closeAttack()
	t.trace = t.cells[seed]
	t.inner.(core.Reusable).Reseed(seed)
}

func (t *tracedPolicy) selectBatch(st *osn.State, b int) []int {
	start := t.rec.now()
	out := t.inner.(core.BatchSelector).SelectBatch(st, b)
	t.child(t.names.sel, start)
	return out
}

// The wrapper must expose exactly the optional interfaces of the policy
// it wraps: the engine reuses core.Reusable instances per worker and
// batches through core.BatchSelector, so dropping either would trace a
// different program.
type (
	tracedReusable      struct{ *tracedPolicy }
	tracedBatch         struct{ *tracedPolicy }
	tracedReusableBatch struct{ *tracedPolicy }
)

func (t tracedReusable) Reseed(seed rng.Seed)                        { t.reseed(seed) }
func (t tracedBatch) SelectBatch(st *osn.State, b int) []int         { return t.selectBatch(st, b) }
func (t tracedReusableBatch) Reseed(seed rng.Seed)                   { t.reseed(seed) }
func (t tracedReusableBatch) SelectBatch(st *osn.State, b int) []int { return t.selectBatch(st, b) }

// wrapPolicy returns t as a core.Policy with the optional interfaces of
// t.inner.
func wrapPolicy(t *tracedPolicy) core.Policy {
	_, reusable := t.inner.(core.Reusable)
	_, batch := t.inner.(core.BatchSelector)
	switch {
	case reusable && batch:
		return tracedReusableBatch{t}
	case reusable:
		return tracedReusable{t}
	case batch:
		return tracedBatch{t}
	default:
		return t
	}
}

// traceFactories wraps every factory of a protocol's roster. cells maps
// each policy seed the engine derives to its cell's trace id.
func traceFactories(facs []sim.PolicyFactory, rec *recorder, cells map[rng.Seed]uint64, parent uint32) []sim.PolicyFactory {
	out := make([]sim.PolicyFactory, len(facs))
	for i, f := range facs {
		names := namesFor(f.Name)
		accepts := rec.counter(names.accepts)
		out[i] = sim.PolicyFactory{Name: f.Name, New: func(seed rng.Seed) (core.Policy, error) {
			inner, err := f.New(seed)
			if err != nil {
				return nil, err
			}
			t := &tracedPolicy{inner: inner, rec: rec, buf: rec.buf(), names: names, accepts: accepts, cells: cells, trace: cells[seed], parent: parent}
			rec.onFlush(t.closeAttack)
			return wrapPolicy(t), nil
		}}
	}
	return out
}

// policySeeds maps the seed the engine hands each policy of each cell to
// that cell's trace id. It follows the engine's documented first-attempt
// derivation: network split, run split, policy split.
func policySeeds(p sim.Protocol, roster, job int) map[rng.Seed]uint64 {
	out := make(map[rng.Seed]uint64, p.Networks*p.Runs*roster)
	for i := 0; i < p.Networks; i++ {
		netSeed := p.Seed.SplitN("network", i)
		for j := 0; j < p.Runs; j++ {
			runSeed := netSeed.SplitN("run", j)
			for fi := 0; fi < roster; fi++ {
				out[runSeed.SplitN("policy", fi)] = cellTrace(job, i*p.Runs+j)
			}
		}
	}
	return out
}

// --- HTTP boundaries ---

// statusWriter records the response status and keeps http.Flusher
// working for server-sent events.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// middleware counts every response against ops (non-2xx is a failed
// operation) and, while a recorder is installed, records a span named by
// classify around the handler.
func middleware(next http.Handler, ops *tally, rec *atomic.Pointer[recorder], classify func(*http.Request) string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := rec.Load()
		var start int64
		if tr != nil {
			start = tr.now()
		}
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		ops.op(sw.status/100 == 2)
		if tr != nil {
			tr.record(span{id: tr.newID(), name: classify(r), start: start, end: tr.now()})
		}
	})
}

// servRoute names the serv handler a request reaches.
func servRoute(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/api/v1/jobs":
		return "serv.handler.submit"
	case strings.HasSuffix(p, "/events"):
		return "serv.handler.events"
	case strings.HasSuffix(p, "/result"):
		return "serv.handler.result"
	default:
		return "serv.handler.other"
	}
}

// distRoute names the coordinator handler a request reaches.
func distRoute(r *http.Request) string {
	switch r.URL.Path {
	case "/api/v1/dist/cells":
		return "dist.handler.cells"
	case "/api/v1/dist/lease":
		return "dist.handler.lease"
	default:
		return "dist.handler.other"
	}
}

// tracingTransport is the dist.Worker client transport of a traced run:
// it times every round trip to the coordinator, counts uploaded bytes,
// and notes leases that came back empty.
type tracingTransport struct {
	base http.RoundTripper
	rec  *recorder
}

func (t tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	name := "dist.client.other"
	switch req.URL.Path {
	case "/api/v1/dist/cells":
		name = "dist.client.cells"
		if req.ContentLength > 0 {
			t.rec.counter("dist.upload.bytes").Add(req.ContentLength)
		}
	case "/api/v1/dist/lease":
		name = "dist.client.lease"
	}
	start := t.rec.now()
	resp, err := t.base.RoundTrip(req)
	if err == nil && name == "dist.client.lease" && resp.StatusCode == http.StatusOK {
		// Read the small lease reply to see whether it was empty, then
		// hand the worker an identical body.
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		var lr dist.LeaseResponse
		if json.Unmarshal(body, &lr) == nil && !lr.Done && lr.Lease == nil {
			t.rec.counter("dist.lease.empty").Add(1)
		}
	}
	t.rec.record(span{id: t.rec.newID(), name: name, start: start, end: t.rec.now()})
	return resp, err
}
