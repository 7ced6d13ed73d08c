package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"github.com/accu-sim/accu/internal/serv"
)

// servRunner runs an in-process accuserv on a loopback listener with its
// default configuration; each job is one client's submit → SSE stream to
// the final frame → result fetch over HTTP.
type servRunner struct {
	w      *workload
	seed   uint64
	engine int
	base   string // parent of the data directories
	ops    *tally

	dir       string
	srv       *serv.Server
	hs        *http.Server
	url       string
	client    *http.Client
	serveDone chan error
	rec       atomic.Pointer[recorder]
}

func (d *servRunner) setup() error {
	dir, err := os.MkdirTemp(d.base, "serv-")
	if err != nil {
		return err
	}
	srv, err := serv.New(serv.Config{Dir: dir})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv.Start()
	d.dir, d.srv, d.url = dir, srv, "http://"+ln.Addr().String()
	d.hs = &http.Server{Handler: middleware(srv.Handler(), d.ops, &d.rec, servRoute)}
	d.serveDone = make(chan error, 1)
	go func() { d.serveDone <- d.hs.Serve(ln) }()
	d.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4 * d.w.clients}}
	return nil
}

func (d *servRunner) teardown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.serveDone; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.client.CloseIdleConnections()
	if derr := d.srv.Drain(ctx); err == nil {
		err = derr
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

func (d *servRunner) job(ctx context.Context, i int, rec *recorder) jobOut {
	d.rec.Store(rec)
	out := jobOut{index: i, spec: d.w.jobSpec(d.seed, i, d.engine), start: time.Now()}
	var jobSpan span
	if rec != nil {
		jobSpan = span{trace: jobTrace(i), id: rec.newID(), name: "job", start: rec.now()}
	}
	clientSpan := func(name string, start int64) {
		if rec != nil {
			rec.record(span{trace: jobTrace(i), id: rec.newID(), parent: jobSpan.id, name: name, start: start, end: rec.now()})
		}
	}
	out.err = d.runJob(ctx, &out, rec, clientSpan)
	out.end = time.Now()
	if rec != nil {
		jobSpan.end = rec.now()
		rec.record(jobSpan)
	}
	return out
}

func (d *servRunner) runJob(ctx context.Context, out *jobOut, rec *recorder, clientSpan func(string, int64)) error {
	body, err := json.Marshal(serv.SubmitRequest{Spec: out.spec})
	if err != nil {
		return err
	}
	t0, s0 := time.Now(), rec.nowOrZero()
	var job serv.Job
	if err := d.call(ctx, http.MethodPost, "/api/v1/jobs", body, http.StatusCreated, &job); err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	out.submitRTT = time.Since(t0)
	clientSpan("serv.client.submit", s0)
	out.id = job.ID

	s0 = rec.nowOrZero()
	if err := d.follow(ctx, out); err != nil {
		return fmt.Errorf("events: %w", err)
	}
	clientSpan("serv.client.events", s0)

	t0, s0 = time.Now(), rec.nowOrZero()
	var res serv.Result
	if err := d.call(ctx, http.MethodGet, "/api/v1/jobs/"+job.ID+"/result", nil, http.StatusOK, &res); err != nil {
		return fmt.Errorf("result: %w", err)
	}
	out.resultRTT = time.Since(t0)
	clientSpan("serv.client.result", s0)
	out.records, out.digest = res.Records, res.Digest
	return nil
}

// call makes one JSON request and decodes the reply.
func (d *servRunner) call(ctx context.Context, method, path string, body []byte, want int, v any) error {
	req, err := http.NewRequestWithContext(ctx, method, d.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, v)
}

// follow reads the job's SSE stream up to its final state frame.
func (d *servRunner) follow(ctx context.Context, out *jobOut) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/api/v1/jobs/"+out.id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		out.frames++
		var ev serv.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return err
		}
		if ev.Type == "progress" && out.firstRecord.IsZero() {
			out.firstRecord = time.Now()
		}
		if ev.Type != "state" {
			continue
		}
		switch ev.State {
		case serv.StateDone:
			out.finalFrame = time.Now()
			// Drain the rest of the stream so the connection is reused.
			_, err := io.Copy(io.Discard, resp.Body)
			return err
		case serv.StateFailed, serv.StateCancelled:
			return fmt.Errorf("job %s ended %s: %s", out.id, ev.State, ev.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("stream of job %s ended before a final state", out.id)
}

// servJobStats are the server-side facts of one finished job, read in
// process after the window.
type servJobStats struct {
	queueWait, run, notify time.Duration
	journalBytes           int64
	cells                  int64
	networkNS, sampleNS    int64
	cellNS, workerBusyNS   int64
	sampleCalls, cellCalls int64
	revealNS               int64
	requests, accepts      int64
}

// jobStats reads a finished job's document, its per-job metrics registry
// and the size of its cell journal (<dir>/checkpoints/<id>.jsonl).
func (d *servRunner) jobStats(j jobOut) (servJobStats, error) {
	var st servJobStats
	doc, err := d.srv.Get(j.id)
	if err != nil {
		return st, err
	}
	if doc.StartedAt == nil || doc.FinishedAt == nil {
		return st, fmt.Errorf("job %s has no start or finish time", j.id)
	}
	st.queueWait = doc.StartedAt.Sub(doc.SubmittedAt)
	st.run = doc.FinishedAt.Sub(*doc.StartedAt)
	st.notify = j.finalFrame.Sub(*doc.FinishedAt)
	st.cells = int64(j.spec.Networks * j.spec.Runs)
	if fi, err := os.Stat(d.dir + "/checkpoints/" + j.id + ".jsonl"); err == nil {
		st.journalBytes = fi.Size()
	}
	snap, err := d.srv.Metrics(j.id)
	if err != nil {
		return st, err
	}
	m := snapshotSums(snap)
	st.networkNS = m.sum("sim.network_ns")
	st.sampleNS = m.sum("osn.sample_realization_ns")
	st.sampleCalls = m.calls("osn.sample_realization_ns")
	st.cellNS, st.cellCalls = m.sum("sim.cell_ns"), m.calls("sim.cell_ns")
	st.revealNS = m.sum("osn.reveal_ns")
	st.workerBusyNS = m.counter("sim.worker_busy_ns")
	st.requests = m.counter("osn.requests")
	st.accepts = m.counter("osn.accepts")
	return st, nil
}
