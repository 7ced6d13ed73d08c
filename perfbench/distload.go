package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/accu-sim/accu/internal/dist"
	"github.com/accu-sim/accu/internal/obs"
	"github.com/accu-sim/accu/internal/serv"
	"github.com/accu-sim/accu/internal/sim"
)

// distRunner runs each job as one accudist grid over loopback: a fresh
// dist.Coordinator (with the dist.* registry accudist always attaches)
// behind a long-lived listener, and distWorkers dist.Workers that lease
// ranges until the grid is done; the job ends when the result is fetched.
type distRunner struct {
	w      *workload
	seed   uint64
	engine int
	base   string
	ops    *tally

	dir       string
	hs        *http.Server
	url       string
	transport *http.Transport
	serveDone chan error
	current   atomic.Pointer[http.Handler]
	firstCell atomic.Pointer[time.Time]
	rec       atomic.Pointer[recorder]
	grids     atomic.Int64

	mu     sync.Mutex
	coordM map[string]int64 // dist.* counters summed over the traced window's grids
}

func (d *distRunner) setup() error {
	dir, err := os.MkdirTemp(d.base, "dist-")
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	d.dir, d.url = dir, "http://"+ln.Addr().String()
	route := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := d.current.Load()
		if h == nil {
			http.Error(w, "no grid", http.StatusServiceUnavailable)
			return
		}
		if r.URL.Path == "/api/v1/dist/cells" && d.firstCell.Load() == nil {
			now := time.Now()
			d.firstCell.CompareAndSwap(nil, &now)
		}
		(*h).ServeHTTP(w, r)
	})
	d.hs = &http.Server{Handler: middleware(route, d.ops, &d.rec, distRoute)}
	d.serveDone = make(chan error, 1)
	go func() { d.serveDone <- d.hs.Serve(ln) }()
	d.transport = &http.Transport{MaxIdleConnsPerHost: 4 * d.w.distWorkers}
	return nil
}

func (d *distRunner) teardown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.serveDone; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.transport.CloseIdleConnections()
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

func (d *distRunner) job(ctx context.Context, i int, rec *recorder) jobOut {
	d.rec.Store(rec)
	d.firstCell.Store(nil)
	out := jobOut{index: i, spec: d.w.jobSpec(d.seed, i, d.engine), start: time.Now()}
	var jobSpan span
	if rec != nil {
		jobSpan = span{trace: jobTrace(i), id: rec.newID(), name: "job", start: rec.now()}
	}
	out.err = d.runGrid(ctx, &out, rec, jobSpan.id)
	out.end = time.Now()
	if t := d.firstCell.Load(); t != nil {
		out.firstRecord = *t
	}
	if rec != nil {
		jobSpan.end = rec.now()
		rec.record(jobSpan)
	}
	return out
}

func (d *distRunner) runGrid(ctx context.Context, out *jobOut, rec *recorder, jobSpanID uint32) error {
	dir := filepath.Join(d.dir, fmt.Sprintf("grid-%d", d.grids.Add(1)))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	reg := obs.New()
	coord, err := dist.New(dist.Config{
		Spec: out.spec, Dir: dir, RangeSize: d.w.rangeSize, LeaseTTL: d.w.leaseTTL, Metrics: reg,
	})
	if err != nil {
		return err
	}
	h := coord.Handler()
	d.current.Store(&h)

	client := &http.Client{Transport: d.transport}
	var mutate func(*sim.Protocol)
	if rec != nil {
		client = &http.Client{Transport: tracingTransport{base: d.transport, rec: rec}}
		mutate = func(p *sim.Protocol) { traceProtocol(p, rec, jobTrace(out.index), jobSpanID) }
	}
	errs := make([]error, d.w.distWorkers)
	var wg sync.WaitGroup
	for k := 0; k < d.w.distWorkers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &dist.Worker{
				Coordinator:  d.url,
				ID:           fmt.Sprintf("w%d", k),
				Client:       client,
				PollInterval: d.w.pollInterval,
				Metrics:      rec.registry(),
				Mutate:       mutate,
			}
			errs[k] = w.Run(ctx)
		}()
	}
	wg.Wait()
	err = errors.Join(errs...)
	if err == nil {
		var res serv.Result
		err = getJSON(ctx, client, d.url+"/api/v1/dist/result", &res)
		out.records, out.digest = res.Records, res.Digest
	}
	d.current.Store(nil)
	if cerr := coord.Close(); err == nil {
		err = cerr
	}
	m := snapshotSums(reg.Snapshot())
	// A cell the coordinator rejected is a failed upload operation.
	d.ops.ops(m.counter("dist.uploads"), m.counter("dist.cells_rejected"))
	if rec != nil {
		d.mu.Lock()
		for _, name := range []string{"dist.uploads", "dist.cells_accepted"} {
			d.coordM[name] += m.counter(name)
		}
		d.mu.Unlock()
	}
	return err
}

func getJSON(ctx context.Context, client *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.Unmarshal(data, v)
}
