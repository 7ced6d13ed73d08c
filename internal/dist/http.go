package dist

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"github.com/accu-sim/accu/internal/sim"
)

// Handler returns the coordinator's HTTP API:
//
//	POST /api/v1/dist/lease    request the next range               (LeaseRequest -> LeaseResponse)
//	POST /api/v1/dist/cells    upload completed cells               (?lease=&worker=, JSONL CellLine body -> UploadResponse)
//	POST /api/v1/dist/fail     release a lease after a range error  (FailRequest)
//	GET  /api/v1/dist/spec     the grid spec workers build from
//	GET  /api/v1/dist/status   poll snapshot
//	GET  /api/v1/dist/result   final Result (409 until complete)
//	GET  /metrics              dist.* instruments
//	GET  /healthz              liveness probe
//
// The cell-upload body is the journal's own line format: a journal file
// is a valid upload body and vice versa.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/dist/lease", c.handleLease)
	mux.HandleFunc("POST /api/v1/dist/cells", c.handleCells)
	mux.HandleFunc("POST /api/v1/dist/fail", c.handleFail)
	mux.HandleFunc("GET /api/v1/dist/spec", c.handleSpec)
	mux.HandleFunc("GET /api/v1/dist/status", c.handleStatus)
	mux.HandleFunc("GET /api/v1/dist/result", c.handleResult)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	return mux
}

// errorBody is the JSON error envelope, matching internal/serv's.
type errorBody struct {
	Error string `json:"error"`
}

// Kept local rather than shared with internal/serv: fsyncack summarizes helpers per package, so a shared writeJSON would hide these success acks from its ack-before-fsync check.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // status line already out; nothing to recover
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad lease request: " + err.Error()})
		return
	}
	if req.Worker == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "lease request without worker"})
		return
	}
	lease, done := c.Lease(req.Worker)
	writeJSON(w, http.StatusOK, LeaseResponse{Done: done, Lease: lease})
}

func (c *Coordinator) handleCells(w http.ResponseWriter, r *http.Request) {
	leaseID := r.URL.Query().Get("lease")
	worker := r.URL.Query().Get("worker")
	if worker == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "cell upload without worker"})
		return
	}
	lines, err := decodeCellLines(r.Body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad cell upload: " + err.Error()})
		return
	}
	resp, err := c.Upload(leaseID, worker, lines)
	if err != nil {
		// Commit/merge failure: the batch is not durable, the worker must
		// not proceed past this cell.
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// decodeCellLines reads a JSONL (or concatenated-JSON) stream of cell
// lines. json.Decoder handles arbitrary line lengths without a scanner
// buffer limit — cell records carry full attack traces.
func decodeCellLines(r io.Reader) ([]sim.CellLine, error) {
	dec := json.NewDecoder(r)
	var lines []sim.CellLine
	for {
		var cl sim.CellLine
		if err := dec.Decode(&cl); err != nil {
			if errors.Is(err, io.EOF) {
				return lines, nil
			}
			return nil, err
		}
		lines = append(lines, cl)
	}
}

func (c *Coordinator) handleFail(w http.ResponseWriter, r *http.Request) {
	var req FailRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad fail request: " + err.Error()})
		return
	}
	c.Fail(req)
	writeJSON(w, http.StatusOK, struct{}{})
}

func (c *Coordinator) handleSpec(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Spec())
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Status())
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	res, err := c.Result()
	if err != nil {
		writeJSON(w, http.StatusConflict, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := c.cfg.Metrics.Snapshot()
	if snap == nil {
		writeJSON(w, http.StatusOK, struct{}{})
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}
