// Fixture for the respwrite analyzer: a response header committed twice
// on one CFG path, traced through writeJSON-style envelope helpers.
package serv

import (
	"encoding/json"
	"net/http"
)

// writeJSON is the envelope helper the parameter summary marks as
// header-writing.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// notFound commits through two helper hops.
func notFound(w http.ResponseWriter) { writeJSON(w, http.StatusNotFound, "missing") }

func fallthroughBug(w http.ResponseWriter, ok bool) {
	if !ok {
		writeJSON(w, http.StatusBadRequest, "bad") // missing return
	}
	writeJSON(w, http.StatusOK, "ok") // want `response header already committed on this path`
}

func returnsAfterEnvelope(w http.ResponseWriter, ok bool) {
	if !ok {
		writeJSON(w, http.StatusBadRequest, "bad")
		return
	}
	writeJSON(w, http.StatusOK, "ok")
}

func doubleWriteHeader(w http.ResponseWriter) {
	w.WriteHeader(http.StatusAccepted)
	w.WriteHeader(http.StatusOK) // want `response header already committed on this path`
}

func sseStream(w http.ResponseWriter, frames [][]byte) {
	w.WriteHeader(http.StatusOK)
	for _, f := range frames {
		w.Write(f) // implicit body writes after the commit are the point
	}
}

func httpErrorThenFallthrough(w http.ResponseWriter, err error) {
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
	w.WriteHeader(http.StatusNoContent) // want `response header already committed on this path`
}

func helperChain(w http.ResponseWriter, ok bool) {
	if !ok {
		notFound(w)
	}
	writeJSON(w, http.StatusOK, "ok") // want `response header already committed on this path`
}

func allowedDouble(w http.ResponseWriter) {
	w.WriteHeader(http.StatusOK)
	w.WriteHeader(http.StatusOK) //accu:allow fsyncack -- exercising net/http's superfluous-WriteHeader log in a test
}
