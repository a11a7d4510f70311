package node

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"

	"dialga/internal/obs"
)

// Traffic classes. Every shard request carries one in the
// ClassHeader; the node's admission control meters each class through
// its own token bucket so background repair can never starve
// foreground serving.
const (
	// ClassForeground is user-facing traffic: object puts/gets and the
	// shard I/O they fan out into. The default when no class header is
	// present.
	ClassForeground = "foreground"
	// ClassRepair is background reconstruction traffic: scrub reads
	// and rebuilt-shard writes issued by the repair queue.
	ClassRepair = "repair"
)

// ClassHeader is the HTTP header naming a request's traffic class.
const ClassHeader = "X-Dialga-Class"

// Admitter is the node's admission-control hook: Admit blocks until
// the class's token bucket covers cost (or ctx ends). It is a tiny
// interface so the data plane does not depend on the control plane —
// internal/cluster's token-bucket Limiter implements it, and a nil
// Admitter admits everything.
type Admitter interface {
	Admit(ctx context.Context, class string, cost float64) error
}

// Server is a node's HTTP API over its local shard store.
//
// Wire format (all bodies are exact shardfile bytes — a v3 or v4
// header + checksummed blocks — except where noted):
//
//	PUT    /v1/shard/{object}/{idx}   store one shard (validated, atomic)
//	GET    /v1/shard/{object}/{idx}   fetch one shard (?block=N&count=M for a block window)
//	DELETE /v1/shard/{object}/{idx}   drop one shard (idempotent)
//	GET    /v1/stat/{object}/{idx}    parsed header as JSON
//	GET    /v1/scrub/{object}/{idx}   server-side scrub report as JSON
//	GET    /v1/objects                stored object names as JSON
//	GET    /healthz                   liveness
//	GET    /metrics                   Prometheus text exposition
//
// Every /v1 request passes admission control for its traffic class
// (ClassHeader, default foreground); a request the limiter cannot
// cover before its context ends gets 429.
type Server struct {
	store *Store
	admit Admitter
	reg   *obs.Registry

	requests  *obs.Counter // node_requests_total{route,class}
	throttled *obs.Counter // node_throttled_total{class}
}

// NewServer wires a store, an optional admission controller, and an
// optional metrics registry (also served at /metrics) into a Server.
func NewServer(store *Store, admit Admitter, reg *obs.Registry) *Server {
	return &Server{store: store, admit: admit, reg: reg}
}

// Handler returns the node's routing table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /v1/shard/{object}/{idx}", s.withAdmission("shard_put", s.handlePut))
	mux.HandleFunc("GET /v1/shard/{object}/{idx}", s.withAdmission("shard_get", s.handleGet))
	mux.HandleFunc("DELETE /v1/shard/{object}/{idx}", s.withAdmission("shard_delete", s.handleDelete))
	mux.HandleFunc("GET /v1/stat/{object}/{idx}", s.withAdmission("stat", s.handleStat))
	mux.HandleFunc("GET /v1/scrub/{object}/{idx}", s.withAdmission("scrub", s.handleScrub))
	mux.HandleFunc("GET /v1/objects", s.withAdmission("objects", s.handleObjects))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.Handle("GET /metrics", s.reg.Handler())
	return mux
}

// Class extracts a request's traffic class, defaulting unknown or
// absent values to foreground.
func Class(r *http.Request) string {
	if c := r.Header.Get(ClassHeader); c == ClassRepair {
		return ClassRepair
	}
	return ClassForeground
}

// withAdmission meters a handler: one admission token per request in
// the request's class, counted per route.
func (s *Server) withAdmission(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		class := Class(r)
		s.reg.Counter("node_requests_total",
			"Shard-API requests served, by route and traffic class.",
			obs.Label{Key: "route", Value: route},
			obs.Label{Key: "class", Value: class}).Inc()
		if s.admit != nil {
			if err := s.admit.Admit(r.Context(), class, 1); err != nil {
				s.reg.Counter("node_throttled_total",
					"Shard-API requests rejected by admission control, by traffic class.",
					obs.Label{Key: "class", Value: class}).Inc()
				http.Error(w, "admission: "+err.Error(), http.StatusTooManyRequests)
				return
			}
		}
		h(w, r)
	}
}

// shardParams pulls {object}/{idx} out of the matched route.
func shardParams(w http.ResponseWriter, r *http.Request) (string, int, bool) {
	object := r.PathValue("object")
	idx, err := strconv.Atoi(r.PathValue("idx"))
	if object == "" || err != nil || idx < 0 {
		http.Error(w, "bad shard path", http.StatusBadRequest)
		return "", 0, false
	}
	return object, idx, true
}

func (s *Server) fail(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrNotFound):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, ErrBadShard):
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	object, idx, ok := shardParams(w, r)
	if !ok {
		return
	}
	if err := s.store.Put(object, idx, r.Body); err != nil {
		s.fail(w, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
}

// handleGet serves a shard, or a window of its blocks: the header
// re-marshalled from the one the store parsed, then the stored blocks.
// The blocks go out as an *io.LimitedReader over the open file, bounded
// to the shard or window's length. A LimitedReader has no WriteTo, so
// io.Copy hands it to the response's ReadFrom, and net/http's TCP
// connection sends it by sendfile(2), with no copy through user space.
// io.Copy(w, f) misses that: it prefers the file's WriteTo, which cannot
// see the socket behind a ResponseWriter and falls back to a wrapper
// sendfile refuses, so every byte goes through a 32 KiB buffer.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	object, idx, ok := shardParams(w, r)
	if !ok {
		return
	}
	// ?block=N&count=M selects a window of whole blocks — the unit a
	// range read needs, since blocks carry their own checksum trailers.
	// Defaults (0, -1) stream the entire shard, wire-identical to a GET
	// without query parameters.
	block, count := int64(0), int64(-1)
	q := r.URL.Query()
	if v := q.Get("block"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			http.Error(w, "bad block parameter", http.StatusBadRequest)
			return
		}
		block = n
	}
	if v := q.Get("count"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n == 0 {
			http.Error(w, "bad count parameter", http.StatusBadRequest)
			return
		}
		count = n
	}
	h, f, n, err := s.store.GetAt(object, idx, block, count)
	if err != nil {
		s.fail(w, err)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(h.Size()+n, 10))
	w.WriteHeader(http.StatusOK)
	// Re-emit the header we consumed during validation, then stream
	// the blocks; a broken client connection is the client's problem.
	if _, err := w.Write(h.Marshal()); err != nil {
		return
	}
	io.Copy(w, &io.LimitedReader{R: f, N: n})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	object, idx, ok := shardParams(w, r)
	if !ok {
		return
	}
	if err := s.store.Delete(object, idx); err != nil {
		s.fail(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStat(w http.ResponseWriter, r *http.Request) {
	object, idx, ok := shardParams(w, r)
	if !ok {
		return
	}
	h, err := s.store.Stat(object, idx)
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, statFromHeader(h))
}

func (s *Server) handleScrub(w http.ResponseWriter, r *http.Request) {
	object, idx, ok := shardParams(w, r)
	if !ok {
		return
	}
	rep, err := s.store.Scrub(object, idx)
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, ScrubStatus{
		Index:   rep.Index,
		Status:  rep.Status.String(),
		Damaged: rep.Status.Damaged(),
		Stripes: rep.Result.Stripes,
		Corrupt: rep.Result.Corrupt,
		Header:  rep.Header,
		Detail:  rep.Detail,
	})
}

func (s *Server) handleObjects(w http.ResponseWriter, r *http.Request) {
	names, err := s.store.Objects()
	if err != nil {
		s.fail(w, err)
		return
	}
	if names == nil {
		names = []string{}
	}
	writeJSON(w, names)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
