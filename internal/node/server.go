package node

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"dialga/internal/obs"
)

// Traffic classes. Every shard request carries one in the
// classHeader; the node's admission control meters each class through
// its own token bucket and holds repair back while it slows foreground
// reads, so background repair can never starve foreground serving.
const (
	// ClassForeground is user-facing traffic: object puts/gets and the
	// shard I/O they fan out into. The default when no class header is
	// present.
	ClassForeground = "foreground"
	// ClassRepair is background reconstruction traffic: scrub reads
	// and rebuilt-shard writes issued by the repair queue.
	ClassRepair = "repair"
)

// classHeader is the HTTP header naming a request's traffic class.
const classHeader = "X-Dialga-Class"

// Admitter is the node's admission-control hook. It is a tiny
// interface so the data plane does not depend on the control plane —
// internal/cluster's Limiter implements it, and a nil Admitter admits
// everything.
type Admitter interface {
	// Admit blocks until a request of class may be served, or until
	// ctx ends.
	Admit(ctx context.Context, class string) error
	// Served takes a foreground shard GET that served blocks: its time
	// from admission to the handler's return per block, and whether a
	// repair-class request was served on the node while it ran.
	Served(perBlock time.Duration, loaded bool)
}

// Server is a node's HTTP API over its local shard store.
//
// Wire format (all bodies are exact shardfile bytes — a v3 or v4
// header + checksummed blocks — except where noted):
//
//	PUT    /v1/shard/{object}/{idx}   store one shard (validated, atomic)
//	GET    /v1/shard/{object}/{idx}   fetch one shard: the header, then the blocks carrying
//	                                  object bytes ?off=N&len=M (default: all of them;
//	                                  ?off=0&len=0 is the header alone)
//	DELETE /v1/shard/{object}/{idx}   drop one shard (idempotent)
//	GET    /v1/scrub/{object}/{idx}   check every block trailer server-side, then send
//	                                  the header alone, as ?off=0&len=0 does
//	GET    /v1/objects                stored object names as JSON
//	GET    /healthz                   liveness
//	GET    /metrics                   Prometheus text exposition
//
// A shard GET or scrub of a missing shard is a 404, and of a damaged one
// (ErrDamaged: torn, misplaced, unreadable, a bad header or, from the
// scrub, a block that fails its trailer) a 409 whose body begins with
// the shardfile.ShardStatus and a colon. Neither is the node's fault.
//
// Every /v1 request passes admission control for its traffic class
// (classHeader, default foreground); a request the limiter cannot
// cover before its context ends gets 429. Every foreground shard GET
// that serves blocks is reported to the Admitter (Served).
type Server struct {
	store *Store
	admit Admitter
	reg   *obs.Registry

	// Repair-class requests past admission: a GET ran beside one iff
	// more had begun by its end than had ended by its start.
	repairsBegun, repairsEnded atomic.Uint64
}

// NewServer wires a store, an optional admission controller, and an
// optional metrics registry (also served at /metrics) into a Server.
func NewServer(store *Store, admit Admitter, reg *obs.Registry) *Server {
	return &Server{store: store, admit: admit, reg: reg}
}

// Handler returns the node's routing table. It resolves every series
// its routes count, so a request looks none up.
func (s *Server) Handler() http.Handler {
	throttled := s.perClass("node_throttled_total",
		"Shard-API requests rejected by admission control, by traffic class.")
	mux := http.NewServeMux()
	admitted := func(route string, h http.HandlerFunc) http.HandlerFunc {
		requests := s.perClass("node_requests_total",
			"Shard-API requests served, by route and traffic class.",
			obs.Label{Key: "route", Value: route})
		return s.withAdmission(requests, throttled, h)
	}
	mux.HandleFunc("PUT /v1/shard/{object}/{idx}", admitted("shard_put", s.handlePut))
	mux.HandleFunc("GET /v1/shard/{object}/{idx}", admitted("shard_get", s.handleGet))
	mux.HandleFunc("DELETE /v1/shard/{object}/{idx}", admitted("shard_delete", s.handleDelete))
	mux.HandleFunc("GET /v1/scrub/{object}/{idx}", admitted("scrub", s.handleScrub))
	mux.HandleFunc("GET /v1/objects", admitted("objects", s.handleObjects))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.Handle("GET /metrics", s.reg.Handler())
	return mux
}

// Class extracts a request's traffic class, defaulting unknown or
// absent values to foreground.
func Class(r *http.Request) string {
	if c := r.Header.Get(classHeader); c == ClassRepair {
		return ClassRepair
	}
	return ClassForeground
}

// byClass is one series per traffic class: foreground, then repair.
type byClass [2]*obs.Counter

func (c byClass) of(class string) *obs.Counter {
	if class == ClassRepair {
		return c[1]
	}
	return c[0]
}

// perClass resolves a counter's series for both traffic classes.
func (s *Server) perClass(name, help string, labels ...obs.Label) byClass {
	var c byClass
	for i, class := range []string{ClassForeground, ClassRepair} {
		c[i] = s.reg.Counter(name, help, append(labels, obs.Label{Key: "class", Value: class})...)
	}
	return c
}

// withAdmission meters a handler: one admission token per request in
// the request's class, counted in requests, and in throttled when
// admission refuses it.
func (s *Server) withAdmission(requests, throttled byClass, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		class := Class(r)
		requests.of(class).Inc()
		if s.admit != nil {
			if err := s.admit.Admit(r.Context(), class); err != nil {
				throttled.of(class).Inc()
				http.Error(w, "admission: "+err.Error(), http.StatusTooManyRequests)
				return
			}
		}
		if class == ClassRepair {
			s.repairsBegun.Add(1)
			defer s.repairsEnded.Add(1)
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
	case errors.Is(err, ErrDamaged):
		http.Error(w, err.Error(), http.StatusConflict)
	case errors.Is(err, errBadShard):
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

// handleGet serves a shard's header, then the blocks that carry the
// object bytes ?off=N&len=M asks for, which the store cuts from the
// shard's own header (shardfile.Header.Cut; no query is the whole
// shard, and a range the object cannot satisfy gets the header alone).
// The blocks go out as an *io.LimitedReader over the open file, bounded
// to the window's length. A LimitedReader has no WriteTo, so io.Copy
// hands it to the response's ReadFrom, and net/http's TCP connection
// sends it by sendfile(2), with no copy through user space. io.Copy(w,
// f) misses that: it prefers the file's WriteTo, which cannot see the
// socket behind a ResponseWriter and falls back to a wrapper sendfile
// refuses, so every byte goes through a 32 KiB buffer.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	start, repairsEnded := time.Now(), s.repairsEnded.Load()
	object, idx, ok := shardParams(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	off, offOK := intParam(q.Get("off"), 0)
	length, lenOK := intParam(q.Get("len"), -1)
	if !offOK || !lenOK {
		http.Error(w, "bad off or len parameter", http.StatusBadRequest)
		return
	}
	h, f, n, err := s.store.GetAt(object, idx, off, length)
	if err != nil {
		s.fail(w, err)
		return
	}
	defer f.Close()
	if blocks := n / h.BlockSize(); blocks > 0 && s.admit != nil && Class(r) == ClassForeground {
		defer func() {
			s.admit.Served(time.Since(start)/time.Duration(blocks), s.repairsBegun.Load() > repairsEnded)
		}()
	}
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

// intParam parses a query parameter as an int64, def when it is absent.
func intParam(v string, def int64) (int64, bool) {
	if v == "" {
		return def, true
	}
	n, err := strconv.ParseInt(v, 10, 64)
	return n, err == nil
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

// handleScrub checks every block trailer of one shard and answers a
// clean shard with its header, the way a header-only shard GET does.
func (s *Server) handleScrub(w http.ResponseWriter, r *http.Request) {
	object, idx, ok := shardParams(w, r)
	if !ok {
		return
	}
	h, err := s.store.Scrub(object, idx)
	if err != nil {
		s.fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(h.Size(), 10))
	w.Write(h.Marshal())
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
