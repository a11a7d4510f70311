package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"dialga/internal/node"
)

// Handler returns the gateway's object API:
//
//	PUT    /v1/object/{object}     store an object (Content-Length required)
//	GET    /v1/object/{object}     fetch an object (honors single-range Range: headers)
//	DELETE /v1/object/{object}     delete an object's shards
//	GET    /v1/objects/all         cluster-wide object listing
//	GET    /v1/placement/{object}  the object's shard placement as JSON
//	GET    /v1/cluster/map         the serving cluster map with its epoch, and the sidelined nodes
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /v1/object/{object}", g.handlePut)
	mux.HandleFunc("GET /v1/object/{object}", g.handleGet)
	mux.HandleFunc("DELETE /v1/object/{object}", g.handleDelete)
	mux.HandleFunc("GET /v1/cluster/map", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, struct {
			MapInfo
			// Sidelined lists the nodes reads currently ask last, each
			// with what is left of its cooldown.
			Sidelined []sidelinedNode `json:"sidelined"`
		}{g.Map().Info(), g.router.sidelinedNodes()})
	})
	mux.HandleFunc("GET /v1/objects/all", func(w http.ResponseWriter, r *http.Request) {
		names, err := g.Objects(r.Context())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		if names == nil {
			names = []string{}
		}
		writeJSON(w, names)
	})
	mux.HandleFunc("GET /v1/placement/{object}", func(w http.ResponseWriter, r *http.Request) {
		p, err := g.Place(r.PathValue("object"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		writeJSON(w, p)
	})
	return mux
}

func (g *Gateway) handlePut(w http.ResponseWriter, r *http.Request) {
	object := r.PathValue("object")
	if r.ContentLength < 0 {
		http.Error(w, "object put requires Content-Length", http.StatusLengthRequired)
		return
	}
	p, err := g.PutObject(r.Context(), object, r.Body, r.ContentLength, node.Class(r))
	if err != nil {
		gatewayFail(w, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, p)
}

func (g *Gateway) handleGet(w http.ResponseWriter, r *http.Request) {
	object := r.PathValue("object")
	class := node.Class(r)

	var o *ObjectRead
	var err error
	if off, length, ok := parseRange(r.Header.Get("Range")); ok {
		o, err = g.OpenObjectRange(r.Context(), object, off, length, class)
		var re *RangeError
		if errors.As(err, &re) {
			w.Header().Set("Content-Range", fmt.Sprintf("bytes */%d", re.Size))
			http.Error(w, err.Error(), http.StatusRequestedRangeNotSatisfiable)
			return
		}
	} else {
		o, err = g.OpenObject(r.Context(), object, class)
	}
	if err != nil {
		gatewayFail(w, err)
		return
	}

	// Everything the client needs to detect a truncated response goes
	// out before the first payload byte: the shards are open, so the
	// exact length is known up front.
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Accept-Ranges", "bytes")
	h.Set("Content-Length", strconv.FormatInt(o.Length(), 10))
	if o.Ranged() {
		h.Set("Content-Range",
			fmt.Sprintf("bytes %d-%d/%d", o.Off(), o.Off()+o.Length()-1, o.Size()))
		w.WriteHeader(http.StatusPartialContent)
	}

	cw := &countWriter{w: w}
	if err := o.WriteTo(r.Context(), cw); err != nil {
		if cw.n == 0 && !o.Ranged() {
			// Nothing on the wire yet; a clean error response is still
			// possible.
			gatewayFail(w, err)
			return
		}
		// The status line (and possibly payload bytes) already went
		// out. Error prose appended now would be indistinguishable
		// from object data, so kill the connection instead: the
		// Content-Length mismatch tells the client it was truncated.
		panic(http.ErrAbortHandler)
	}
}

// countWriter tallies payload bytes already written to the client, so
// the handler knows whether an error can still become a status code.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func (g *Gateway) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := g.DeleteObject(r.Context(), r.PathValue("object"), node.Class(r)); err != nil {
		gatewayFail(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func gatewayFail(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, node.ErrNotFound):
		http.Error(w, err.Error(), http.StatusNotFound)
	default:
		http.Error(w, err.Error(), http.StatusBadGateway)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
