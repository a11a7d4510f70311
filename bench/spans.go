package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A span is one layer's share of one operation. Four boundaries record
// them, all from bench files: the load generator's op, a middleware
// around Gateway.Handler(), a RoundTripper under the gateway's shard
// client, and a middleware around each node.Server.Handler().
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"` // the span that caused this one
	Op     int32  `json:"op"`               // the load generator span the tree hangs from
	Layer  string `json:"layer"`            // loadgen, gateway, client, node
	Name   string `json:"name"`             // op class, or the shard-API route
	Key    string `json:"key,omitempty"`    // object[/shard index]
	Node   string `json:"node,omitempty"`   // client and node spans: the node's address
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Header is when the response header reached the client (client
	// spans only).
	Header int64 `json:"header_ns,omitempty"`
	// Bytes is body bytes in both directions.
	Bytes  int64 `json:"bytes,omitempty"`
	Dialed bool  `json:"dialed,omitempty"` // the request opened a new connection
	Failed bool  `json:"failed,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

const (
	layerLoadgen = "loadgen"
	layerGateway = "gateway"
	layerClient  = "client"
	layerNode    = "node"
)

// spanHeader carries "<span id>.<op id>" of the caller to the next
// boundary. The gateway does not forward headers to its shard
// requests, so those are tied to their op by the object name in the
// URL instead (see claim).
const spanHeader = "X-Bench-Span"

// recorder keeps spans in memory until the run ends. While off, every
// boundary passes straight through.
type recorder struct {
	on     atomic.Bool
	epoch  time.Time
	nextID atomic.Int32

	mu     sync.Mutex
	spans  []span
	owners map[string][2]int32 // object name -> {span, op} its shard requests belong to
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), owners: make(map[string][2]int32)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) newID() int32 { return r.nextID.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// claim names the span that shard requests for object belong to until
// release. No two in-flight ops touch one object, so the name is
// unambiguous.
func (r *recorder) claim(object string, spanID, op int32) {
	r.mu.Lock()
	r.owners[object] = [2]int32{spanID, op}
	r.mu.Unlock()
}

func (r *recorder) release(object string) {
	r.mu.Lock()
	delete(r.owners, object)
	r.mu.Unlock()
}

func (r *recorder) owner(object string) (spanID, op int32) {
	r.mu.Lock()
	o := r.owners[object]
	r.mu.Unlock()
	return o[0], o[1]
}

func setSpanHeader(h http.Header, spanID, op int32) {
	h.Set(spanHeader, fmt.Sprintf("%d.%d", spanID, op))
}

func parseSpanHeader(h http.Header) (spanID, op int32) {
	a, b, _ := strings.Cut(h.Get(spanHeader), ".")
	x, _ := strconv.Atoi(a)
	y, _ := strconv.Atoi(b)
	return int32(x), int32(y)
}

// route splits a shard-API or object-API path into a route name and
// the object[/index] it addresses.
func route(method, path string) (name, object, key string) {
	parts := strings.Split(strings.TrimPrefix(path, "/v1/"), "/")
	kind := parts[0]
	if len(parts) > 1 {
		object = parts[1]
		key = strings.Join(parts[1:], "/")
	}
	if kind == "shard" || kind == "object" {
		kind += "_" + strings.ToLower(method)
	}
	return kind, object, key
}

// countingBody counts the bytes read through a body; finish fires once,
// at EOF or Close, whichever comes first. Close may race a blocked Read
// (the decoder abandons stragglers that way), hence the atomics.
type countingBody struct {
	rc     io.ReadCloser
	n      atomic.Int64
	done   atomic.Bool
	finish func(n int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n.Add(int64(n))
	if err != nil {
		b.end()
	}
	return n, err
}

func (b *countingBody) Close() error {
	err := b.rc.Close()
	b.end()
	return err
}

func (b *countingBody) end() {
	if b.finish != nil && !b.done.Swap(true) {
		b.finish(b.n.Load())
	}
}

// transport wraps the gateway's shard transport: one client span per
// request, from RoundTrip to body EOF or close.
func (r *recorder) transport(base http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if !r.on.Load() {
			return base.RoundTrip(req)
		}
		name, object, key := route(req.Method, req.URL.Path)
		parent, op := r.owner(object)
		sp := span{ID: r.newID(), Parent: parent, Op: op, Layer: layerClient,
			Name: name, Key: key, Node: req.URL.Host, Start: r.now()}
		var dialed atomic.Bool
		ctx := httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GotConn: func(info httptrace.GotConnInfo) { dialed.Store(!info.Reused) },
		})
		out := req.Clone(ctx)
		setSpanHeader(out.Header, sp.ID, op)
		var sent *countingBody
		if req.Body != nil {
			sent = &countingBody{rc: req.Body}
			out.Body = sent
		}
		sentBytes := func() int64 {
			if sent == nil {
				return 0
			}
			return sent.n.Load()
		}
		resp, err := base.RoundTrip(out)
		sp.Dialed = dialed.Load()
		if err != nil {
			sp.End, sp.Failed, sp.Bytes = r.now(), true, sentBytes()
			r.add(sp)
			return nil, err
		}
		sp.Header = r.now()
		sp.Failed = resp.StatusCode >= 400
		resp.Body = &countingBody{rc: resp.Body, finish: func(n int64) {
			sp.End, sp.Bytes = r.now(), sentBytes()+n
			r.add(sp)
		}}
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// statusWriter records what a handler wrote. ReadFrom is passed through
// so a handler's io.Copy from a file keeps the sendfile path it has
// without the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
	n      int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *statusWriter) ReadFrom(src io.Reader) (int64, error) {
	n, err := w.ResponseWriter.(io.ReaderFrom).ReadFrom(src) // net/http's writer implements it
	w.n += n
	return n, err
}

// serverSpan runs h under a span of the given layer whose parent comes
// from the request's span header.
func (r *recorder) serverSpan(layer string, h http.Handler, w http.ResponseWriter, req *http.Request) {
	name, object, key := route(req.Method, req.URL.Path)
	parent, op := parseSpanHeader(req.Header)
	sp := span{ID: r.newID(), Parent: parent, Op: op, Layer: layer, Name: name, Key: key, Start: r.now()}
	switch {
	case layer == layerNode:
		sp.Node = req.Host
	case object != "":
		r.claim(object, sp.ID, op)
		defer r.release(object)
	}
	body := &countingBody{rc: req.Body}
	req.Body = body
	sw := &statusWriter{ResponseWriter: w}
	defer func() {
		// Recorded on the way out of a panic too: the gateway aborts a
		// truncated response with http.ErrAbortHandler.
		sp.End, sp.Bytes = r.now(), sw.n+body.n.Load()
		sp.Failed = sw.status >= 400
		r.add(sp)
	}()
	h.ServeHTTP(sw, req)
}

// middleware wraps a node's (layerNode) or the gateway's (layerGateway)
// handler.
func (r *recorder) middleware(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		r.serverSpan(layer, h, w, req)
	})
}

// all returns the spans recorded so far, in start order.
func (r *recorder) all() []span {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	return spans
}

// writeSpans dumps spans as one JSON document.
func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// covered returns how much of [lo, hi) the intervals cover, counting
// overlaps once.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	at := lo
	for _, iv := range ivs {
		s, e := iv[0], iv[1]
		if s < at {
			s = at
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// selfTime is a span's duration minus the part of it its children
// cover.
func selfTime(s *span, children []*span) time.Duration {
	return s.dur() - childTime(s, children)
}

// childTime is the part of a span's interval its children cover.
func childTime(s *span, children []*span) time.Duration {
	ivs := make([][2]int64, len(children))
	for i, c := range children {
		ivs[i] = [2]int64{c.Start, c.End}
	}
	return time.Duration(covered(s.Start, s.End, ivs))
}

// spanMetrics derives the per-layer span metrics of one traced window.
// k is the number of shards a read needs; mixed says the run was
// small_mixed, the one workload with per-class gateway times. A load generator span's Bytes
// is the user payload the op moved (rebuilt bytes for a repair).
func spanMetrics(spans []span, k int, mixed bool) map[string]float64 {
	children := make(map[int32][]*span)
	var ops []*span
	for i := range spans {
		s := &spans[i]
		if s.Layer == layerLoadgen {
			ops = append(ops, s)
		} else if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}

	var gwSelf, fanout, openK, slowest, wire []float64
	var scanMsPerObject []float64
	byClass := map[string][]float64{}
	serve := map[string][]float64{}
	var requests, dials, retries, failed, shardBytes, userBytes int64
	var counted int // ops the per-op ratios are over

	for _, op := range ops {
		// The span whose children are the shard requests: the gateway
		// handler for HTTP ops, the op itself when the load generator
		// calls the cluster package directly (repair, scan).
		owner := op
		for _, c := range children[op.ID] {
			if c.Layer == layerGateway {
				owner = c
			}
		}
		var clients []*span
		for _, c := range children[owner.ID] {
			if c.Layer == layerClient {
				clients = append(clients, c)
			}
		}
		if op.Name == opScan.String() {
			objects := map[string]bool{}
			for _, c := range clients {
				if c.Name == "scrub" {
					objects[strings.SplitN(c.Key, "/", 2)[0]] = true
				}
			}
			if len(objects) > 0 {
				scanMsPerObject = append(scanMsPerObject, ms(op.dur())/float64(len(objects)))
			}
			continue
		}
		counted++
		userBytes += op.Bytes
		gwSelf = append(gwSelf, ms(selfTime(owner, clients)))
		fanout = append(fanout, ms(childTime(owner, clients)))
		if mixed && owner != op {
			byClass[op.Name] = append(byClass[op.Name], ms(owner.dur()))
		}

		seen := map[string]bool{}
		var headers, bodies []float64
		for _, c := range clients {
			requests++
			shardBytes += c.Bytes
			if c.Dialed {
				dials++
			}
			if c.Failed {
				failed++
			}
			if id := c.Name + " " + c.Key; seen[id] {
				retries++
			} else {
				seen[id] = true
			}
			if c.Name == "shard_get" || c.Name == "shard_put" {
				bodies = append(bodies, float64(c.dur()))
			}
			if c.Name == "shard_get" && c.Header > 0 {
				headers = append(headers, float64(c.Header-owner.Start))
			}
			for _, n := range children[c.ID] {
				if n.Layer != layerNode {
					continue
				}
				serve[n.Name] = append(serve[n.Name], ms(n.dur()))
				wire = append(wire, ms(c.dur()-n.dur()))
				if n.Failed && !c.Failed {
					failed++
				}
			}
		}
		if op.Name != opPut.String() && len(headers) >= k {
			sort.Float64s(headers)
			openK = append(openK, headers[k-1]/1e6)
		}
		if len(bodies) > 1 {
			sort.Float64s(bodies)
			if med := median(bodies); med > 0 {
				slowest = append(slowest, bodies[len(bodies)-1]/med)
			}
		}
	}

	perOp := func(n int64) float64 {
		if counted == 0 {
			return 0
		}
		return float64(n) / float64(counted)
	}
	m := map[string]float64{
		"cluster.gateway_self_ms_p50":       median(gwSelf),
		"cluster.fanout_ms_p50":             median(fanout),
		"cluster.open_k_ms_p50":             median(openK),
		"cluster.shard_requests_per_op":     perOp(requests),
		"cluster.conn_dials_per_op":         perOp(dials),
		"cluster.shard_retries_per_op":      perOp(retries),
		"cluster.scan_ms_per_object":        median(scanMsPerObject),
		"cluster.small_get_ms_p50":          median(byClass[opGet.String()]),
		"cluster.small_put_ms_p50":          median(byClass[opPut.String()]),
		"cluster.range_get_ms_p50":          median(byClass[opRange.String()]),
		"node.serve_put_ms_p50":             median(serve["shard_put"]),
		"node.serve_get_ms_p50":             median(serve["shard_get"]),
		"node.serve_stat_ms_p50":            median(serve["stat"]),
		"node.wire_ms_p50":                  median(wire),
		"node.slowest_shard_ratio_p50":      median(slowest),
		"node.requests_failed":              float64(failed),
		"cluster.shard_bytes_per_user_byte": 0,
	}
	if userBytes > 0 {
		m["cluster.shard_bytes_per_user_byte"] = float64(shardBytes) / float64(userBytes)
	}
	return m
}
