package node

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"dialga/internal/shardfile"
)

// NetError wraps a transport-level failure of a request (connection
// refused, reset, timeout) as transient: the remote node may answer a
// fresh request, so a put retries the upload, rebalance requeues the
// move, and the gateway's sideliner charges the failure to the node.
type NetError struct{ Err error }

func (e *NetError) Error() string { return "node: " + e.Err.Error() }

// Transient marks the failure as momentary, for the func Transient below.
func (e *NetError) Transient() bool { return true }

func (e *NetError) Unwrap() error { return e.Err }

// StatusError reports a non-2xx response from a peer. 404 matches
// ErrNotFound and 409 ErrDamaged; 429 (admission throttled) and 5xx are
// transient.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("node: remote returned %d: %s", e.Code, strings.TrimSpace(e.Msg))
}

// Transient reports whether a retry could plausibly succeed.
func (e *StatusError) Transient() bool {
	return e.Code == http.StatusTooManyRequests || e.Code >= 500
}

// Is makes a 404 StatusError match ErrNotFound, and a 409 ErrDamaged.
func (e *StatusError) Is(target error) bool {
	return target == ErrNotFound && e.Code == http.StatusNotFound ||
		target == ErrDamaged && e.Code == http.StatusConflict
}

// Transient reports whether err advertises itself as momentary via the
// Transient() bool convention (NetError, throttled/5xx StatusError,
// fault-injected errors). The cluster layer keys retry-vs-give-up
// decisions for shard uploads and moves off this.
func Transient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// Client talks the shard API to one node. The zero value is unusable;
// build one with NewClient. Safe for concurrent use.
type Client struct {
	base  string // "http://host:port"
	hc    *http.Client
	class string
}

// NewClient returns a client for the node at addr ("host:port" or a
// full http URL), sending foreground-class requests through
// http.DefaultClient.
func NewClient(addr string) *Client {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: http.DefaultClient, class: ClassForeground}
}

// WithClass returns a copy of the client tagging every request with
// the given traffic class (ClassForeground, ClassRepair).
func (c *Client) WithClass(class string) *Client {
	d := *c
	d.class = class
	return &d
}

// WithHTTPClient returns a copy of the client using hc for transport —
// the hook for timeouts, connection pools, and fault.Transport chaos.
func (c *Client) WithHTTPClient(hc *http.Client) *Client {
	d := *c
	d.hc = hc
	return &d
}

func (c *Client) shardURL(kind, object string, idx int) string {
	return fmt.Sprintf("%s/v1/%s/%s/%d", c.base, kind, url.PathEscape(object), idx)
}

// do runs one request, mapping transport failures to transient
// NetErrors and non-2xx responses to StatusErrors. On success the
// caller owns resp.Body.
func (c *Client) do(ctx context.Context, method, url string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	// net/http learns a body's length only from its own in-memory
	// readers, by their Len; any body that says how many bytes it has
	// left the same way is sent with a Content-Length too, not chunked.
	if l, ok := body.(interface{ Len() int }); ok {
		req.ContentLength = int64(l.Len())
	}
	req.Header.Set(classHeader, c.class)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, &NetError{Err: err}
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, &StatusError{Code: resp.StatusCode, Msg: string(msg)}
	}
	return resp, nil
}

// PutShard uploads exact shardfile bytes to the node's slot for
// (object, idx). A body with a Len() int method (the bytes it has left,
// as on a *bytes.Reader) is sent with that Content-Length; any other is
// chunked.
func (c *Client) PutShard(ctx context.Context, object string, idx int, body io.Reader) error {
	resp, err := c.do(ctx, http.MethodPut, c.shardURL("shard", object, idx), body)
	if err != nil {
		return err
	}
	return drainClose(resp.Body)
}

// GetShard fetches raw shardfile bytes (header included). The caller
// must Close the body.
func (c *Client) GetShard(ctx context.Context, object string, idx int) (io.ReadCloser, error) {
	resp, err := c.do(ctx, http.MethodGet, c.shardURL("shard", object, idx), nil)
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// OpenShard fetches a shard's header and the blocks that carry the
// object bytes [off, off+length) (see shardfile.Header.Cut for the
// conventions: (0, -1) is the whole shard, and a range the shard's
// object cannot satisfy brings the header alone). The node cuts the
// window from its own header, which the parsed header returned here
// describes in full. The body is positioned at the window's first
// block — the reader the streaming decoder's hedged reads and breakers
// drive directly. A read error from the body is the transport's own:
// the body cannot resume, so the decoder retires the shard. The caller
// must Close it.
func (c *Client) OpenShard(ctx context.Context, object string, idx int, off, length int64) (shardfile.Header, io.ReadCloser, error) {
	u := c.shardURL("shard", object, idx)
	if off != 0 || length >= 0 {
		u = fmt.Sprintf("%s?off=%d&len=%d", u, off, length)
	}
	return c.openHeader(ctx, u, object, idx)
}

// openHeader GETs u, a shard route of (object, idx), and parses the
// header its body begins with. The caller must Close the body.
func (c *Client) openHeader(ctx context.Context, u, object string, idx int) (shardfile.Header, io.ReadCloser, error) {
	resp, err := c.do(ctx, http.MethodGet, u, nil)
	if err != nil {
		return shardfile.Header{}, nil, err
	}
	body := resp.Body
	h, err := shardfile.Parse(body)
	if err != nil {
		body.Close()
		return shardfile.Header{}, nil, fmt.Errorf("node: shard %s/%d from %s: %w", object, idx, c.base, err)
	}
	return h, body, nil
}

// StatShard fetches a shard's parsed header: OpenShard's header-only
// window (0, 0). The node judges the file whole before it answers, as
// it does for every shard GET: a missing shard is ErrNotFound, a
// damaged one ErrDamaged.
func (c *Client) StatShard(ctx context.Context, object string, idx int) (shardfile.Header, error) {
	return c.header(ctx, c.shardURL("shard", object, idx)+"?off=0&len=0", object, idx)
}

// ScrubShard asks the node to check every block trailer of one shard
// server-side, and fetches its parsed header as StatShard does: a
// missing shard is ErrNotFound, and any damage, a block that fails its
// trailer included, ErrDamaged.
func (c *Client) ScrubShard(ctx context.Context, object string, idx int) (shardfile.Header, error) {
	return c.header(ctx, c.shardURL("scrub", object, idx), object, idx)
}

// header is openHeader for a header-only answer, closed once parsed.
func (c *Client) header(ctx context.Context, u, object string, idx int) (shardfile.Header, error) {
	h, body, err := c.openHeader(ctx, u, object, idx)
	if err != nil {
		return h, err
	}
	return h, drainClose(body)
}

// DeleteShard drops a shard (idempotent on the server).
func (c *Client) DeleteShard(ctx context.Context, object string, idx int) error {
	resp, err := c.do(ctx, http.MethodDelete, c.shardURL("shard", object, idx), nil)
	if err != nil {
		return err
	}
	return drainClose(resp.Body)
}

// Objects lists the object names the node stores shards for.
func (c *Client) Objects(ctx context.Context) ([]string, error) {
	return getJSON[[]string](ctx, c, c.base+"/v1/objects")
}

func getJSON[T any](ctx context.Context, c *Client, url string) (T, error) {
	var v T
	resp, err := c.do(ctx, http.MethodGet, url, nil)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return v, &NetError{Err: err}
	}
	return v, nil
}

func drainClose(body io.ReadCloser) error {
	io.Copy(io.Discard, io.LimitReader(body, 4096))
	return body.Close()
}
