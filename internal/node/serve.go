package node

import (
	"context"
	"errors"
	"net"
	"net/http"
	"os/signal"
	"sync"
	"syscall"
	"time"
)

// drainTimeout bounds how long a shutting-down server waits for
// in-flight requests to finish before the process exits anyway.
const drainTimeout = 10 * time.Second

// SignalContext returns a context cancelled on SIGINT or SIGTERM —
// the trigger dialga-node hands to Serve for graceful shutdown.
func SignalContext(parent context.Context) (context.Context, context.CancelFunc) {
	return signal.NotifyContext(parent, syscall.SIGINT, syscall.SIGTERM)
}

// Serve runs srv until it fails or ctx is cancelled, then drains:
// the listener closes immediately (no new connections) while in-flight
// requests get up to drainTimeout to finish via
// http.Server.Shutdown. A connection that has not sent a request yet
// is closed at once (Serve sets srv.ConnState to track them): Shutdown
// alone would wait five seconds for one, and a client's dial race or
// cancelled request leaves such connections behind. A clean shutdown
// returns nil, never http.ErrServerClosed. When ln is nil, Serve
// listens on srv.Addr.
func Serve(ctx context.Context, srv *http.Server, ln net.Listener) error {
	fresh := &freshConns{conns: map[net.Conn]bool{}}
	srv.ConnState = fresh.track
	srv.RegisterOnShutdown(fresh.closeAll)
	errc := make(chan error, 1)
	go func() {
		if ln != nil {
			errc <- srv.Serve(ln)
			return
		}
		errc <- srv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		err := srv.Shutdown(sctx)
		<-errc // collect the Serve goroutine's ErrServerClosed
		if errors.Is(err, context.DeadlineExceeded) {
			// Drain window elapsed with requests still in flight: cut
			// them off rather than hanging the process forever.
			srv.Close()
			return nil
		}
		return err
	}
}

// freshConns tracks a server's connections that have not sent a
// request, so that shutdown can close them.
type freshConns struct {
	mu     sync.Mutex
	conns  map[net.Conn]bool
	closed bool
}

func (f *freshConns) track(c net.Conn, s http.ConnState) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case s != http.StateNew:
		delete(f.conns, c)
	case f.closed: // accepted as the listener closed
		c.Close()
	default:
		f.conns[c] = true
	}
}

func (f *freshConns) closeAll() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	for c := range f.conns {
		c.Close()
	}
	clear(f.conns)
}
