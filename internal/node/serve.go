package node

import (
	"context"
	"errors"
	"net"
	"net/http"
	"os/signal"
	"syscall"
	"time"
)

// DefaultDrainTimeout bounds how long a shutting-down server waits for
// in-flight requests to finish before the process exits anyway.
const DefaultDrainTimeout = 10 * time.Second

// SignalContext returns a context cancelled on SIGINT or SIGTERM —
// the trigger dialga-node hands to Serve for graceful shutdown.
func SignalContext(parent context.Context) (context.Context, context.CancelFunc) {
	return signal.NotifyContext(parent, syscall.SIGINT, syscall.SIGTERM)
}

// Serve runs srv until it fails or ctx is cancelled, then drains:
// the listener closes immediately (no new connections) while in-flight
// requests get up to DefaultDrainTimeout to finish via
// http.Server.Shutdown. A clean shutdown returns nil, never
// http.ErrServerClosed. When ln is nil, Serve listens on srv.Addr.
func Serve(ctx context.Context, srv *http.Server, ln net.Listener) error {
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
		sctx, cancel := context.WithTimeout(context.Background(), DefaultDrainTimeout)
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
