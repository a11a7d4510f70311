package stream

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
)

// PanicError is a panic recovered from a pipeline-stage or shard-reader
// goroutine and surfaced as an ordinary error instead of killing the
// process. Counted in Stats.WorkerPanics.
type PanicError struct {
	Stage string // which goroutine panicked, e.g. "shard 3 reader"
	Value any    // the recovered panic value
	Stack []byte // stack captured at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic in %s: %v", e.Stage, e.Value)
}

// job is one stripe moving through the pipeline. The producer fills
// seq/enc/blocks/n, a worker fills the parity/err and signals ready, and
// the consumer waits on ready before emitting — so every field is
// written before the channel operation that publishes it and no field
// needs a lock.
//
// Jobs are pooled: ready is a persistent capacity-1 channel signalled
// exactly once per cycle (the consumer's receive drains it before the
// job returns to the pool), and the scratch slices below keep their
// capacity so the steady-state per-stripe path never allocates.
type job struct {
	seq   int64
	ready chan struct{} // receives one value once the worker (or an abort) is done
	err   error         // sticky per-job failure, set before ready is signalled

	enc    *Stripe      // encoder: the stripe being encoded; nil once lent to the consumer
	buf    []byte       // rebuilder: the rebuilt block, trailer inline, from the allocator
	blocks [][]byte     // decoder: k+m full block slices, nil for missing shards
	stripe *shardStripe // decoder: gather result backing blocks; released with the job

	// Reusable per-job scratch, capacity preserved across pool cycles.
	dviews [][]byte // encoder: k data shard views into enc.data
	pviews [][]byte // encoder: m parity shard views into enc.parity
	sums   []uint32 // encoder: k+m fused CRC sums
	eras   []int    // decoder: indices handed spare output buffers from the allocator
}

// jobPool recycles jobs across stripes and pipelines. get returns a job
// whose ready channel is empty and whose transient fields are zeroed;
// scratch slices keep their capacity. A job holds no buffer while idle,
// so a sync.Pool of them pins nothing.
type jobPool struct{ p sync.Pool }

// jobs is the one job pool every pipeline in the process draws from.
var jobs jobPool

func (jp *jobPool) get() *job {
	j, _ := jp.p.Get().(*job)
	if j == nil {
		j = &job{ready: make(chan struct{}, 1)}
	}
	return j
}

func (jp *jobPool) put(j *job) {
	j.seq, j.err = 0, nil
	j.enc, j.buf = nil, nil
	clear(j.blocks) // the views must not pin buffers the allocator drops
	clear(j.dviews)
	clear(j.pviews)
	j.blocks = j.blocks[:0]
	j.dviews, j.pviews = j.dviews[:0], j.pviews[:0]
	j.eras = j.eras[:0]
	j.stripe = nil
	jp.p.Put(j)
}

// failFirst records the first error of the run and cancels the
// pipeline context exactly once.
type failFirst struct {
	mu     sync.Mutex
	err    error
	cancel context.CancelFunc
}

func (f *failFirst) set(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
	f.cancel()
}

func (f *failFirst) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// run drives a bounded, order-preserving pipeline:
//
//	produce (1 goroutine) -> work (workers goroutines) -> deliver (caller goroutine)
//
// produce creates jobs in sequence order and submits them via push;
// push blocks once 2*workers jobs are in flight (backpressure) and
// returns false when the pipeline is cancelled. work runs on any
// worker, concurrently and out of order. deliver runs on the calling
// goroutine strictly in submission order. release is called exactly
// once per submitted job, after deliver (or after the job is skipped),
// to recycle its buffers.
//
// The first error from any stage cancels the context, drains the
// remaining jobs without delivering them, and is returned after every
// goroutine has exited. A panic in produce or work is recovered into a
// *PanicError and fails the pipeline the same way — a buggy codec or
// reader implementation cannot take the process down or leak the
// pipeline's goroutines.
func run(parent context.Context, g geom, stats *counters,
	produce func(ctx context.Context, push func(*job) bool) error,
	work func(*job) error,
	deliver func(*job) error,
	release func(*job),
) error {
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	fail := &failFirst{cancel: cancel}

	recovered := func(stage string, p any) error {
		stats.workerPanics.Add(1)
		return &PanicError{Stage: stage, Value: p, Stack: debug.Stack()}
	}
	safeWork := func(j *job) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = recovered(fmt.Sprintf("worker (stripe %d)", j.seq), p)
			}
		}()
		return work(j)
	}

	workCh := make(chan *job)               // unbuffered: a successful send is a worker handoff
	orderCh := make(chan *job, 2*g.workers) // submission order; buffer bounds in-flight stripes

	var workers sync.WaitGroup
	workers.Add(g.workers)
	for i := 0; i < g.workers; i++ {
		go func() {
			defer workers.Done()
			for j := range workCh {
				if ctx.Err() != nil {
					j.err = ctx.Err()
				} else if err := safeWork(j); err != nil {
					j.err = err
					fail.set(err)
				}
				j.ready <- struct{}{}
			}
		}()
	}

	prodDone := make(chan struct{})
	go func() {
		defer close(prodDone)
		push := func(j *job) bool {
			select {
			case orderCh <- j:
			case <-ctx.Done():
				// Never entered the pipeline: recycle here.
				release(j)
				return false
			}
			select {
			case workCh <- j:
			case <-ctx.Done():
				// In orderCh but no worker will touch it; unblock
				// the consumer, which releases it.
				j.err = ctx.Err()
				j.ready <- struct{}{}
				return false
			}
			return true
		}
		err := func() (err error) {
			// Closing the channels inside the recovery scope (rather
			// than deferred around it) keeps the shutdown order fixed:
			// recover first, then release the workers and consumer.
			defer close(workCh)
			defer close(orderCh)
			defer func() {
				if p := recover(); p != nil {
					err = recovered("producer", p)
				}
			}()
			return produce(ctx, push)
		}()
		if err != nil {
			fail.set(err)
		}
	}()

	for j := range orderCh {
		// ready is always signalled exactly once: an unbuffered workCh
		// send means a worker holds the job (and signals it), and
		// aborted pushes signal it themselves. The receive drains the
		// capacity-1 channel, so the job can return to its pool.
		<-j.ready
		if j.err == nil && ctx.Err() == nil {
			if err := deliver(j); err != nil {
				fail.set(err)
			}
		}
		release(j)
	}
	workers.Wait()
	<-prodDone

	if err := fail.get(); err != nil {
		return err
	}
	return parent.Err()
}
