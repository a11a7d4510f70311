// Package vclock is a minimal virtual-clock seam: an interface over
// time.Now / time.NewTimer / time.After with a real implementation and
// a deterministic fake.
//
// The shard-read scheduler (internal/stream), the gateway's sideliner
// (internal/cluster), and their tests all take a Clock instead of
// calling the time package directly, so every time-driven decision —
// breaker cooldowns, hedge deadlines, sideline probes — can be
// replayed exactly from a scripted schedule with no real sleeping. A
// nil Clock everywhere means "wall clock", so production code pays one
// nil check and no behaviour change.
package vclock

import (
	"bytes"
	"runtime"
	"sync"
	"time"
)

// Clock is the time source. Implementations must be safe for
// concurrent use.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// NewTimer returns a timer that fires once after d.
	NewTimer(d time.Duration) Timer
	// After returns a channel that receives the fire time once d has
	// elapsed.
	After(d time.Duration) <-chan time.Time
}

// Timer is the injectable face of *time.Timer. Stop and Reset carry
// the *time.Timer contract: Reset must only be called on stopped or
// drained timers.
type Timer interface {
	C() <-chan time.Time
	Stop() bool
	Reset(d time.Duration)
}

// Real returns the wall-clock implementation.
func Real() Clock { return realClock{} }

// OrReal returns c, or the wall clock when c is nil — the one-liner
// every Options.Clock consumer uses.
func OrReal(c Clock) Clock {
	if c == nil {
		return realClock{}
	}
	return c
}

type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) NewTimer(d time.Duration) Timer         { return realTimer{time.NewTimer(d)} }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

type realTimer struct{ t *time.Timer }

func (t realTimer) C() <-chan time.Time   { return t.t.C }
func (t realTimer) Stop() bool            { return t.t.Stop() }
func (t realTimer) Reset(d time.Duration) { t.t.Reset(d) }

// Fake is a deterministic Clock: time advances only when a test calls
// Advance (or runs Pump), and every timer whose deadline is reached fires
// synchronously inside that call, in deadline order. All methods
// are safe for concurrent use.
type Fake struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*fakeWaiter
	armed   *sync.Cond // signalled whenever a timer is armed; Pump waits on it
}

// NewFake returns a fake clock starting at a fixed, arbitrary epoch
// (determinism beats realism: the same test run always sees the same
// absolute times).
func NewFake() *Fake {
	f := &Fake{now: time.Unix(1_700_000_000, 0)}
	f.armed = sync.NewCond(&f.mu)
	return f
}

// fakeWaiter is one pending timer/After registration.
type fakeWaiter struct {
	at   time.Time
	ch   chan time.Time
	dead bool
}

func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// Advance moves the clock forward by d, firing due timers in deadline
// order.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.advanceTo(f.now.Add(d))
}

// advanceTo fires waiters in deadline order up to target; caller holds
// f.mu. Sends are non-blocking after the first buffered slot: timer
// channels have capacity 1 like the time package's.
func (f *Fake) advanceTo(target time.Time) {
	for {
		next := f.next()
		if next == nil || next.at.After(target) {
			break
		}
		f.now = next.at
		select {
		case next.ch <- next.at:
		default:
		}
		next.dead = true
	}
	if target.After(f.now) {
		f.now = target
	}
	f.gc()
}

// gc drops dead waiters; caller holds f.mu.
func (f *Fake) gc() {
	live := f.waiters[:0]
	for _, w := range f.waiters {
		if !w.dead {
			live = append(live, w)
		}
	}
	f.waiters = live
}

// next returns the live waiter with the earliest deadline, nil when
// none is pending; caller holds f.mu.
func (f *Fake) next() *fakeWaiter {
	var next *fakeWaiter
	for _, w := range f.waiters {
		if !w.dead && (next == nil || w.at.Before(next.at)) {
			next = w
		}
	}
	return next
}

// pumpSettle is the real time Pump lets the code under test run before
// it looks whether that code has parked: in-memory reads and small
// stripes take microseconds, so it is ample, and a virtual second still
// costs only milliseconds.
const pumpSettle = 500 * time.Microsecond

// pumpPatience bounds the real time Pump waits for the code under test
// to park before it jumps anyway: a goroutine that never parks (a spin)
// slows each jump by at most this much instead of stopping the clock.
const pumpPatience = time.Second

// Pump makes the clock run itself, for tests that drive goroutines they
// cannot script step by step (a whole decode pipeline): whenever a timer
// is pending it lets the code under test run until no goroutine but its
// own is running or waiting to run (looking every pumpSettle of real
// time), then jumps to the earliest pending deadline, so virtual time
// passes only while everyone is parked, and costs no more real time than
// the events in it. A loaded machine that deschedules the code under
// test therefore delays the jump instead of firing a deadline before
// the reads it judges have started. The returned stop ends the pump and
// waits for it.
func (f *Fake) Pump() (stop func()) {
	stopped := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		var dump []byte
		f.mu.Lock()
		defer f.mu.Unlock()
		for !stopped {
			if f.next() == nil {
				f.armed.Wait()
				continue
			}
			// Unlocked while looking: a goroutine about to arm a timer
			// must not be seen parked on f.mu.
			f.mu.Unlock()
			for waited := time.Duration(0); ; waited += pumpSettle {
				time.Sleep(pumpSettle)
				if waited >= pumpPatience || !othersBusy(&dump) {
					break
				}
			}
			f.mu.Lock()
			if w := f.next(); w != nil && !stopped {
				f.advanceTo(w.at)
			}
		}
	}()
	return func() {
		f.mu.Lock()
		stopped = true
		f.armed.Broadcast()
		f.mu.Unlock()
		<-done
	}
}

// othersBusy reports whether any goroutine but the caller is running,
// waiting to run or in a system call, from the state in each
// goroutine's header of a full stack dump ("goroutine 7 [select]:").
// buf is the dump's buffer, grown as needed and kept between calls.
func othersBusy(buf *[]byte) bool {
	n := runtime.Stack(*buf, true)
	for n == len(*buf) {
		*buf = make([]byte, 2*len(*buf)+64<<10)
		n = runtime.Stack(*buf, true)
	}
	dump, caller := (*buf)[:n], true // the caller's own trace comes first
	for len(dump) > 0 {
		var line []byte
		line, dump, _ = bytes.Cut(dump, []byte("\n"))
		if !bytes.HasPrefix(line, []byte("goroutine ")) {
			continue
		}
		if caller {
			caller = false
			continue
		}
		_, state, _ := bytes.Cut(line, []byte("["))
		state, _, _ = bytes.Cut(state, []byte("]"))
		state, _, _ = bytes.Cut(state, []byte(","))
		switch string(state) {
		case "running", "runnable", "preempted", "syscall", "copystack":
			return true
		}
	}
	return false
}

func (f *Fake) NewTimer(d time.Duration) Timer {
	w := &fakeWaiter{ch: make(chan time.Time, 1)}
	f.mu.Lock()
	w.at = f.now.Add(d)
	f.waiters = append(f.waiters, w)
	f.armed.Broadcast()
	if d <= 0 {
		f.advanceTo(f.now)
	}
	f.mu.Unlock()
	return &fakeTimer{f: f, w: w}
}

func (f *Fake) After(d time.Duration) <-chan time.Time {
	return f.NewTimer(d).C()
}

type fakeTimer struct {
	f *Fake
	w *fakeWaiter
}

func (t *fakeTimer) C() <-chan time.Time { return t.w.ch }

func (t *fakeTimer) Stop() bool {
	t.f.mu.Lock()
	defer t.f.mu.Unlock()
	active := !t.w.dead
	t.w.dead = true
	return active
}

func (t *fakeTimer) Reset(d time.Duration) {
	t.f.mu.Lock()
	t.w.dead = false
	t.w.at = t.f.now.Add(d)
	// Reset may revive a fired (gc'd) waiter: re-register if absent.
	found := false
	for _, w := range t.f.waiters {
		if w == t.w {
			found = true
			break
		}
	}
	if !found {
		t.f.waiters = append(t.f.waiters, t.w)
	}
	t.f.armed.Broadcast()
	t.f.mu.Unlock()
}
