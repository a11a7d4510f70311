package vclock

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestFakeTimerFiresOnAdvance(t *testing.T) {
	f := NewFake()
	tm := f.NewTimer(10 * time.Millisecond)
	select {
	case <-tm.C():
		t.Fatal("timer fired before Advance")
	default:
	}
	f.Advance(9 * time.Millisecond)
	select {
	case <-tm.C():
		t.Fatal("timer fired early")
	default:
	}
	f.Advance(time.Millisecond)
	select {
	case at := <-tm.C():
		if got := at.Sub(time.Unix(1_700_000_000, 0)); got != 10*time.Millisecond {
			t.Fatalf("fire time offset = %v, want 10ms", got)
		}
	default:
		t.Fatal("timer did not fire at its deadline")
	}
}

func TestFakeTimerStopAndReset(t *testing.T) {
	f := NewFake()
	tm := f.NewTimer(time.Second)
	if !tm.Stop() {
		t.Fatal("Stop on an armed timer reported inactive")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported active")
	}
	f.Advance(2 * time.Second)
	select {
	case <-tm.C():
		t.Fatal("stopped timer fired")
	default:
	}
	tm.Reset(time.Second)
	f.Advance(time.Second)
	select {
	case <-tm.C():
	default:
		t.Fatal("reset timer did not fire")
	}
	// Reset after firing re-arms (the group's hedge timer relies on
	// stop-drain-reset cycles).
	tm.Reset(time.Second)
	f.Advance(time.Second)
	select {
	case <-tm.C():
	default:
		t.Fatal("re-reset timer did not fire")
	}
}

func TestFakeFiringOrderIsDeadlineOrder(t *testing.T) {
	f := NewFake()
	late := f.NewTimer(20 * time.Millisecond)
	early := f.NewTimer(5 * time.Millisecond)
	f.Advance(30 * time.Millisecond)
	a := <-early.C()
	b := <-late.C()
	if !a.Before(b) {
		t.Fatalf("fire times out of order: early=%v late=%v", a, b)
	}
}

// TestFakePump: under Pump a goroutine that sleeps on the clock runs
// to completion without anybody calling Advance, virtual time lands
// exactly on its deadlines, and after stop the clock is still again.
func TestFakePump(t *testing.T) {
	f := NewFake()
	start := f.Now()
	stop := f.Pump()
	woke := make(chan time.Duration, 2)
	go func() {
		<-f.After(time.Second)
		woke <- f.Now().Sub(start)
		<-f.After(2 * time.Hour)
		woke <- f.Now().Sub(start)
	}()
	for _, want := range []time.Duration{time.Second, 2*time.Hour + time.Second} {
		select {
		case got := <-woke:
			if got != want {
				t.Fatalf("woke at +%v, want +%v", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("pump never reached +%v", want)
		}
	}
	stop()
	tm := f.NewTimer(time.Millisecond)
	select {
	case <-tm.C():
		t.Fatal("timer fired after the pump was stopped")
	case <-time.After(5 * time.Millisecond):
	}
}

// TestFakePumpWaitsForRunningCode: Pump does not move the clock while
// another goroutine is still running, however long that takes in real
// time — here a 20 ms spin, forty times the pump's settle.
func TestFakePumpWaitsForRunningCode(t *testing.T) {
	f := NewFake()
	tm := f.NewTimer(time.Second)
	var spun atomic.Bool
	go func() {
		for end := time.Now().Add(20 * time.Millisecond); time.Now().Before(end); {
		}
		spun.Store(true)
	}()
	stop := f.Pump()
	defer stop()
	<-tm.C()
	if !spun.Load() {
		t.Fatal("the pump moved the clock while a goroutine was running")
	}
}

func TestOrReal(t *testing.T) {
	if OrReal(nil) == nil {
		t.Fatal("OrReal(nil) returned nil")
	}
	fk := NewFake()
	if OrReal(fk) != Clock(fk) {
		t.Fatal("OrReal did not pass through a non-nil clock")
	}
	// Real clock sanity: Now advances, timers fire.
	c := Real()
	tm := c.NewTimer(time.Millisecond)
	select {
	case <-tm.C():
	case <-time.After(time.Second):
		t.Fatal("real timer did not fire")
	}
}
