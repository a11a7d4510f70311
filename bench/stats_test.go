package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	vs := []float64{40, 10, 30, 20} // sorted: 10 20 30 40
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.5, 25}, {1, 40},
		{0.95, 38.5}, // position 2.85: 30 + 0.85*10
		{0.25, 17.5},
	} {
		if got := percentile(vs, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if vs[0] != 40 {
		t.Error("percentile sorted its argument in place")
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("empty sample should give 0")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

// The expected values are what Python's statistics.quantiles(vs, n=4)
// returns: the contract measures spread with it.
func TestQuartilesMatchPython(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quartiles(ten); !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := spread(ten); !near(got, 1) { // (8.25-2.75)/5.5
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	// Two values extrapolate past both.
	if q1, q3 := quartiles([]float64{20, 10}); !near(q1, 7.5) || !near(q3, 22.5) {
		t.Errorf("quartiles(10,20) = %v, %v, want 7.5, 22.5", q1, q3)
	}
	five := []float64{5, 1, 4, 2, 3}
	if q1, q3 := quartiles(five); !near(q1, 1.5) || !near(q3, 4.5) {
		t.Errorf("quartiles(1..5) = %v, %v, want 1.5, 4.5", q1, q3)
	}
}

func TestMAD(t *testing.T) {
	// median 3; deviations 2 1 0 1 6 -> median 1
	if got := mad([]float64{1, 2, 3, 4, 9}); got != 1 {
		t.Errorf("mad = %v, want 1", got)
	}
}

func TestSliceRates(t *testing.T) {
	const s = time.Second
	ops := []opRec{
		{sent: 0, end: 1 * s, bytes: 100},                                         // all in slice 0
		{sent: 1500 * time.Millisecond, end: 2500 * time.Millisecond, bytes: 200}, // half in slice 1, half in 2
		{sent: 3 * s, end: 5 * s, bytes: 400},                                     // half inside the window's last slice, half outside
		{sent: 2 * s, end: 3 * s, bytes: 1000, failed: true},
	}
	got, _ := sliceRates(ops, 0, 4*s, 4, false)
	want := []float64{100, 100, 100, 200}
	for i := range want {
		if !near(got[i], want[i]) {
			t.Errorf("slice %d: %v B/s, want %v", i, got[i], want[i])
		}
	}
	if m := median(got); !near(m, 100) {
		t.Errorf("median of slices = %v, want 100", m)
	}
	// Per busy time: slice 1 held 0.5 s of op time carrying 100 bytes.
	busy, _ := sliceRates(ops, 0, 4*s, 4, true)
	if !near(busy[1], 200) {
		t.Errorf("per-busy slice 1: %v B/s, want 200", busy[1])
	}
}

func TestSummariseWindow(t *testing.T) {
	const msec = time.Millisecond
	ops := []opRec{
		{class: opGet, due: 90 * msec, sent: 100 * msec, first: 104 * msec, end: 110 * msec, free: 100 * msec, bytes: 10},
		{class: opPut, due: 200 * msec, sent: 200 * msec, end: 230 * msec, free: 150 * msec, bytes: 10},
		{class: opGet, due: 300 * msec, sent: 300 * msec, end: 310 * msec, bytes: 10, failed: true},
		{class: opScan, due: 400 * msec, sent: 400 * msec, end: 450 * msec},
		{class: opGet, due: 2000 * msec, sent: 2000 * msec, first: 2001 * msec, end: 2002 * msec, bytes: 10}, // after the window
	}
	w := summarise(ops, 0, 1000*msec, 5, false)
	if w.attempted != 3 || w.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 3 and 1 (scans and late ops do not count)", w.attempted, w.failed)
	}
	// 200 ms slices: the GET ended in slice 0, the PUT in slice 1.
	if len(w.lat[0]) != 1 || !near(w.lat[0][0], 20) || len(w.lat[1]) != 1 || !near(w.lat[1][0], 30) {
		t.Errorf("latencies %v, want [[20] [30] ...]: timed from the due time", w.lat)
	}
	if got := medianOfSlices(w.lat, 0.5); !near(got, 25) {
		t.Errorf("median of the slices' p50 = %v, want 25", got)
	}
	if got := flat(w.ttfb); len(got) != 1 || !near(got[0], 4) {
		t.Errorf("ttfb %v, want [4]: reads only, from the send time", got)
	}
	// Op 0 became free after it was due: not the generator's lateness.
	// Op 1 was free early and sent on time.
	if got := flat(w.late); len(got) != 2 || got[0] != 0 || got[1] != 0 {
		t.Errorf("late %v, want [0 0]", got)
	}
	if got := w.totalBytes(); !near(got, 20) {
		t.Errorf("window bytes %v, want 20", got)
	}
}
