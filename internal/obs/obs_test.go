package obs

import (
	"math"
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "help")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("x_total", "help"); again != c {
		t.Fatal("re-registration returned a different counter")
	}
	g := r.Gauge("g", "help", Label{"shard", "3"})
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", g.Value())
	}
	if other := r.Gauge("g", "help", Label{"shard", "4"}); other == g {
		t.Fatal("different label sets shared a series")
	}
}

func TestNilRegistryAndMetricsNoop(t *testing.T) {
	var r *Registry
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", []float64{1, 2})
	// None of these may panic.
	c.Inc()
	c.Add(2)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil metrics reported values")
	}
	var sb strings.Builder
	if err := r.Expose(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry exposition: %q err=%v", sb.String(), err)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("gauge re-registration of a counter name did not panic")
		}
	}()
	r.Gauge("m", "")
}

// TestHistogramBucketEdges pins the inclusive-upper-bound contract: an
// observation exactly on a bound stays with its peers below, never
// spilling into the bucket above.
func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{1, 2, 4, 8})
	cases := []struct {
		v      float64
		bucket int
	}{
		{0, 0}, {0.5, 0}, {1, 0}, // bound 1 is inclusive
		{1.5, 1}, {2, 1}, // exact power of two: with its peers in (1,2]
		{3, 2}, {4, 2},
		{5, 3}, {8, 3},
		{9, 4}, {1e9, 4}, // overflow bucket
	}
	for _, tc := range cases {
		h.Observe(tc.v)
	}
	counts, sum, count := h.Snapshot()
	if count != uint64(len(cases)) {
		t.Fatalf("count = %d, want %d", count, len(cases))
	}
	want := make([]uint64, 5)
	var wantSum float64
	for _, tc := range cases {
		want[tc.bucket]++
		wantSum += tc.v
	}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, counts[i], want[i], counts)
		}
	}
	if sum != wantSum {
		t.Fatalf("sum = %g, want %g", sum, wantSum)
	}
	if got := h.Bounds(); len(got) != 4 || got[3] != 8 {
		t.Fatalf("Bounds() = %v", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q", "", []float64{1, 2, 4, 8})
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	for i := 0; i < 90; i++ {
		h.Observe(1.5) // (1,2]
	}
	for i := 0; i < 10; i++ {
		h.Observe(100) // overflow
	}
	if q := h.Quantile(0.5); q != 2 {
		t.Fatalf("p50 = %g, want 2", q)
	}
	if q := h.Quantile(0.89); q != 2 {
		t.Fatalf("p89 = %g, want 2", q)
	}
	if q := h.Quantile(0.99); !math.IsInf(q, 1) {
		t.Fatalf("p99 = %g, want +Inf (overflow bucket)", q)
	}
	if q := h.Quantile(-1); q != 2 {
		t.Fatalf("clamped q<0 = %g, want 2", q)
	}
	if q := h.Quantile(2); !math.IsInf(q, 1) {
		t.Fatalf("clamped q>1 = %g, want +Inf", q)
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending bounds did not panic")
		}
	}()
	r.Histogram("bad", "", []float64{1, 1})
}

func TestLabelRendering(t *testing.T) {
	got := renderLabels([]Label{{"b", "2"}, {"a", `quote " back \ nl` + "\n"}})
	want := `a="quote \" back \\ nl\n",b="2"`
	if got != want {
		t.Fatalf("renderLabels = %s, want %s", got, want)
	}
	if renderLabels(nil) != "" {
		t.Fatal("empty label set should render empty")
	}
}
