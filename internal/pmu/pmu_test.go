package pmu

import "testing"

func feed(s *Sampler, t, lat float64, loads, useless uint64) bool {
	return s.Sample(t, Counters{Loads: loads, LoadLatencySumNS: lat, UselessPrefetches: useless})
}

func TestBaselineEstablishment(t *testing.T) {
	s := NewSampler(1000, 1.10, 1.50)
	// Below the period: no sample.
	if feed(s, 500, 100*200, 100, 0) {
		t.Fatal("sampled before the period elapsed")
	}
	if !feed(s, 1000, 100*200, 100, 0) {
		t.Fatal("did not sample at the period")
	}
	if s.baselineLatNS != 200 {
		t.Fatalf("baseline = %v, want 200", s.baselineLatNS)
	}
	if s.Contended() {
		t.Fatal("contended right after baseline")
	}
}

func TestContentionRequiresBothSignals(t *testing.T) {
	mk := func() *Sampler {
		s := NewSampler(1000, 1.10, 1.50)
		feed(s, 1000, 1000*200, 1000, 100) // baseline: 200ns, 0.1 useless/load
		return s
	}

	// Latency up 50%, useless rate unchanged: no contention.
	s := mk()
	feed(s, 2000, 1000*200+1000*300, 2000, 200)
	if s.Contended() {
		t.Fatal("latency alone must not signal contention")
	}

	// Useless rate up 3x, latency flat: no contention.
	s = mk()
	feed(s, 2000, 2000*200, 2000, 100+300)
	if s.Contended() {
		t.Fatal("useless prefetches alone must not signal contention")
	}

	// Both elevated: contention.
	s = mk()
	feed(s, 2000, 1000*200+1000*300, 2000, 100+300)
	if !s.Contended() {
		t.Fatal("both signals elevated but not contended")
	}
}

func TestRecoveryClearsContention(t *testing.T) {
	s := NewSampler(1000, 1.10, 1.50)
	feed(s, 1000, 1000*200, 1000, 100)
	feed(s, 2000, 1000*200+1000*400, 2000, 100+500) // pressure
	if !s.Contended() {
		t.Fatal("pressure not detected")
	}
	feed(s, 3000, 1000*600+1000*200, 3000, 600+50) // back to baseline
	if s.Contended() {
		t.Fatal("recovery not detected")
	}
}

func TestBaselineTracksImprovement(t *testing.T) {
	s := NewSampler(1000, 1.10, 1.50)
	feed(s, 1000, 1000*300, 1000, 0) // baseline 300
	before := s.baselineLatNS
	// Several calmer windows: baseline drifts down.
	lat := 1000 * 300.0
	loads := uint64(1000)
	for i := 0; i < 10; i++ {
		lat += 1000 * 150
		loads += 1000
		feed(s, float64(2000+i*1000), lat, loads, 0)
	}
	if s.baselineLatNS >= before {
		t.Fatal("baseline did not track the calmer regime")
	}
}

func TestZeroLoadWindow(t *testing.T) {
	s := NewSampler(1000, 1.10, 1.50)
	feed(s, 1000, 1000*200, 1000, 0)
	if feed(s, 2000, 1000*200, 1000, 0) { // no new loads
		t.Fatal("empty window should not update")
	}
	if s.baselineLatNS != 200 {
		t.Fatalf("baseline = %v after an empty window, want 200", s.baselineLatNS)
	}
}
