package pmem

import (
	"testing"

	"dialga/internal/mem"
)

func newPM() (*Device, *mem.Config) {
	cfg := mem.DefaultConfig()
	return New(mem.PM, &cfg), &cfg
}

func newDRAM() (*Device, *mem.Config) {
	cfg := mem.DefaultConfig()
	return New(mem.DRAM, &cfg), &cfg
}

// amplification is media read bytes per controller read byte, the
// PM-media-layer amplification of Fig. 19.
func amplification(s Stats) float64 {
	return float64(s.MediaReadBytes) / float64(s.CtrlReadBytes)
}

func TestPMImplicitLoad(t *testing.T) {
	d, cfg := newPM()
	// First 64 B read of an XPLine: media fetch of 256 B.
	ready := d.Read(0, 0)
	if ready != cfg.PMMediaNS {
		t.Fatalf("first read ready at %v, want media latency %v", ready, cfg.PMMediaNS)
	}
	st := d.Stats()
	if st.MediaReadBytes != mem.XPLineSize {
		t.Fatalf("media read %d bytes, want one XPLine", st.MediaReadBytes)
	}
	if st.CtrlReadBytes != mem.CachelineSize {
		t.Fatalf("ctrl read %d bytes, want one cacheline", st.CtrlReadBytes)
	}
	// Subsequent reads within the same XPLine hit the buffer.
	for i := 1; i < 4; i++ {
		ready = d.Read(mem.Addr(i*64), 1000)
		if ready != 1000+cfg.PMBufHitNS {
			t.Fatalf("buffer hit latency wrong: %v", ready)
		}
	}
	st = d.Stats()
	if st.BufHits != 3 || st.BufMisses != 1 {
		t.Fatalf("buffer stats %+v", st)
	}
	if st.MediaReadBytes != mem.XPLineSize {
		t.Fatal("buffer hits must not add media traffic")
	}
	if got := amplification(st); got != 1.0 {
		t.Fatalf("4x64B over one XPLine should have amplification 1.0, got %v", got)
	}
}

func TestPMReadAmplificationScatteredReads(t *testing.T) {
	d, _ := newPM()
	// One 64 B read per distinct XPLine: 4x media amplification.
	for i := 0; i < 100; i++ {
		d.Read(mem.Addr(i*mem.XPLineSize), float64(i*1000))
	}
	if got := amplification(d.Stats()); got != 4.0 {
		t.Fatalf("scattered reads amplification = %v, want 4.0", got)
	}
}

func TestDRAMNoAmplification(t *testing.T) {
	d, cfg := newDRAM()
	ready := d.Read(0, 0)
	if ready != cfg.DRAMLatencyNS {
		t.Fatalf("DRAM latency %v, want %v", ready, cfg.DRAMLatencyNS)
	}
	for i := 0; i < 50; i++ {
		d.Read(mem.Addr(i*mem.XPLineSize), float64(i*1000))
	}
	if got := amplification(d.Stats()); got != 1.0 {
		t.Fatalf("DRAM amplification = %v, want 1.0", got)
	}
	if d.BufferCapacityLines() != 0 {
		t.Fatal("DRAM has no read buffer")
	}
}

func TestPMBufferCapacityAndThrash(t *testing.T) {
	d, cfg := newPM()
	capLines := d.BufferCapacityLines()
	want := cfg.PMReadBufBytes / mem.XPLineSize
	if capLines != want {
		t.Fatalf("buffer capacity %d XPLines, want %d", capLines, want)
	}
	// Stream far more XPLines than capacity through one channel, never
	// reusing: every eviction is of an unused line... (each fetched line
	// is hit 0 further times).
	ch := cfg.Channels
	n := capLines * 3
	for i := 0; i < n; i++ {
		// Same channel: XPLine index multiples of Channels.
		d.Read(mem.Addr(i*ch*mem.XPLineSize), float64(i*500))
	}
	st := d.Stats()
	if st.BufEvictedUnused == 0 {
		t.Fatal("streaming beyond capacity should evict unused XPLines")
	}
	if st.BufHits != 0 {
		t.Fatal("no reuse pattern should have no buffer hits")
	}
}

func TestPMChannelQueueing(t *testing.T) {
	d, cfg := newPM()
	// PM interleaves at page granularity: two XPLines of the same page
	// share a channel and their media fetches queue.
	r1 := d.Read(0, 0)
	r2 := d.Read(mem.Addr(mem.XPLineSize), 0)
	occupancy := float64(mem.XPLineSize) / cfg.PMMediaReadGBps
	if r2 <= r1 {
		t.Fatalf("queued read should finish later: r1=%v r2=%v", r1, r2)
	}
	if want := occupancy + cfg.PMMediaNS; r2 != want {
		t.Fatalf("queued read ready at %v, want %v", r2, want)
	}
	// A read on a different page maps to another channel: no queueing.
	r3 := d.Read(mem.Addr(mem.PageSize), 0)
	if r3 != cfg.PMMediaNS {
		t.Fatalf("other channel queued: %v", r3)
	}
}

func TestWriteCombining(t *testing.T) {
	d, _ := newPM()
	// 4 sequential NT stores within one XPLine: one media write.
	for i := 0; i < 4; i++ {
		d.Write(mem.Addr(i*64), float64(i))
	}
	st := d.Stats()
	if st.MediaWriteBytes != mem.XPLineSize {
		t.Fatalf("combined writes produced %d media bytes, want %d", st.MediaWriteBytes, mem.XPLineSize)
	}
	if st.CtrlWriteBytes != 4*mem.CachelineSize {
		t.Fatalf("ctrl write bytes %d", st.CtrlWriteBytes)
	}
	// Next XPLine on the same channel opens a new combine window.
	d.Write(mem.Addr(6*mem.XPLineSize), 100) // channel 0 again (6 channels)
	if d.Stats().MediaWriteBytes != 2*mem.XPLineSize {
		t.Fatal("new XPLine write not counted")
	}
}

func TestWriteBackpressure(t *testing.T) {
	d, _ := newPM()
	// Flood one channel with writes; eventually the thread must stall.
	var stalled bool
	for i := 0; i < 100; i++ {
		addr := mem.Addr(i * 6 * mem.XPLineSize) // always channel 0
		if p := d.Write(addr, 0); p > 0 {
			stalled = true
			break
		}
	}
	if !stalled {
		t.Fatal("unbounded write queue: no backpressure observed")
	}
}

func TestDrain(t *testing.T) {
	d, cfg := newPM()
	d.Read(0, 0)
	d.Write(mem.Addr(4096), 0)
	done := d.Drain(0)
	if done <= 0 {
		t.Fatal("Drain should report pending occupancy")
	}
	if done < float64(mem.XPLineSize)/cfg.PMMediaWriteGBps {
		t.Fatal("Drain earlier than the pending write occupancy")
	}
}

func TestStringer(t *testing.T) {
	d, _ := newPM()
	if d.String() != "PM(6 channels)" {
		t.Fatalf("String = %q", d.String())
	}
}

func TestCMMHProfileGranularity(t *testing.T) {
	cfg := mem.CMMHConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	d := New(mem.PM, &cfg)
	// One 64 B read per distinct 4 KB media line: 64x amplification.
	for i := 0; i < 32; i++ {
		d.Read(mem.Addr(i*cfg.PMLineSize), float64(i*10000))
	}
	if got := amplification(d.Stats()); got != 64 {
		t.Fatalf("flash-page amplification = %v, want 64", got)
	}
	// Sequential reads within one media line: a single media fetch.
	d2 := New(mem.PM, &cfg)
	for i := 0; i < cfg.PMLineSize/mem.CachelineSize; i++ {
		d2.Read(mem.Addr(i*mem.CachelineSize), float64(100000+i*10000))
	}
	st := d2.Stats()
	if st.BufMisses != 1 {
		t.Fatalf("sequential page reads caused %d media fetches, want 1", st.BufMisses)
	}
	if st.MediaReadBytes != uint64(cfg.PMLineSize) {
		t.Fatalf("media bytes = %d, want one flash page", st.MediaReadBytes)
	}
	wantCap := cfg.PMReadBufBytes / cfg.PMLineSize / cfg.Channels * cfg.Channels
	if d2.BufferCapacityLines() != wantCap {
		t.Fatalf("buffer capacity = %d media lines, want %d", d2.BufferCapacityLines(), wantCap)
	}
}

func TestPMLineSizeValidation(t *testing.T) {
	cfg := mem.DefaultConfig()
	cfg.PMLineSize = 100 // not a multiple of 64
	if cfg.Validate() == nil {
		t.Fatal("unaligned PMLineSize accepted")
	}
	cfg = mem.DefaultConfig()
	cfg.PMLineSize = 32
	if cfg.Validate() == nil {
		t.Fatal("sub-cacheline PMLineSize accepted")
	}
}
