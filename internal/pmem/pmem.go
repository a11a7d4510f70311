// Package pmem models the memory devices of the testbed: DDR4 DRAM and
// Optane-style persistent memory.
//
// The PM model implements the mechanisms behind the paper's PM-specific
// observations:
//
//   - the 64 B (DDR-T request) vs 256 B (XPLine media) granularity
//     mismatch: any 64 B read that misses the on-DIMM read buffer
//     implicitly loads its whole 256 B XPLine (§2.1 "implicit data
//     loads"), which is where media-level read amplification comes from;
//   - a small (96 KB across 6 channels) read buffer (FIFO with
//     consumed-first eviction) whose entries are evicted before reuse
//     under high concurrency — read buffer thrashing (Obs. 5);
//   - per-channel media bandwidth with queueing delay, so concurrent
//     threads contend and load latency rises under pressure, the signal
//     DIALGA's coordinator samples.
//
// Reads and non-temporal writes use separate per-channel occupancy so
// the read-side effects the paper studies are not confounded by the
// write path; writes still model XPBuffer write combining at XPLine
// granularity.
package pmem

import (
	"fmt"

	"dialga/internal/mem"
)

// Stats aggregates device-level traffic and buffer events. Byte counts
// let the harness compute the per-layer read amplification of Fig. 19.
type Stats struct {
	CtrlReadBytes   uint64 // 64 B requests served (demand + prefetch)
	MediaReadBytes  uint64 // bytes fetched from media (256 B per XPLine on PM)
	CtrlWriteBytes  uint64 // 64 B non-temporal stores received
	MediaWriteBytes uint64 // bytes written to media (combined XPLines on PM)

	BufHits          uint64 // reads served from the on-DIMM read buffer
	BufMisses        uint64 // reads requiring a media fetch
	BufEvictedUnused uint64 // XPLines evicted without a single subsequent hit
}

type bufEntry struct {
	xpline  uint64
	lru     uint64
	readyAt float64 // when the media fetch that filled this entry completes
	hits    int
	valid   bool
}

// wcEntries is the number of write-combining slots per channel,
// modelling the multi-entry XPBuffer write side: interleaved NT-store
// streams (one per parity block) each keep their own combine window.
const wcEntries = 16

type wcEntry struct {
	xpline uint64
	lru    uint64
	valid  bool
}

type channel struct {
	readBusyUntil  float64
	writeBusyUntil float64
	// Read buffer partition: small, so linear scans are fine and keep
	// the model allocation-free and deterministic.
	buf []bufEntry
	// Write-combining table.
	wc   [wcEntries]wcEntry
	tick uint64
}

// Device is a memory device shared by all simulated threads. Not safe
// for concurrent use; the engine serializes accesses in timestamp order.
type Device struct {
	Kind  mem.DeviceKind
	cfg   *mem.Config
	ch    []channel
	stats Stats
}

// New constructs a device of the given kind from the configuration.
func New(kind mem.DeviceKind, cfg *mem.Config) *Device {
	d := &Device{Kind: kind, cfg: cfg, ch: make([]channel, cfg.Channels)}
	if kind == mem.PM {
		per := cfg.PMReadBufBytes / cfg.PMLineSize / cfg.Channels
		if per < 1 {
			per = 1
		}
		for i := range d.ch {
			d.ch[i].buf = make([]bufEntry, per)
		}
	}
	return d
}

// Stats returns a copy of the accumulated statistics.
func (d *Device) Stats() Stats { return d.stats }

// BufferCapacityLines returns the total read buffer capacity in XPLines
// (0 for DRAM); DIALGA's Eq. 1 uses this to bound prefetch distance.
func (d *Device) BufferCapacityLines() int {
	if d.Kind != mem.PM {
		return 0
	}
	return len(d.ch) * len(d.ch[0].buf)
}

// mediaLine returns the media-line index of addr at the device's
// access granularity (XPLine on Optane, flash page on CMM-H-style
// devices).
func (d *Device) mediaLine(addr mem.Addr) uint64 {
	return uint64(addr) / uint64(d.cfg.PMLineSize)
}

func (d *Device) channelOf(addr mem.Addr) *channel {
	if d.Kind == mem.PM {
		// Optane AppDirect interleaved sets stripe at 4 KiB
		// granularity across DIMMs: a page lives on one DIMM.
		return &d.ch[addr.Page()%uint64(len(d.ch))]
	}
	// DRAM interleaves at fine (256 B) granularity across channels.
	return &d.ch[addr.XPLine()%uint64(len(d.ch))]
}

// Read services a 64 B cacheline read beginning at time now and returns
// the time the data is available.
func (d *Device) Read(addr mem.Addr, now float64) (readyAt float64) {
	d.stats.CtrlReadBytes += mem.CachelineSize
	ch := d.channelOf(addr)
	if d.Kind == mem.DRAM {
		d.stats.MediaReadBytes += mem.CachelineSize
		start := now
		if ch.readBusyUntil > start {
			start = ch.readBusyUntil
		}
		ch.readBusyUntil = start + float64(mem.CachelineSize)/d.cfg.DRAMChanGBps
		return start + d.cfg.DRAMLatencyNS
	}

	xp := d.mediaLine(addr)
	ch.tick++
	// Buffer lookup. Eviction is FIFO (insertion order): entries are
	// not refreshed on hit. FIFO matches the paper's own capacity
	// arithmetic (§5.3: the 96 KB buffer sustains ~8x48 streams) and is
	// the natural hardware choice for a fetch buffer.
	for i := range ch.buf {
		e := &ch.buf[i]
		if e.valid && e.xpline == xp {
			e.hits++
			d.stats.BufHits++
			ready := now + d.cfg.PMBufHitNS
			if e.readyAt > ready {
				// The implicit load that filled this entry has not
				// completed yet: the hit waits for the media fetch.
				ready = e.readyAt
			}
			return ready
		}
	}
	// Media fetch of the whole media line (implicit load).
	d.stats.BufMisses++
	d.stats.MediaReadBytes += uint64(d.cfg.PMLineSize)
	start := now
	if ch.readBusyUntil > start {
		start = ch.readBusyUntil
	}
	ch.readBusyUntil = start + float64(d.cfg.PMLineSize)/d.cfg.PMMediaReadGBps
	readyAt = start + d.cfg.PMMediaNS

	// Insert into the buffer. Eviction prefers invalid slots, then the
	// oldest fully-consumed XPLine (all three remaining cachelines
	// already served — a dead entry), then the oldest entry overall.
	// Thrashing therefore begins exactly when the number of
	// *unconsumed* XPLines across all threads exceeds the buffer
	// capacity — the capacity arithmetic of Obs. 5 and Eq. 1.
	consumedHits := d.cfg.PMLineSize/mem.CachelineSize - 1
	victim, victimConsumed := -1, -1
	var oldest, oldestConsumed uint64 = ^uint64(0), ^uint64(0)
	for i := range ch.buf {
		e := &ch.buf[i]
		if !e.valid {
			victim = i
			oldest = 0
			victimConsumed = -1
			break
		}
		if e.hits >= consumedHits && e.lru < oldestConsumed {
			victimConsumed = i
			oldestConsumed = e.lru
		}
		if e.lru < oldest {
			victim = i
			oldest = e.lru
		}
	}
	if victimConsumed >= 0 {
		victim = victimConsumed
	}
	if ch.buf[victim].valid && ch.buf[victim].hits == 0 {
		d.stats.BufEvictedUnused++
	}
	ch.buf[victim] = bufEntry{xpline: xp, lru: ch.tick, readyAt: readyAt, valid: true}
	return readyAt
}

// writeBacklogNS is the maximum per-channel write-queue depth (in ns of
// occupancy) before a store stalls the issuing thread.
const writeBacklogNS = 2000

// Write services a 64 B non-temporal store beginning at time now. It
// returns the time at which the issuing thread may proceed — usually
// now (posted write), later only when the channel's write queue is full.
func (d *Device) Write(addr mem.Addr, now float64) (proceedAt float64) {
	d.stats.CtrlWriteBytes += mem.CachelineSize
	ch := d.channelOf(addr)
	if d.Kind == mem.DRAM {
		start := now
		if ch.writeBusyUntil > start {
			start = ch.writeBusyUntil
		}
		ch.writeBusyUntil = start + float64(mem.CachelineSize)/d.cfg.DRAMChanGBps
		d.stats.MediaWriteBytes += mem.CachelineSize
		return d.backpressure(ch, now)
	}
	xp := d.mediaLine(addr)
	ch.tick++
	victim := 0
	var oldest uint64 = ^uint64(0)
	for i := range ch.wc {
		e := &ch.wc[i]
		if e.valid && e.xpline == xp {
			// Combined into a pending XPLine write: no extra media
			// traffic.
			e.lru = ch.tick
			return d.backpressure(ch, now)
		}
		if !e.valid {
			victim = i
			oldest = 0
		} else if e.lru < oldest {
			victim = i
			oldest = e.lru
		}
	}
	// New XPLine: open a combine window (evicting the LRU one) and
	// charge its media write.
	ch.wc[victim] = wcEntry{xpline: xp, lru: ch.tick, valid: true}
	d.stats.MediaWriteBytes += uint64(d.cfg.PMLineSize)
	start := now
	if ch.writeBusyUntil > start {
		start = ch.writeBusyUntil
	}
	ch.writeBusyUntil = start + float64(d.cfg.PMLineSize)/d.cfg.PMMediaWriteGBps
	return d.backpressure(ch, now)
}

func (d *Device) backpressure(ch *channel, now float64) float64 {
	if ch.writeBusyUntil-now > writeBacklogNS {
		return ch.writeBusyUntil - writeBacklogNS
	}
	return now
}

// Drain returns the time all pending channel activity completes after
// now — the analogue of the final memory fence the paper's benchmark
// issues after encoding.
func (d *Device) Drain(now float64) float64 {
	t := now
	for i := range d.ch {
		if d.ch[i].readBusyUntil > t {
			t = d.ch[i].readBusyUntil
		}
		if d.ch[i].writeBusyUntil > t {
			t = d.ch[i].writeBusyUntil
		}
	}
	return t
}

// String implements fmt.Stringer.
func (d *Device) String() string {
	return fmt.Sprintf("%s(%d channels)", d.Kind, len(d.ch))
}
