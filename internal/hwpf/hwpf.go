// Package hwpf models the Intel L2 stream hardware prefetcher as
// characterized by the reverse-engineering literature the DIALGA paper
// builds on (Rohan et al., Didier et al.) and by the paper's own
// observations (§3.2):
//
//   - a fixed table of stream slots (32 unidirectional on Cascade Lake,
//     64 from Ice Lake on); streams beyond capacity thrash the table and
//     never gain confidence (Obs. 3, the wide-stripe collapse);
//   - per-stream confidence built by sequential next-line accesses, with
//     a trigger threshold before the first issue and a degree that ramps
//     with confidence (small blocks never reach confidence, Obs. 4);
//   - prefetches never cross 4 KiB page boundaries;
//   - non-sequential (shuffled) accesses within a page decay confidence,
//     which is exactly the mechanism DIALGA's static shuffle mapping
//     exploits as a lightweight per-function "off switch" (§4.2.2).
package hwpf

import "dialga/internal/mem"

type stream struct {
	page       uint64 // 4 KiB page index
	lastLine   int    // last accessed line offset within the page (0..63)
	maxIssued  int    // highest line offset prefetched so far (-1 none)
	confidence int
	lru        uint64
	valid      bool
}

const linesPerPage = mem.PageSize / mem.CachelineSize

// Stats aggregates prefetcher event counts.
type Stats struct {
	Accesses      uint64 // training accesses observed
	Issued        uint64 // prefetch requests issued
	StreamAllocs  uint64 // new streams allocated
	StreamEvicts  uint64 // streams evicted due to capacity (table thrash)
	ConfidenceHit uint64 // sequential hits that increased confidence
}

// Prefetcher is the L2 stream prefetcher model. Not safe for concurrent
// use; the engine owns one per simulated core.
type Prefetcher struct {
	// Enabled gates issue; training continues while disabled so that
	// re-enabling behaves like the real MSR toggle (stream state is
	// retained but issue stops instantly).
	Enabled bool
	// TableSize is the number of unidirectional stream slots.
	TableSize int
	// Trigger is the confidence needed before the first issue.
	Trigger int
	// MaxDegree is the maximum number of lines prefetched ahead.
	MaxDegree int

	streams []stream
	tick    uint64
	stats   Stats
	reqBuf  []mem.Addr
}

// New constructs a prefetcher from the configuration.
func New(cfg *mem.Config) *Prefetcher {
	return &Prefetcher{
		Enabled:   cfg.HWPrefetchEnabled,
		TableSize: cfg.StreamTableSize,
		Trigger:   cfg.StreamTrigger,
		MaxDegree: cfg.StreamMaxDegree,
		streams:   make([]stream, cfg.StreamTableSize),
	}
}

// Stats returns a copy of the accumulated statistics.
func (p *Prefetcher) Stats() Stats { return p.stats }

// degree returns how many lines ahead to issue at a confidence level: a
// gradual ramp (doubling every two confidence steps) from 1 at trigger
// up to MaxDegree. The slow ramp is why short streams (small blocks)
// see little benefit: by the time the prefetcher is aggressive, the
// block is over (Obs. 4).
func (p *Prefetcher) degree(confidence int) int {
	steps := (confidence - p.Trigger) / 2
	if steps > 10 {
		steps = 10
	}
	d := 1 << uint(steps)
	if d > p.MaxDegree {
		d = p.MaxDegree
	}
	return d
}

// OnAccess trains the prefetcher with a demand access that reached L2
// and returns the lines to prefetch (empty when disabled, untriggered,
// or at page end). The returned slice is reused across calls.
func (p *Prefetcher) OnAccess(addr mem.Addr) []mem.Addr {
	return p.observe(addr, true)
}

// OnPrefetch trains the prefetcher with a software prefetch that
// reached L2 — the "training effect" of prefetch instructions on the
// streamer ([7], §5.9). Software prefetches are L2 accesses and train
// and allocate streams exactly like demand accesses.
func (p *Prefetcher) OnPrefetch(addr mem.Addr) []mem.Addr {
	return p.observe(addr, true)
}

func (p *Prefetcher) observe(addr mem.Addr, allocate bool) []mem.Addr {
	p.stats.Accesses++
	p.reqBuf = p.reqBuf[:0]
	page := addr.Page()
	lineOff := int(addr.PageOffset()) / mem.CachelineSize
	p.tick++

	// Find the stream for this page.
	var s *stream
	for i := range p.streams {
		if p.streams[i].valid && p.streams[i].page == page {
			s = &p.streams[i]
			break
		}
	}
	if s == nil {
		if !allocate {
			return p.reqBuf
		}
		// Allocate, evicting the LRU slot.
		victim := 0
		var oldest uint64 = ^uint64(0)
		for i := range p.streams {
			if !p.streams[i].valid {
				victim = i
				oldest = 0
				break
			}
			if p.streams[i].lru < oldest {
				victim = i
				oldest = p.streams[i].lru
			}
		}
		if p.streams[victim].valid {
			p.stats.StreamEvicts++
		}
		p.streams[victim] = stream{page: page, lastLine: lineOff, maxIssued: -1, lru: p.tick, valid: true}
		p.stats.StreamAllocs++
		return p.reqBuf
	}

	s.lru = p.tick
	switch {
	case lineOff == s.lastLine+1:
		// Ascending sequential: build confidence and advance the
		// stream frontier.
		s.confidence++
		p.stats.ConfidenceHit++
		s.lastLine = lineOff
	case lineOff == s.lastLine:
		// Same line (sub-line access): neutral.
	case lineOff < s.lastLine:
		// Behind the stream frontier: real streamers ignore these
		// (demand loads trailing a prefetch frontier must not destroy
		// the stream).
		return p.reqBuf
	default:
		// Forward jump: neutral. The frontier does not move, so a far
		// software prefetch (buffer-friendly mode) does not block the
		// trailing sequential accesses from training the stream, and a
		// shuffled pattern (DIALGA's switch, almost all jumps) never
		// accumulates confidence.
	}

	if !p.Enabled || s.confidence < p.Trigger {
		return p.reqBuf
	}
	// Issue up to degree lines ahead of the access, within the page,
	// skipping lines already issued for this stream.
	d := p.degree(s.confidence)
	from := lineOff + 1
	if s.maxIssued >= from {
		from = s.maxIssued + 1
	}
	to := lineOff + d
	if to > linesPerPage-1 {
		to = linesPerPage - 1
	}
	for l := from; l <= to; l++ {
		p.reqBuf = append(p.reqBuf, mem.Addr(page*mem.PageSize+uint64(l*mem.CachelineSize)))
		p.stats.Issued++
	}
	if to > s.maxIssued {
		s.maxIssued = to
	}
	return p.reqBuf
}
