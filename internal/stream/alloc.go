package stream

import "sync"

// IdleBudget is the process's one bound on idle buffers: the bytes the
// allocator's free lists hold, every size together. The three
// per-pipeline pools it replaced held 21 MiB between them after the
// benchmark's put_8m, 26 MiB after get_8m and 16 MiB after small_mixed;
// idle bytes are live heap the GC paces itself by, so the budget is the
// least of the three — what a workload last used stays, and a burst
// does not become a permanent reservation (DESIGN.md, "Pool shape").
const IdleBudget = 16 << 20

// buffers is the process's one buffer allocator. Every buffer the data
// path recycles — a group's shard blocks, a decoder's reconstruct
// spares, a rebuilder's output blocks, an encoder's lent stripes — comes
// from getBuffer and goes back through putBuffer, so buffers outlive the
// pipelines that use them and a pipeline holds nothing worth keeping.
//
// It keeps one free list per exact buffer size under one mutex, rather
// than a sync.Pool: Put-ing a []byte into a sync.Pool heap-allocates a
// *[]byte box every cycle, and whatever a sync.Pool holds — its victim
// generation included — is live heap when the next heap goal is set.
// Idle bytes never exceed IdleBudget: a returned buffer that would push
// them past it first drops the least recently returned idle buffers,
// whatever their size, so a workload that shifts from one size to
// another refills the budget with what it uses now. A size whose list
// runs dry leaves no entry behind (sizes come from stored headers, which
// anyone may have written); its emptied list is kept, without its size,
// for the next size to need one, so a size that comes and goes does not
// allocate a list each time.
var buffers struct {
	mu      sync.Mutex
	idle    int               // bytes held, every list together
	clock   uint64            // putBuffer calls so far: the return stamp
	lists   map[int]*freeList // by buffer size; never an empty list
	emptied []*freeList       // lists that ran dry, at most maxEmptied
}

// maxEmptied bounds the emptied lists kept for reuse: enough for the
// block and stripe sizes of the few rungs a workload cycles through.
const maxEmptied = 16

type freeList struct {
	bufs []idleBuffer // oldest first
}

type idleBuffer struct {
	b        []byte
	returned uint64
}

// getBuffer returns a size-byte buffer: the most recently returned idle
// one of that size, or a new one. Its contents are whatever its last
// user left. Safe for concurrent use.
func getBuffer(size int) []byte {
	buffers.mu.Lock()
	if l := buffers.lists[size]; l != nil {
		n := len(l.bufs) - 1
		b := l.bufs[n].b
		l.bufs[n] = idleBuffer{}
		l.bufs = l.bufs[:n]
		buffers.idle -= size
		if n == 0 {
			retire(size, l)
		}
		buffers.mu.Unlock()
		return b
	}
	buffers.mu.Unlock()
	return make([]byte, size)
}

// putBuffer returns a buffer getBuffer handed out, at whatever length it
// was resliced to from its start; the caller must not touch it again. A
// buffer larger than IdleBudget is left to the GC. Safe for concurrent
// use.
func putBuffer(b []byte) {
	b = b[:cap(b)]
	size := len(b)
	if size == 0 || size > IdleBudget {
		return
	}
	buffers.mu.Lock()
	defer buffers.mu.Unlock()
	for buffers.idle+size > IdleBudget {
		evictOldest()
	}
	l := buffers.lists[size]
	if l == nil {
		if n := len(buffers.emptied); n > 0 {
			l = buffers.emptied[n-1]
			buffers.emptied = buffers.emptied[:n-1]
		} else {
			l = new(freeList)
		}
		if buffers.lists == nil {
			buffers.lists = make(map[int]*freeList)
		}
		buffers.lists[size] = l
	}
	buffers.clock++
	l.bufs = append(l.bufs, idleBuffer{b, buffers.clock})
	buffers.idle += size
}

// evictOldest drops the least recently returned idle buffer. Callers
// hold buffers.mu and know one is idle.
func evictOldest() {
	var oldest *freeList
	for _, l := range buffers.lists {
		if oldest == nil || l.bufs[0].returned < oldest.bufs[0].returned {
			oldest = l
		}
	}
	size := len(oldest.bufs[0].b)
	oldest.bufs[0] = idleBuffer{}
	oldest.bufs = oldest.bufs[1:]
	buffers.idle -= size
	if len(oldest.bufs) == 0 {
		retire(size, oldest)
	}
}

// retire removes size's emptied list. Callers hold buffers.mu.
func retire(size int, l *freeList) {
	delete(buffers.lists, size)
	if len(buffers.emptied) < maxEmptied {
		l.bufs = l.bufs[:0]
		buffers.emptied = append(buffers.emptied, l)
	}
}

// IdleBuffers reports what the allocator holds idle: a count of buffers
// per buffer size.
func IdleBuffers() map[int]int {
	buffers.mu.Lock()
	defer buffers.mu.Unlock()
	idle := make(map[int]int, len(buffers.lists))
	for size, l := range buffers.lists {
		idle[size] = len(l.bufs)
	}
	return idle
}
