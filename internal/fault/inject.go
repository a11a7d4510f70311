package fault

import (
	"context"
	"io"
	"time"
)

// sleep pauses for d unless ctx is cancelled first, in which case it
// returns the context's error. A nil ctx sleeps unconditionally.
// Injected latency (Slow) goes through here so a cancelled
// decode is never held hostage by its own fault plan.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	if ctx == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// splitmix64 is the SplitMix64 finalizer: a cheap, stateless hash used
// to derive per-read Slow delays from plan data alone, so the latency
// trace is reproducible without carrying RNG state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// slowDelay returns the sleep for the j-th read delayed by a Slow op:
// uniform over [Len/2, 3*Len/2) microseconds, deterministic in
// (Off, Len, j).
func slowDelay(op Op, j int64) time.Duration {
	if op.Len <= 0 {
		return 0
	}
	h := splitmix64(uint64(op.Off)*0x100000001b3 ^ uint64(op.Len)<<1 ^ uint64(j))
	us := op.Len/2 + int64(h%uint64(op.Len))
	return time.Duration(us) * time.Microsecond
}

// Reader applies a Plan to the bytes flowing out of an underlying
// reader. Offsets are absolute: byte 0 is the first byte the wrapped
// reader would ever return. BitFlip and ZeroFill mutate data in
// place, Truncate converts the stream to a clean early EOF, and
// ErrOnce raises one transient *Err without consuming input — the
// next Read resumes exactly where the stream stopped, the way a
// flaky-but-live transport behaves. Slow makes the reader a
// persistent straggler: a deterministic per-read sleep before every
// transfer at or past its offset.
type Reader struct {
	r     io.Reader
	ctx   context.Context
	pos   int64
	ops   []Op
	fired []bool  // ErrOnce ops that already triggered
	count []int64 // Slow ops: reads delayed so far (the delay-draw index)
}

// NewReader wraps r with the plan's byte-stream faults. The
// connection-level ops (Refuse, Blackhole) are ignored.
func NewReader(r io.Reader, p Plan) *Reader {
	ops := append([]Op(nil), p.Ops...)
	return &Reader{r: r, ops: ops, fired: make([]bool, len(ops)), count: make([]int64, len(ops))}
}

// WithContext binds ctx to the reader's injected sleeps: a Slow delay
// in progress returns ctx.Err() as soon as ctx is cancelled instead of
// sleeping out its full draw. It returns f for chaining.
func (f *Reader) WithContext(ctx context.Context) *Reader {
	f.ctx = ctx
	return f
}

func (f *Reader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return f.r.Read(p)
	}
	limit := int64(len(p))
	for i, op := range f.ops {
		switch op.Kind {
		case Truncate:
			if op.Off <= f.pos {
				return 0, io.EOF
			}
			if d := op.Off - f.pos; d < limit {
				limit = d
			}
		case ErrOnce:
			if f.fired[i] || op.Off > f.pos+limit {
				continue
			}
			if op.Off <= f.pos {
				f.fired[i] = true
				return 0, &Err{Off: f.pos}
			}
			// Stop this read just short of the trigger byte so the
			// fault fires with nothing lost.
			limit = op.Off - f.pos
		}
	}
	// Straggler latency fires after the transfer window is known: any
	// read whose window [pos, pos+limit) overlaps a Slow op's covered
	// range [Off, Off+Span) — unbounded when Span is zero — sleeps that
	// op's next deterministic delay first.
	for i, op := range f.ops {
		if op.Kind != Slow || op.Off >= f.pos+limit {
			continue
		}
		if op.Span > 0 && f.pos >= op.Off+op.Span {
			continue // the slow period ended before this read
		}
		j := f.count[i]
		f.count[i]++
		if err := sleep(f.ctx, slowDelay(op, j)); err != nil {
			return 0, err
		}
	}
	n, err := f.r.Read(p[:limit])
	if n > 0 {
		f.corrupt(p[:n], f.pos)
		f.pos += int64(n)
	}
	return n, err
}

// corrupt applies the data-mutation ops (BitFlip, ZeroFill) that
// overlap [pos, pos+len(b)) to b in place.
func (f *Reader) corrupt(b []byte, pos int64) {
	end := pos + int64(len(b))
	for _, op := range f.ops {
		switch op.Kind {
		case BitFlip:
			if op.Off >= pos && op.Off < end {
				b[op.Off-pos] ^= 1 << (op.Bit & 7)
			}
		case ZeroFill:
			lo, hi := max(op.Off, pos), min(op.Off+op.Len, end)
			if lo < hi {
				clear(b[lo-pos : hi-pos])
			}
		}
	}
}
