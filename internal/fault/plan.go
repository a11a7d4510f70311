package fault

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// String serializes the plan to a compact, order-preserving form —
// "flip@100.3;zero@40+12;trunc@999;err@50" — suitable for pinning a
// failing chaos case in a regression test. Parse inverts it.
func (p Plan) String() string {
	var b strings.Builder
	for i, op := range p.Ops {
		if i > 0 {
			b.WriteByte(';')
		}
		switch op.Kind {
		case BitFlip:
			fmt.Fprintf(&b, "flip@%d.%d", op.Off, op.Bit&7)
		case ZeroFill:
			fmt.Fprintf(&b, "zero@%d+%d", op.Off, op.Len)
		case Slow:
			if op.Span > 0 {
				fmt.Fprintf(&b, "slow@%d+%d~%d", op.Off, op.Len, op.Span)
			} else {
				fmt.Fprintf(&b, "slow@%d+%d", op.Off, op.Len)
			}
		case Refuse, Blackhole:
			fmt.Fprintf(&b, "%s@%d+%d", op.Kind, op.Off, op.Len)
		default:
			fmt.Fprintf(&b, "%s@%d", op.Kind, op.Off)
		}
	}
	return b.String()
}

// Parse decodes a plan produced by Plan.String. An empty string is
// the empty plan.
func Parse(s string) (Plan, error) {
	var p Plan
	if s == "" {
		return p, nil
	}
	for _, tok := range strings.Split(s, ";") {
		name, rest, ok := strings.Cut(tok, "@")
		if !ok {
			return Plan{}, fmt.Errorf("%w: op %q has no offset", errBadPlan, tok)
		}
		var op Op
		switch name {
		case "flip":
			op.Kind = BitFlip
			offs, bits, ok := strings.Cut(rest, ".")
			if !ok {
				return Plan{}, fmt.Errorf("%w: flip op %q wants off.bit", errBadPlan, tok)
			}
			off, err := strconv.ParseInt(offs, 10, 64)
			if err != nil {
				return Plan{}, fmt.Errorf("%w: %v", errBadPlan, err)
			}
			bit, err := strconv.ParseUint(bits, 10, 8)
			if err != nil || bit > 7 {
				return Plan{}, fmt.Errorf("%w: flip bit %q out of range", errBadPlan, bits)
			}
			op.Off, op.Bit = off, uint8(bit)
		case "zero", "slow", "refuse", "hole":
			switch name {
			case "zero":
				op.Kind = ZeroFill
			case "slow":
				op.Kind = Slow
			case "refuse":
				op.Kind = Refuse
			case "hole":
				op.Kind = Blackhole
			}
			offs, lens, ok := strings.Cut(rest, "+")
			if !ok {
				return Plan{}, fmt.Errorf("%w: %s op %q wants off+len", errBadPlan, name, tok)
			}
			off, err := strconv.ParseInt(offs, 10, 64)
			if err != nil {
				return Plan{}, fmt.Errorf("%w: %v", errBadPlan, err)
			}
			// Slow accepts an optional "~span" suffix bounding the slow
			// period: "slow@0+500~4096" straggles only bytes [0, 4096).
			if spans, hasSpan := "", false; true {
				lens, spans, hasSpan = strings.Cut(lens, "~")
				if hasSpan {
					if op.Kind != Slow {
						return Plan{}, fmt.Errorf("%w: %s op %q: span only valid for slow", errBadPlan, name, tok)
					}
					sp, err := strconv.ParseInt(spans, 10, 64)
					if err != nil || sp <= 0 {
						return Plan{}, fmt.Errorf("%w: slow span %q invalid", errBadPlan, spans)
					}
					op.Span = sp
				}
			}
			l, err := strconv.ParseInt(lens, 10, 64)
			if err != nil || l < 0 {
				return Plan{}, fmt.Errorf("%w: %s length %q invalid", errBadPlan, name, lens)
			}
			op.Off, op.Len = off, l
		case "trunc", "err":
			op.Kind = Truncate
			if name == "err" {
				op.Kind = ErrOnce
			}
			off, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				return Plan{}, fmt.Errorf("%w: %v", errBadPlan, err)
			}
			op.Off = off
		default:
			return Plan{}, fmt.Errorf("%w: unknown op %q", errBadPlan, name)
		}
		if op.Off < 0 {
			return Plan{}, fmt.Errorf("%w: negative offset in %q", errBadPlan, tok)
		}
		p.Ops = append(p.Ops, op)
	}
	return p, nil
}

// Generate derives a reproducible read-side plan from seed: n faults
// drawn over a stream of size bytes, weighted toward data corruption
// (bit flips and zero fills) with occasional transient errors and at
// most one truncation. The same (seed, size, n) always yields the
// same plan, so a fuzz crash reproduces from its inputs alone.
func Generate(seed uint64, size int64, n int) Plan {
	var p Plan
	if size <= 0 || n <= 0 {
		return p
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	truncated := false
	for i := 0; i < n; i++ {
		off := rng.Int63n(size)
		switch draw := rng.Intn(10); {
		case draw < 5:
			p.Ops = append(p.Ops, Op{Kind: BitFlip, Off: off, Bit: uint8(rng.Intn(8))})
		case draw < 8:
			l := rng.Int63n(64) + 1
			if off+l > size {
				l = size - off
			}
			p.Ops = append(p.Ops, Op{Kind: ZeroFill, Off: off, Len: l})
		case draw < 9 || truncated:
			p.Ops = append(p.Ops, Op{Kind: ErrOnce, Off: off})
		default:
			truncated = true
			p.Ops = append(p.Ops, Op{Kind: Truncate, Off: off})
		}
	}
	return p
}
