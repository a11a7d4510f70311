// Package fault provides deterministic, reproducible I/O fault
// injection for the erasure-coding pipeline's chaos tests.
//
// A Plan is an ordered list of operations: byte-offset-addressed ones
// (flip a bit, zero a range, truncate the stream, raise a one-shot
// transient error, slow every read like a straggling device) that a
// Reader applies as bytes flow through it, and request-addressed ones
// (refuse or blackhole a connection) that a Transport applies to the
// traffic of an http.RoundTripper, wrapping each response body in a
// Reader for the byte-stream ops. Plans are plain data: they serialize
// to a compact string (Plan.String / Parse) so a failing fuzz or
// property-test case can be pinned verbatim in a regression test, and
// Generate derives a random-but-reproducible plan from a bare seed.
//
// Transient faults are reported as *Err, which satisfies
// errors.Is(err, ErrInjected) and exposes Transient() bool, so a
// consumer (node.Transient, and through it a put's retry) tells a
// flaky request from a dead one without importing this package.
package fault

import (
	"errors"
	"fmt"
)

// Kind enumerates the injectable fault operations.
type Kind uint8

const (
	// BitFlip flips bit Bit of the byte at offset Off.
	BitFlip Kind = iota
	// ZeroFill zeroes Len bytes starting at offset Off.
	ZeroFill
	// Truncate ends the stream at offset Off: reads return io.EOF.
	Truncate
	// ErrOnce raises a single transient *Err immediately before the
	// byte at offset Off is transferred; the stream position does not
	// advance, so a retry continues where it left off.
	ErrOnce
	// Slow turns the stream into a straggler: every read that
	// transfers a byte at or past offset Off — and, when Span is
	// positive, before Off+Span — first sleeps a delay drawn
	// deterministically per read from the op itself. The j-th delayed
	// read sleeps a value in [Len/2, 3*Len/2) microseconds derived by
	// hashing (Off, Len, j), so a plan replays the same latency trace
	// every run without any extra seed state. Span zero means the
	// straggling persists to EOF; a bounded Span models a device that
	// is slow for a while and then recovers, which is how chaos tests
	// move a straggler from one shard to another mid-run.
	Slow
	// Refuse is a connection-level fault interpreted by Transport: the
	// request is failed immediately with a transient error, as a
	// refused connection would be. Unlike the byte-addressed ops, Off
	// and Len count whole requests: requests Off..Off+Len-1 (counted
	// from when the plan was installed for the host) are refused, and
	// Len zero refuses every request from Off on — a network partition
	// that holds until the plan is cleared. Ignored by Reader.
	Refuse
	// Blackhole is a connection-level fault interpreted by Transport:
	// affected requests hang until their context ends, the way a
	// blackholed route (packets silently dropped, no RST) behaves.
	// Off/Len address whole requests exactly like Refuse. Ignored by
	// Reader.
	Blackhole
)

var kindNames = map[Kind]string{
	BitFlip:   "flip",
	ZeroFill:  "zero",
	Truncate:  "trunc",
	ErrOnce:   "err",
	Slow:      "slow",
	Refuse:    "refuse",
	Blackhole: "hole",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Op is one injected fault. Byte-stream ops are addressed by absolute
// stream offset; the connection-level ops (Refuse, Blackhole) are
// addressed by request count instead.
type Op struct {
	Kind Kind
	Off  int64 // absolute byte offset (Refuse/Blackhole: first request index)
	Len  int64 // ZeroFill: span in bytes; Slow: microseconds; Refuse/Blackhole: request count, 0 = unbounded
	Span int64 // Slow: bytes the op covers from Off; 0 = to EOF
	Bit  uint8 // BitFlip: bit index 0..7
}

// Plan is an ordered set of fault operations sharing one stream.
type Plan struct {
	Ops []Op
}

// Err is the transient error the injector raises for ErrOnce, Refuse
// and Blackhole faults. errors.Is(err, ErrInjected) matches every
// instance regardless of offset.
type Err struct {
	Off int64 // stream offset the fault fired at
}

func (e *Err) Error() string {
	return fmt.Sprintf("fault: injected transient error at offset %d", e.Off)
}

// Transient reports that the failure is momentary: a fresh request may
// succeed. node.Transient keys off this method, so a put retries an
// upload an injected fault cut. A shard stream it breaks is dead all
// the same: no decode demotes a shard for one stripe on a transient
// error, or reads the same body again.
func (e *Err) Transient() bool { return true }

// Is makes every *Err match ErrInjected under errors.Is.
func (e *Err) Is(target error) bool {
	_, ok := target.(*Err)
	return ok
}

// ErrInjected is the sentinel for injected transient faults:
// errors.Is(err, ErrInjected) is true for every error a Reader or
// Transport raises on purpose.
var ErrInjected error = &Err{Off: -1}

// errBadPlan wraps plan-parse failures.
var errBadPlan = errors.New("fault: malformed plan")
