package cluster

import (
	"fmt"
	"strconv"
	"strings"
)

// RangeError reports a byte range that cannot be satisfied against an
// object of the given size — the HTTP 416 case. It carries the size
// so the handler can emit the required "Content-Range: bytes */size".
type RangeError struct {
	Size int64
}

func (e *RangeError) Error() string {
	return fmt.Sprintf("requested range not satisfiable (object is %d bytes)", e.Size)
}

// rangeSpec is one parsed byte-range request, before resolution
// against the object's size. Non-suffix: bytes start..end inclusive,
// end == -1 meaning to the end of the object. Suffix ("bytes=-n"):
// the final start bytes (start holds n, end is unused).
type rangeSpec struct {
	start  int64
	end    int64
	suffix bool
}

// parseRange parses an HTTP Range header value. It handles exactly
// the shapes the gateway serves — a single "bytes=a-b", "bytes=a-",
// or "bytes=-n" range. Anything else (empty header, other units,
// multiple ranges, malformed values) returns ok=false, which per RFC
// 9110 the server may ignore by serving the full object with 200.
func parseRange(header string) (rangeSpec, bool) {
	header = strings.TrimSpace(header)
	rest, found := strings.CutPrefix(header, "bytes=")
	if !found || strings.Contains(rest, ",") {
		return rangeSpec{}, false
	}
	first, last, dash := strings.Cut(strings.TrimSpace(rest), "-")
	start, startOK := digits(first)
	end, endOK := digits(last)
	switch {
	case !dash:
	case first == "" && endOK: // suffix form "-n": the final n bytes
		return rangeSpec{start: end, suffix: true}, true
	case startOK && last == "":
		return rangeSpec{start: start, end: -1}, true
	case startOK && endOK && end >= start:
		return rangeSpec{start: start, end: end}, true
	}
	return rangeSpec{}, false
}

// digits parses a byte position as RFC 9110 spells one, 1*DIGIT: ASCII
// digits only, no sign or space, and small enough for an int64.
func digits(s string) (int64, bool) {
	if s == "" || strings.Trim(s, "0123456789") != "" {
		return 0, false
	}
	n, err := strconv.ParseInt(s, 10, 64)
	return n, err == nil
}

// resolve maps the spec onto an object of the given size, returning
// the absolute byte window [off, off+length). Unsatisfiable specs —
// start at or past the end, a zero-byte suffix, any range of an empty
// object — return a *RangeError.
func (s rangeSpec) resolve(size int64) (off, length int64, err error) {
	if s.suffix {
		n := s.start
		if n == 0 || size == 0 {
			return 0, 0, &RangeError{Size: size}
		}
		if n > size {
			n = size
		}
		return size - n, n, nil
	}
	if s.start >= size {
		return 0, 0, &RangeError{Size: size}
	}
	end := s.end
	if end < 0 || end >= size {
		end = size - 1
	}
	return s.start, end - s.start + 1, nil
}
