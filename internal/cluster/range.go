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

// parseRange parses an HTTP Range header value into the (off, length)
// request OpenObjectRange takes. It handles exactly the shapes the
// gateway serves — a single "bytes=a-b", "bytes=a-", or "bytes=-n"
// range; "bytes=-0" asks for zero bytes, which no object satisfies.
// Anything else (empty header, other units, multiple ranges, malformed
// values) returns ok=false, which per RFC 9110 the server may ignore
// by serving the full object with 200.
func parseRange(header string) (off, length int64, ok bool) {
	header = strings.TrimSpace(header)
	rest, found := strings.CutPrefix(header, "bytes=")
	if !found || strings.Contains(rest, ",") {
		return 0, 0, false
	}
	first, last, dash := strings.Cut(strings.TrimSpace(rest), "-")
	start, startOK := digits(first)
	end, endOK := digits(last)
	switch {
	case !dash:
	case first == "" && endOK: // suffix form "-n": the final n bytes
		if end == 0 {
			return 0, 0, true
		}
		return -end, -1, true
	case startOK && last == "":
		return start, -1, true
	case startOK && endOK && end >= start:
		// end-start+1 overflows only for "bytes=0-" followed by the
		// largest int64, which reads to the end like "bytes=0-".
		if n := end - start + 1; n > 0 {
			return start, n, true
		}
		return start, -1, true
	}
	return 0, 0, false
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
