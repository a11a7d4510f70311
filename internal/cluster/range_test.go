package cluster

import (
	"errors"
	"strings"
	"testing"
)

// FuzzParseRange: whatever Range header and object size come in, a spec
// parseRange accepts has only digits in its numbers, and a window
// resolve grants lies inside the object and is not empty; what it
// refuses is a RangeError.
func FuzzParseRange(f *testing.F) {
	for _, h := range []string{
		"bytes=0-99", "bytes=500-", "bytes=-200", "bytes=-0", "bytes=999-999",
		"bytes=+5-9", "bytes=--0", "bytes=--5", "bytes=5-+9", "bytes=-+5",
		"bytes=0-1,5-6", " bytes=1-2", "bytes=1 -2", "bytes=99999999999999999999-",
	} {
		f.Add(h, int64(1000))
		f.Add(h, int64(0))
	}
	f.Fuzz(func(t *testing.T, header string, size int64) {
		if size < 0 {
			return // objects have no negative sizes
		}
		spec, ok := parseRange(header)
		if !ok {
			return
		}
		rest, _ := strings.CutPrefix(strings.TrimSpace(header), "bytes=")
		first, last, _ := strings.Cut(strings.TrimSpace(rest), "-")
		if first+last == "" || strings.Trim(first+last, "0123456789") != "" {
			t.Fatalf("parseRange(%q) accepted numbers %q and %q", header, first, last)
		}
		off, length, err := spec.resolve(size)
		if err != nil {
			var re *RangeError
			if !errors.As(err, &re) || re.Size != size {
				t.Fatalf("resolve(%q, %d): %v, want a RangeError", header, size, err)
			}
			return
		}
		if off < 0 || length < 1 || off+length > size {
			t.Fatalf("resolve(%q, %d) = [%d, +%d), outside the object or empty", header, size, off, length)
		}
	})
}
