package cluster

import (
	"strings"
	"testing"

	"dialga/internal/shardfile"
)

// FuzzParseRange: whatever Range header and object size come in, a range
// parseRange accepts has only digits in its numbers, and the window
// shardfile's rule cuts for it is either empty, as for a range no
// object of that size satisfies, or bytes inside the object and the
// blocks that carry exactly them.
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
		off, length, ok := parseRange(header)
		if !ok {
			return
		}
		rest, _ := strings.CutPrefix(strings.TrimSpace(header), "bytes=")
		first, last, _ := strings.Cut(strings.TrimSpace(rest), "-")
		if first+last == "" || strings.Trim(first+last, "0123456789") != "" {
			t.Fatalf("parseRange(%q) accepted numbers %q and %q", header, first, last)
		}
		h := rangeHeader(size)
		win := h.Cut(off, length)
		if win.Len == 0 {
			if win != (shardfile.Window{}) {
				t.Fatalf("Cut(%q, %d) = %+v: no bytes, but not the empty window", header, size, win)
			}
			return
		}
		stripe := int64(h.ShardSize) * int64(h.K)
		if win.Off < 0 || win.Len < 1 || win.Off+win.Len > size {
			t.Fatalf("Cut(%q, %d) = %+v, outside the object or empty", header, size, win)
		}
		if win.Block != win.Off/stripe || win.Block+win.Blocks != (win.Off+win.Len-1)/stripe+1 {
			t.Fatalf("Cut(%q, %d) = %+v: blocks do not carry exactly the bytes", header, size, win)
		}
	})
}
