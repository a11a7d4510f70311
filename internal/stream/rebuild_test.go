package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dialga/internal/rs"
)

// rebuildFrom rebuilds shard target from the shard streams listed in
// sources (spares opened by spare, if any) and returns the bytes the
// Rebuilder wrote along with its error.
func rebuildFrom(t testing.TB, rb *Rebuilder, shards [][]byte, sources []int, target int, spare SpareFunc) ([]byte, error) {
	t.Helper()
	readers := make([]io.Reader, len(shards))
	for _, i := range sources {
		readers[i] = bytes.NewReader(shards[i])
	}
	stripes := int64(len(shards[0]) / rb.g.blockSize)
	var out bytes.Buffer
	err := rb.Rebuild(context.Background(), readers, target, &out, stripes, spare)
	return out.Bytes(), err
}

// firstKOthers returns the first k shard indices that are not target.
func firstKOthers(k, n, target int) []int {
	var out []int
	for i := 0; i < n && len(out) < k; i++ {
		if i != target {
			out = append(out, i)
		}
	}
	return out
}

// TestRebuildMatchesEncoder: for every target index, the rebuilt shard
// stream is byte-for-byte what the Encoder wrote for that shard —
// blocks and trailers — from two different survivor sets, for a
// multi-stripe object with a padded tail, a single-stripe 64 KiB
// object, and an empty object.
func TestRebuildMatchesEncoder(t *testing.T) {
	const k, m = 4, 2
	for _, tc := range []struct {
		name    string
		opts    Options
		payload int
	}{
		{"padded tail", Options{StripeSize: k * 512, Workers: 3}, 5*k*512 + 333},
		{"one worker", Options{StripeSize: k * 512, Workers: 1}, 9 * k * 512},
		{"64KiB under the default stripe", Options{}, 64 << 10},
		{"empty object", Options{StripeSize: k * 512}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			opts.Codec = mustRS(t, k, m)
			shards := encodeAll(t, opts, randBytes(t, tc.payload, 31))
			rb, err := NewRebuilder(opts)
			if err != nil {
				t.Fatal(err)
			}
			for target := 0; target < k+m; target++ {
				lastK := make([]int, 0, k)
				for i := k + m - 1; i >= 0 && len(lastK) < k; i-- {
					if i != target {
						lastK = append(lastK, i)
					}
				}
				for _, sources := range [][]int{firstKOthers(k, k+m, target), lastK} {
					got, err := rebuildFrom(t, rb, shards, sources, target, nil)
					if err != nil {
						t.Fatalf("target %d from %v: %v", target, sources, err)
					}
					if !bytes.Equal(got, shards[target]) {
						t.Fatalf("target %d from %v: %d rebuilt bytes differ from the %d the encoder wrote",
							target, sources, len(got), len(shards[target]))
					}
				}
			}
			stripes := uint64(len(shards[0]) / rb.g.blockSize)
			if st := rb.stats.snapshot(); st.Stripes != 2*(k+m)*stripes || st.ShardFailures+st.ShardsCorrupted+st.StripesHealed != 0 {
				t.Fatalf("stats after clean rebuilds: %+v", st)
			}
		})
	}
}

// TestRebuildHealsThroughSpare: one source fails at stripe 3 — a
// corrupt block, a read error, an early end — and the rebuild carries
// on through the one spare the caller opens at that stripe, for that
// reason, with the output still byte-identical and the counters exact.
// A corrupt block is an erasure for its stripe only: its shard goes on
// serving, so from the next stripe on k+1 sources are read.
func TestRebuildHealsThroughSpare(t *testing.T) {
	const k, m, shardSize, stripes, failAt = 4, 2, 256, 8, 3
	const blockSize = shardSize + crcSize
	opts := Options{Codec: mustRS(t, k, m), StripeSize: k * shardSize, Workers: 2}
	shards := encodeAll(t, opts, randBytes(t, stripes*k*shardSize-19, 32))
	target, bad, spareIdx := k, 1, k+1

	for _, tc := range []struct {
		name             string
		damage           func() io.Reader
		reason           string
		corrupt, failure uint64
		kept             uint64 // blocks the damaged source still serves after failAt
	}{
		{"corrupt block", func() io.Reader {
			b := append([]byte(nil), shards[bad]...)
			b[failAt*blockSize+17] ^= 0x40
			return bytes.NewReader(b)
		}, "corrupt", 1, 0, stripes - failAt - 1},
		{"read error", func() io.Reader {
			return &erraticReader{data: shards[bad][:failAt*blockSize+9], err: errors.New("disk on fire")}
		}, "dead", 0, 1, 0},
		{"early end", func() io.Reader {
			return bytes.NewReader(shards[bad][:failAt*blockSize])
		}, "dead", 0, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rb, err := NewRebuilder(opts)
			if err != nil {
				t.Fatal(err)
			}
			readers := make([]io.Reader, k+m)
			for i := 0; i < k; i++ {
				readers[i] = bytes.NewReader(shards[i])
			}
			readers[bad] = tc.damage()
			var calls []string
			spare := func(_ context.Context, block int64, reason string) (int, io.Reader, error) {
				calls = append(calls, fmt.Sprintf("%d %s", block, reason))
				return spareIdx, bytes.NewReader(shards[spareIdx][block*blockSize:]), nil
			}
			var out bytes.Buffer
			if err := rb.Rebuild(context.Background(), readers, target, &out, stripes, spare); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), shards[target]) {
				t.Fatal("healed rebuild differs from the encoder's shard")
			}
			if want := fmt.Sprintf("%d %s", failAt, tc.reason); len(calls) != 1 || calls[0] != want {
				t.Fatalf("spares opened %q, want once: %q", calls, want)
			}
			st := rb.stats.snapshot()
			want := Stats{
				Stripes: stripes, Reconstructed: stripes,
				BytesIn: (stripes*k + tc.kept) * blockSize, BytesOut: stripes * blockSize,
				ShardsCorrupted: tc.corrupt, ShardFailures: tc.failure, StripesHealed: 1,
			}
			if st != want {
				t.Fatalf("stats %+v, want %+v", st, want)
			}
		})
	}
}

// TestRebuildTooManyCorrupt: more sources fail than there are spares
// to cover. The rebuild stops at the failing stripe with an error
// wrapping ErrTooManyCorrupt, having written nothing past it.
func TestRebuildTooManyCorrupt(t *testing.T) {
	const k, m, shardSize, stripes, failAt = 4, 2, 256, 8, 5
	const blockSize = shardSize + crcSize
	opts := Options{Codec: mustRS(t, k, m), StripeSize: k * shardSize}
	shards := encodeAll(t, opts, randBytes(t, stripes*k*shardSize, 33))
	damaged := append([][]byte(nil), shards...)
	for _, i := range []int{0, 2} {
		damaged[i] = append([]byte(nil), shards[i]...)
		damaged[i][failAt*blockSize+i] ^= 1
	}
	rb, err := NewRebuilder(opts)
	if err != nil {
		t.Fatal(err)
	}
	oneSpare := func() SpareFunc {
		left := []int{k + 1}
		return func(_ context.Context, block int64, _ string) (int, io.Reader, error) {
			if len(left) == 0 {
				return 0, nil, errors.New("spares exhausted")
			}
			idx := left[0]
			left = left[1:]
			return idx, bytes.NewReader(shards[idx][block*blockSize:]), nil
		}
	}
	for name, spare := range map[string]SpareFunc{"one spare for two failures": oneSpare(), "no spare func": nil} {
		got, err := rebuildFrom(t, rb, damaged, []int{0, 1, 2, 3}, k, spare)
		if !errors.Is(err, ErrTooManyCorrupt) {
			t.Fatalf("%s: err = %v, want ErrTooManyCorrupt", name, err)
		}
		if len(got) > failAt*blockSize || !bytes.Equal(got, shards[k][:len(got)]) {
			t.Fatalf("%s: wrote %d bytes, want a prefix of the first %d good blocks", name, len(got), failAt)
		}
	}
}

func TestRebuildValidation(t *testing.T) {
	const k, m = 4, 2
	opts := Options{Codec: mustRS(t, k, m), StripeSize: k * 64}
	shards := encodeAll(t, opts, randBytes(t, 4*k*64, 34))
	rb, err := NewRebuilder(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rebuildFrom(t, rb, shards, []int{0, 1, 2, 3}, 2, nil); err == nil {
		t.Fatal("target given as a source: no error")
	}
	if _, err := rebuildFrom(t, rb, shards, []int{0, 1, 3}, 2, nil); err == nil {
		t.Fatal("three sources for k=4: no error")
	}
	if _, err := rebuildFrom(t, rb, shards, []int{0, 1, 2, 3}, k+m, nil); err == nil {
		t.Fatal("target out of range: no error")
	}
	if _, err := rebuildFrom(t, rb, shards[:5], []int{0, 1, 2, 3}, 4, nil); err == nil {
		t.Fatal("five readers for k+m=6: no error")
	}
}

// closeCounter is a shard reader that records being closed.
type closeCounter struct {
	io.Reader
	closed *atomic.Int32
}

func (c closeCounter) Close() error { c.closed.Add(1); return nil }

// stallWriter accepts n writes, then blocks until released.
type stallWriter struct {
	n       int
	release chan struct{}
}

func (w *stallWriter) Write(p []byte) (int, error) {
	if w.n == 0 {
		<-w.release
		return 0, errors.New("writer gone")
	}
	w.n--
	return len(p), nil
}

// TestRebuildReleasesEverything: a finished, a failed, a cancelled and
// a write-failed rebuild all close every reader they were handed or
// opened as a spare and leave no goroutine behind.
func TestRebuildReleasesEverything(t *testing.T) {
	const k, m, shardSize, stripes = 4, 2, 128, 12
	const blockSize = shardSize + crcSize
	opts := Options{Codec: mustRS(t, k, m), StripeSize: k * shardSize}
	shards := encodeAll(t, opts, randBytes(t, stripes*k*shardSize, 35))
	corrupt := append([]byte(nil), shards[0]...)
	corrupt[2*blockSize] ^= 1
	rb, err := NewRebuilder(opts)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()

	for _, tc := range []struct {
		name   string
		spares int
		w      func(cancel context.CancelFunc) io.Writer
		ok     bool
	}{
		{"healed", 1, func(context.CancelFunc) io.Writer { return io.Discard }, true},
		{"too many corrupt", 0, func(context.CancelFunc) io.Writer { return io.Discard }, false},
		{"cancelled while the writer is stalled", 1, func(cancel context.CancelFunc) io.Writer {
			w := &stallWriter{n: 1, release: make(chan struct{})}
			go func() {
				time.Sleep(5 * time.Millisecond)
				cancel()
				close(w.release)
			}()
			return w
		}, false},
		{"writer fails", 1, func(context.CancelFunc) io.Writer {
			w := &stallWriter{n: 4, release: make(chan struct{})}
			close(w.release)
			return w
		}, false},
	} {
		var opened, closed atomic.Int32
		open := func(b []byte) io.Reader {
			opened.Add(1)
			return closeCounter{bytes.NewReader(b), &closed}
		}
		readers := make([]io.Reader, k+m)
		readers[0] = open(corrupt)
		for i := 1; i < k; i++ {
			readers[i] = open(shards[i])
		}
		left := tc.spares
		spare := func(_ context.Context, block int64, _ string) (int, io.Reader, error) {
			if left == 0 {
				return 0, nil, errors.New("spares exhausted")
			}
			left--
			return k + 1, open(shards[k+1][block*blockSize:]), nil
		}
		ctx, cancel := context.WithCancel(context.Background())
		err := rb.Rebuild(ctx, readers, k, tc.w(cancel), stripes, spare)
		cancel()
		if (err == nil) != tc.ok {
			t.Fatalf("%s: err = %v", tc.name, err)
		}
		if opened.Load() != closed.Load() {
			t.Fatalf("%s: %d readers opened, %d closed", tc.name, opened.Load(), closed.Load())
		}
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > %d\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestVerifiedReaderChunking: the trailer check does not depend on how
// the underlying reader slices the stream — byte at a time, trailers
// split across reads — and a bad block fails instead of completing,
// with the stream going on from the next block.
func TestVerifiedReaderChunking(t *testing.T) {
	const k, m, shardSize, stripes = 2, 1, 40, 3
	const blockSize = shardSize + crcSize
	opts := Options{Codec: mustRS(t, k, m), StripeSize: k * shardSize}
	shard := encodeAll(t, opts, randBytes(t, stripes*k*shardSize, 36))[0]
	for _, chunk := range []int{1, 3, shardSize - 1, shardSize + 2, blockSize, 4 * blockSize} {
		v := &verifiedReader{r: iotestChunks{bytes.NewReader(shard), chunk}, shardSize: shardSize}
		got, err := io.ReadAll(v)
		if err != nil || !bytes.Equal(got, shard) {
			t.Fatalf("chunk %d: err=%v, %d of %d bytes", chunk, err, len(got), len(shard))
		}
		bad := append([]byte(nil), shard...)
		bad[blockSize+shardSize+1] ^= 0x80 // second block's trailer
		v = &verifiedReader{r: iotestChunks{bytes.NewReader(bad), chunk}, shardSize: shardSize}
		got, err = io.ReadAll(v)
		if !errors.Is(err, errBlockChecksum) || len(got) < blockSize || len(got) >= 2*blockSize {
			t.Fatalf("chunk %d: bad block: err=%v after %d bytes", chunk, err, len(got))
		}
		if rest, err := io.ReadAll(v); err != nil || !bytes.Equal(rest, shard[2*blockSize:]) {
			t.Fatalf("chunk %d: after a bad block: err=%v, %d bytes, want the %d after it", chunk, err, len(rest), len(shard)-2*blockSize)
		}
	}
}

// iotestChunks caps every Read at n bytes.
type iotestChunks struct {
	r io.Reader
	n int
}

func (c iotestChunks) Read(p []byte) (int, error) {
	if len(p) > c.n {
		p = p[:c.n]
	}
	return c.r.Read(p)
}

func ExampleRebuilder() {
	code, _ := rs.New(4, 2)
	opts := Options{Codec: code, StripeSize: 4 * 1024}
	enc, _ := NewEncoder(opts)
	shards := make([]bytes.Buffer, 6)
	writers := make([]io.Writer, 6)
	for i := range shards {
		writers[i] = &shards[i]
	}
	_ = enc.Encode(context.Background(), bytes.NewReader(make([]byte, 10_000)), writers)

	// Shard 1 is lost: rebuild it from shards 0, 2, 3 and 4.
	rb, _ := NewRebuilder(opts)
	readers := make([]io.Reader, 6)
	for _, i := range []int{0, 2, 3, 4} {
		readers[i] = bytes.NewReader(shards[i].Bytes())
	}
	var rebuilt bytes.Buffer
	stripes := int64(shards[0].Len() / enc.BlockSize())
	err := rb.Rebuild(context.Background(), readers, 1, &rebuilt, stripes, nil)
	fmt.Println(err, bytes.Equal(rebuilt.Bytes(), shards[1].Bytes()))
	// Output: <nil> true
}
