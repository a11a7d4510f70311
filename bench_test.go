// Benchmarks regenerating the paper's tables and figures, one target
// per figure, plus byte-level codec benchmarks and the DESIGN.md
// ablations. Figure benchmarks run the harness in quick mode so the
// whole suite stays tractable under `go test -bench=.`; the recorded
// EXPERIMENTS.md numbers come from full-mode `dialga-bench` runs.
package dialga

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"dialga/internal/dialga"
	"dialga/internal/engine"
	"dialga/internal/harness"
	"dialga/internal/isal"
	"dialga/internal/mem"
	"dialga/internal/rs"
	"dialga/internal/workload"
)

func benchFigure(b *testing.B, id string, headline func(*harness.Figure) (string, float64)) {
	r := &harness.Runner{Quick: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := r.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		if name, v := headline(f); name != "" {
			b.ReportMetric(v, name)
		}
	}
}

// lastOf returns the final point of a named series.
func lastOf(f *harness.Figure, series string) float64 {
	for _, s := range f.Series {
		if s.Name == series {
			return s.Y[len(s.Y)-1]
		}
	}
	return 0
}

func BenchmarkFig03LoadSources(b *testing.B) {
	benchFigure(b, "fig03", func(f *harness.Figure) (string, float64) {
		return "PM-pfOn-GB/s", lastOf(f, "throughput")
	})
}

func BenchmarkFig04Frequency(b *testing.B) {
	benchFigure(b, "fig04", func(f *harness.Figure) (string, float64) {
		return "PM-3.3GHz-GB/s", lastOf(f, "PM/AVX512")
	})
}

func BenchmarkFig05StripeWidth(b *testing.B) {
	benchFigure(b, "fig05", func(f *harness.Figure) (string, float64) {
		return "k-max-GB/s", lastOf(f, "throughput")
	})
}

func BenchmarkFig06BlockSize(b *testing.B) {
	benchFigure(b, "fig06", func(f *harness.Figure) (string, float64) {
		return "4KB-pfOn-GB/s", lastOf(f, "tput/pf-on")
	})
}

func BenchmarkFig07Scalability(b *testing.B) {
	benchFigure(b, "fig07", func(f *harness.Figure) (string, float64) {
		return "t18-pfOn-GB/s", lastOf(f, "pf-on")
	})
}

func BenchmarkFig10EncodeVsK(b *testing.B) {
	benchFigure(b, "fig10", func(f *harness.Figure) (string, float64) {
		return "DIALGA-wide-GB/s", lastOf(f, "DIALGA")
	})
}

func BenchmarkFig11ParityCount(b *testing.B) {
	benchFigure(b, "fig11", func(f *harness.Figure) (string, float64) {
		return "DIALGA-GB/s", lastOf(f, "DIALGA")
	})
}

func BenchmarkFig12BlockSweep(b *testing.B) {
	benchFigure(b, "fig12", func(f *harness.Figure) (string, float64) {
		return "DIALGA-GB/s", lastOf(f, "DIALGA")
	})
}

func BenchmarkFig13ThreadSweep(b *testing.B) {
	benchFigure(b, "fig13", func(f *harness.Figure) (string, float64) {
		return "DIALGA-t18-GB/s", lastOf(f, "DIALGA")
	})
}

func BenchmarkFig14Decode(b *testing.B) {
	benchFigure(b, "fig14", func(f *harness.Figure) (string, float64) {
		return "DIALGA-GB/s", lastOf(f, "DIALGA")
	})
}

func BenchmarkFig15SIMD(b *testing.B) {
	benchFigure(b, "fig15", func(f *harness.Figure) (string, float64) {
		return "DIALGA-AVX256-GB/s", lastOf(f, "DIALGA")
	})
}

func BenchmarkFig16LRC(b *testing.B) {
	benchFigure(b, "fig16", func(f *harness.Figure) (string, float64) {
		return "DIALGA-GB/s", lastOf(f, "DIALGA")
	})
}

func BenchmarkFig17MissCycles(b *testing.B) {
	benchFigure(b, "fig17", func(f *harness.Figure) (string, float64) {
		return "DIALGA-cyc/load", lastOf(f, "DIALGA")
	})
}

func BenchmarkFig18Breakdown(b *testing.B) {
	benchFigure(b, "fig18", func(f *harness.Figure) (string, float64) {
		return "full-GB/s", lastOf(f, "+BF")
	})
}

func BenchmarkFig19ReadTraffic(b *testing.B) {
	benchFigure(b, "fig19", func(f *harness.Figure) (string, float64) {
		return "DIALGA-t18-media-amp", lastOf(f, "media")
	})
}

// --- byte-level codec benchmarks (real encoding work) ---

func benchCodecEncode(b *testing.B, k, m, size int) {
	c, err := NewCodec(k, m)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, size)
		r.Read(data[i])
	}
	parity := make([][]byte, m)
	for i := range parity {
		parity[i] = make([]byte, size)
	}
	b.SetBytes(int64(k * size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Encode(data, parity); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecRS_12_8(b *testing.B)  { benchCodecEncode(b, 8, 4, 1024) }
func BenchmarkCodecRS_28_24(b *testing.B) { benchCodecEncode(b, 24, 4, 1024) }
func BenchmarkCodecRS_52_48(b *testing.B) { benchCodecEncode(b, 48, 4, 1024) }

// --- encode kernel sweep: fused tiled path vs scalar reference ---

// BenchmarkEncode sweeps code shape and block size over the fused
// word-parallel encoder and the retained scalar reference so the kernel
// speedup is measured rather than assumed; MB/s counts data bytes
// consumed (k*blocksize per op). CI runs the sweep at -benchtime=1x and
// archives the output as BENCH_encode.json.
func BenchmarkEncode(b *testing.B) {
	impls := []struct {
		name string
		enc  func(*rs.Code, [][]byte, [][]byte) error
	}{
		{"fused", (*rs.Code).Encode},
		{"ref", (*rs.Code).EncodeRef},
	}
	for _, sh := range []struct{ k, m int }{{4, 2}, {10, 4}, {24, 4}} {
		for _, size := range []int{4 << 10, 64 << 10, 1 << 20} {
			c, err := rs.New(sh.k, sh.m)
			if err != nil {
				b.Fatal(err)
			}
			r := rand.New(rand.NewSource(9))
			data := make([][]byte, sh.k)
			for i := range data {
				data[i] = make([]byte, size)
				r.Read(data[i])
			}
			parity := make([][]byte, sh.m)
			for i := range parity {
				parity[i] = make([]byte, size)
			}
			for _, im := range impls {
				b.Run(fmt.Sprintf("rs=%d+%d/bs=%dKiB/%s", sh.k, sh.m, size>>10, im.name), func(b *testing.B) {
					b.SetBytes(int64(sh.k * size))
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if err := im.enc(c, data, parity); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// --- streaming pipeline benchmarks (internal/stream) ---

// streamBenchPayload is the per-iteration input for the streaming
// benchmarks; MB/s throughput is reported via b.SetBytes.
const streamBenchPayload = 16 << 20

// BenchmarkStreamEncode sweeps worker count and stripe size over the
// concurrent pipeline. Compare against
// BenchmarkStreamEncodeScalarBaseline (the single-threaded
// whole-buffer EncodeAppend path) to measure the pipeline's speedup
// rather than assume it.
func BenchmarkStreamEncode(b *testing.B) {
	codec, err := NewCodec(8, 4)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, streamBenchPayload)
	rand.New(rand.NewSource(1)).Read(payload)

	workerSweep := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 2 && p != 4 {
		workerSweep = append(workerSweep, p)
	}
	for _, stripe := range []int{64 << 10, 1 << 20} {
		for _, workers := range workerSweep {
			b.Run(fmt.Sprintf("stripe=%dKiB/workers=%d", stripe>>10, workers), func(b *testing.B) {
				opts := StreamOptions{Codec: codec, StripeSize: stripe, Workers: workers}
				enc, err := NewStreamEncoder(opts)
				if err != nil {
					b.Fatal(err)
				}
				writers := make([]io.Writer, enc.Shards())
				for i := range writers {
					writers[i] = io.Discard
				}
				b.SetBytes(streamBenchPayload)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := enc.Encode(context.Background(), bytes.NewReader(payload), writers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkStreamEncodeScalarBaseline is the pre-pipeline path: one
// goroutine, whole-buffer Split + EncodeAppend per stripe, fresh
// parity allocations — what cmd/dialga-encode did before the
// streaming rewrite, restated per-stripe for a like-for-like byte
// count.
func BenchmarkStreamEncodeScalarBaseline(b *testing.B) {
	codec, err := NewCodec(8, 4)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, streamBenchPayload)
	rand.New(rand.NewSource(1)).Read(payload)
	const stripe = 1 << 20
	b.SetBytes(streamBenchPayload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for off := 0; off < len(payload); off += stripe {
			end := off + stripe
			if end > len(payload) {
				end = len(payload)
			}
			data, err := Split(payload[off:end], 8)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := codec.EncodeAppend(data); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkStreamDecode measures degraded-mode streaming decode with
// two erased shards, forcing reconstruction of every stripe.
func BenchmarkStreamDecode(b *testing.B) {
	codec, err := NewCodec(8, 4)
	if err != nil {
		b.Fatal(err)
	}
	opts := StreamOptions{Codec: codec, StripeSize: 1 << 20}
	payload := make([]byte, streamBenchPayload)
	rand.New(rand.NewSource(2)).Read(payload)
	bufs := make([]bytes.Buffer, 12)
	writers := make([]io.Writer, 12)
	for i := range bufs {
		writers[i] = &bufs[i]
	}
	if _, err := StreamEncode(context.Background(), opts, bytes.NewReader(payload), writers); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(streamBenchPayload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		readers := make([]io.Reader, 12)
		for j := range bufs {
			readers[j] = bytes.NewReader(bufs[j].Bytes())
		}
		readers[0], readers[5] = nil, nil
		if _, err := StreamDecode(context.Background(), opts, readers, io.Discard, int64(len(payload))); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablations (DESIGN.md §5) ---

func ablationRun(b *testing.B, threads int, mutate func(*mem.Config), opts dialga.Options) float64 {
	b.Helper()
	cfg := mem.DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := engine.New(cfg, mem.PM)
	if err != nil {
		b.Fatal(err)
	}
	for t := 0; t < threads; t++ {
		l, err := workload.New(workload.Config{
			K: 24, M: 4, BlockSize: 1024,
			TotalDataBytes: 4 << 20, Seed: 42,
		}, t)
		if err != nil {
			b.Fatal(err)
		}
		e.AddThread(dialga.New(l, e.Config(), opts))
	}
	res, err := e.Run()
	if err != nil {
		b.Fatal(err)
	}
	return res.ThroughputGBps
}

// BenchmarkAblationDistanceSearch compares hill climbing against the
// pinned initial distance d=k.
func BenchmarkAblationDistanceSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := ablationRun(b, 1, nil, dialga.Options{})
		without := ablationRun(b, 1, nil, dialga.Options{DisableHillClimbing: true})
		b.ReportMetric(with, "climbed-GB/s")
		b.ReportMetric(without, "pinned-GB/s")
	}
}

// BenchmarkAblationStreamCapacity compares the Cascade Lake (32) and
// Ice Lake (64) stream-table capacities on a wide stripe: with 64
// slots, k=48 no longer collapses the hardware prefetcher.
func BenchmarkAblationStreamCapacity(b *testing.B) {
	run := func(slots int) float64 {
		cfg := mem.DefaultConfig()
		cfg.StreamTableSize = slots
		e, err := engine.New(cfg, mem.PM)
		if err != nil {
			b.Fatal(err)
		}
		l, err := workload.New(workload.Config{
			K: 48, M: 4, BlockSize: 1024,
			TotalDataBytes: 4 << 20, Seed: 42,
		}, 0)
		if err != nil {
			b.Fatal(err)
		}
		e.AddThread(isal.NewProgram(l, e.Config(), isal.KernelParams{}))
		res, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		return res.ThroughputGBps
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(32), "CLX32-GB/s")
		b.ReportMetric(run(64), "ICX64-GB/s")
	}
}

// BenchmarkAblationThreadThreshold compares the paper's fixed threshold
// (12) against never disabling the hardware prefetcher, at 16 threads.
func BenchmarkAblationThreadThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := ablationRun(b, 16, nil, dialga.Options{})
		without := ablationRun(b, 16, nil, dialga.Options{DisableHWManagement: true})
		b.ReportMetric(with, "threshold12-GB/s")
		b.ReportMetric(without, "noMgmt-GB/s")
	}
}

// BenchmarkAblationShuffleCost quantifies the shuffle mapping's side
// effect and its repair: de-training the prefetcher by cacheline
// shuffling stretches each XPLine's reuse window (hurting the PM read
// buffer), and the XPLine loop expansion restores the locality. Run at
// 16 threads where the read buffer is the binding resource.
func BenchmarkAblationShuffleCost(b *testing.B) {
	run := func(params isal.KernelParams, hwp bool) float64 {
		cfg := mem.DefaultConfig()
		cfg.HWPrefetchEnabled = hwp
		e, err := engine.New(cfg, mem.PM)
		if err != nil {
			b.Fatal(err)
		}
		for t := 0; t < 16; t++ {
			l, err := workload.New(workload.Config{
				K: 24, M: 4, BlockSize: 1024,
				TotalDataBytes: 4 << 20, Seed: 42,
			}, t)
			if err != nil {
				b.Fatal(err)
			}
			e.AddThread(isal.NewProgram(l, e.Config(), params))
		}
		res, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		return res.ThroughputGBps
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(isal.KernelParams{}, false), "machineOff-GB/s")
		b.ReportMetric(run(isal.KernelParams{Shuffle: true}, true), "shuffle-GB/s")
		b.ReportMetric(run(isal.KernelParams{Shuffle: true, XPLineLoop: true}, true), "shuffle+xp-GB/s")
	}
}

// BenchmarkGenerality runs the §6 experiment: DIALGA on the Optane
// profile vs a CMM-H-style flash-backed profile.
func BenchmarkGenerality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := &harness.Runner{Quick: true}
		f, err := r.Gen01()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastOf(f, "DIALGA"), "CMMH-t8-GB/s")
	}
}

// BenchmarkAblationPrefetchOverhead quantifies the branchless operator:
// the same pipelined prefetching with a naive branching interface
// (extra cycles per prefetch, §4.2.2).
func BenchmarkAblationPrefetchOverhead(b *testing.B) {
	run := func(extra float64) float64 {
		cfg := mem.DefaultConfig()
		e, err := engine.New(cfg, mem.PM)
		if err != nil {
			b.Fatal(err)
		}
		l, err := workload.New(workload.Config{
			K: 24, M: 4, BlockSize: 1024,
			TotalDataBytes: 4 << 20, Seed: 42,
		}, 0)
		if err != nil {
			b.Fatal(err)
		}
		e.AddThread(isal.NewProgram(l, e.Config(), isal.KernelParams{
			SWPrefetch: true, PrefetchDistance: 96, PrefetchOverheadCycles: extra,
		}))
		res, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		return res.ThroughputGBps
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(0), "branchless-GB/s")
		b.ReportMetric(run(6), "branching-GB/s")
	}
}
