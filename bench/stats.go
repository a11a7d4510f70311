package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0..1) of vs by linear
// interpolation between closest ranks; 0 for an empty sample. vs is
// not modified.
func percentile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return percentile(vs, 0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(vs, n=4) does (exclusive method), which is how
// the benchmark's contract measures spread. It needs two values.
func quartiles(vs []float64) (q1, q3 float64) {
	n := len(vs)
	if n < 2 {
		return median(vs), median(vs)
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		// Taken after the clamp, as Python does: at the ends delta
		// leaves [0, 4] and the quartile is extrapolated.
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(vs []float64) float64 {
	m := median(vs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / math.Abs(m)
}

// mad is the median absolute deviation from the median.
func mad(vs []float64) float64 {
	m := median(vs)
	dev := make([]float64, len(vs))
	for i, v := range vs {
		dev[i] = math.Abs(v - m)
	}
	return median(dev)
}

// opRec is one operation as the load generator saw it. Times are
// offsets from the run's epoch.
type opRec struct {
	class opClass
	// due is when the op was scheduled (open loop); equal to sent in a
	// closed loop. Latency counts from due, time to first byte from
	// sent.
	due, sent time.Duration
	first     time.Duration // first body byte of a read; 0 otherwise
	end       time.Duration
	free      time.Duration // open loop: when the worker became free to send
	bytes     int64         // user payload bytes moved
	failed    bool
}

// sliceRates splits [w0, w1) into n equal slices and returns each
// slice's payload bytes and its rate in bytes per second. An op's bytes
// are spread evenly over its [sent, end) interval, so an op that
// straddles a boundary counts in proportion on each side and slice
// boundaries add no quantisation noise. With perBusy, a slice's
// denominator is the op time inside it instead of its wall time
// (single-worker workloads whose ops are separated by untimed work).
func sliceRates(ops []opRec, w0, w1 time.Duration, n int, perBusy bool) (rates, bytes []float64) {
	width := (w1 - w0) / time.Duration(n)
	bytes = make([]float64, n)
	busy := make([]float64, n)
	for _, op := range ops {
		if op.failed || op.bytes == 0 || op.end <= op.sent {
			continue
		}
		perNs := float64(op.bytes) / float64(op.end-op.sent)
		for i := 0; i < n; i++ {
			lo, hi := w0+time.Duration(i)*width, w0+time.Duration(i+1)*width
			if op.sent > lo {
				lo = op.sent
			}
			if op.end < hi {
				hi = op.end
			}
			if hi > lo {
				bytes[i] += perNs * float64(hi-lo)
				busy[i] += float64(hi - lo)
			}
		}
	}
	rates = make([]float64, n)
	for i := range rates {
		den := float64(width)
		if perBusy {
			den = busy[i]
		}
		if den > 0 {
			rates[i] = bytes[i] / den * 1e9
		}
	}
	return rates, bytes
}

// medianOfSlices is the median over the slices of each slice's
// q-quantile; slices without a sample are left out. A burst from a
// noisy neighbour spoils the slices it covers, not the run.
func medianOfSlices(samples [][]float64, q float64) float64 {
	var per []float64
	for _, s := range samples {
		if len(s) > 0 {
			per = append(per, percentile(s, q))
		}
	}
	return median(per)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
