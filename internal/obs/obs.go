// Package obs is the repository's dependency-free observability
// substrate: an atomic metrics registry (counters, gauges and
// log-linear histograms with explicit bucket upper bounds) and its
// Prometheus-text-format exposition.
//
// The paper's coordinator is driven entirely by measurement — PMU
// sampling feeding relative-latency and useless-prefetch thresholds —
// and the production layers (internal/stream, internal/shardio) follow
// the same discipline at stream scale: every scheduling decision
// (hedge, breaker trip, heal) is visible as a metric so it can be
// tuned from the outside. Metrics registered here back
// stream.Stats snapshots and are served by `dialga-node` at /metrics.
//
// Design constraints:
//
//   - No dependencies beyond the standard library.
//   - Hot-path updates are single atomic operations; registration
//     (name lookup, label rendering) happens once at construction.
//   - Every method is safe on a nil receiver: a nil *Registry hands
//     out nil metrics whose updates no-op, so instrumented code never
//     branches on "is observability on".
//   - Exposition is deterministic: families sorted by name, series by
//     label set, so the output is golden-file testable.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Label is one constant key/value pair attached to a metric series at
// registration time (e.g. shard="3", pipeline="decode").
type Label struct {
	Key   string
	Value string
}

// metricKind discriminates the three series types a family can hold.
type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	case histogramKind:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// family groups every series sharing one metric name: same kind, same
// help string, and (for histograms) same bucket bounds.
type family struct {
	name   string
	help   string
	kind   metricKind
	bounds []float64      // histogram families only
	series map[string]any // rendered label set -> *Counter/*Gauge/*Histogram
}

// Registry is a set of metric families. All methods are safe for
// concurrent use, and safe on a nil *Registry (metrics come back nil
// and their updates no-op).
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// renderLabels canonicalizes a label set: sorted by key, values
// escaped, joined as `k="v",k2="v2"`. The empty set renders as "".
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabelValue applies the Prometheus text-format escapes to a
// label value: backslash, double quote, and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// lookup returns (creating if needed) the family and the series slot
// for one registration. It panics when the same name is re-registered
// with a different kind — that is a programming error the process
// should not limp past.
func (r *Registry) lookup(name, help string, kind metricKind, bounds []float64, labels []Label) any {
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, bounds: bounds, series: make(map[string]any)}
		r.fams[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %v, was %v", name, kind, f.kind))
	}
	if s, ok := f.series[key]; ok {
		return s
	}
	var s any
	switch kind {
	case counterKind:
		s = &Counter{}
	case gaugeKind:
		s = &Gauge{}
	case histogramKind:
		s = newHistogram(f.bounds)
	}
	f.series[key] = s
	return s
}

// Counter returns the counter series for (name, labels), registering
// it on first use. The same (name, labels) always returns the same
// *Counter, so independent components sharing a registry accumulate
// into one series. On a nil registry it returns nil (updates no-op).
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, counterKind, nil, labels).(*Counter)
}

// Gauge returns the gauge series for (name, labels), registering it on
// first use. On a nil registry it returns nil (updates no-op).
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, gaugeKind, nil, labels).(*Gauge)
}

// Histogram returns the histogram series for (name, labels),
// registering it on first use. bounds are the inclusive upper bounds
// of the finite buckets in ascending order; an overflow (+Inf) bucket
// is always appended. The bounds of the first registration win for the
// whole family. On a nil registry it returns nil (updates no-op).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending at %d: %v", name, i, bounds))
		}
	}
	return r.lookup(name, help, histogramKind, append([]float64(nil), bounds...), labels).(*Histogram)
}
