package main

import (
	"fmt"
	"io"
	"path/filepath"

	"dialga/internal/obs"
	"dialga/internal/shardfile"
)

// scrubMetrics is the scrub's registry series; all fields no-op when
// built from a nil registry.
type scrubMetrics struct {
	ok            *obs.Counter
	corrupt       *obs.Counter
	missing       *obs.Counter
	blocksCorrupt *obs.Counter
	stripes       *obs.Counter
}

func newScrubMetrics(reg *obs.Registry) scrubMetrics {
	shard := func(result string) *obs.Counter {
		return reg.Counter("scrub_shards_scrubbed_total",
			"Shard files scrubbed, by outcome.",
			obs.Label{Key: "result", Value: result})
	}
	return scrubMetrics{
		ok:      shard("ok"),
		corrupt: shard("corrupt"),
		missing: shard("missing"),
		blocksCorrupt: reg.Counter("scrub_blocks_corrupt_total",
			"Stripe blocks whose checksum trailer failed verification."),
		stripes: reg.Counter("scrub_stripes_scrubbed_total",
			"Stripes read and verified across all scrubbed shards."),
	}
}

// verifyDir scrubs every shard file in dir through the shared
// shardfile.ScrubDir walk (the per-shard checks the cluster repair
// queue runs, plus agreement with the set's encoding) and renders one
// line per shard slot plus a summary. It returns
// whether any corruption, truncation, or header damage was found — a
// shard in the retired trailer-less v2 framing is a bad header, and so
// is one that belongs to another slot, another encoding or an older
// put. With
// metrics the report ends in the scrub's scrub_* series.
func verifyDir(dir string, w io.Writer, metrics bool) (damaged bool, err error) {
	var reg *obs.Registry
	if metrics {
		reg = obs.NewRegistry()
	}
	sm := newScrubMetrics(reg)
	rep, err := shardfile.ScrubDir(dir)
	if err != nil {
		return true, err
	}
	for _, s := range rep.Shards {
		name := filepath.Base(shardfile.Path(dir, s.Index))
		sm.stripes.Add(s.Result.Stripes)
		sm.blocksCorrupt.Add(s.Result.Corrupt)
		switch s.Status {
		case shardfile.ShardMissing:
			fmt.Fprintf(w, "%s: missing\n", name)
			sm.missing.Inc()
		case shardfile.ShardBadHeader:
			fmt.Fprintf(w, "%s: BAD HEADER: %s\n", name, s.Detail)
			sm.corrupt.Inc()
		case shardfile.ShardTruncated:
			fmt.Fprintf(w, "%s: TRUNCATED: %s\n", name, s.Detail)
			sm.corrupt.Inc()
		case shardfile.ShardReadError:
			fmt.Fprintf(w, "%s: READ ERROR: %s\n", name, s.Detail)
			sm.corrupt.Inc()
		case shardfile.ShardCorrupt:
			fmt.Fprintf(w, "%s: CORRUPT: %s\n", name, s.Detail)
			sm.corrupt.Inc()
		default:
			fmt.Fprintf(w, "%s: ok (%d stripes, %s)\n", name, s.Result.Stripes, s.Header.Algo)
			sm.ok.Inc()
		}
	}
	ok, bad, missing := rep.Counts()
	fmt.Fprintf(w, "scrub: %d ok, %d corrupt/damaged, %d missing (geometry k=%d m=%d)\n",
		ok, bad, missing, rep.Set.K, rep.Set.M)
	return bad > 0, reg.Expose(w)
}
