package main

import "encoding/json"

// metricDef names one metric. The lists below are the benchmark's
// vocabulary: BENCHMARK.json is generated from them (-manifest), and
// later issues cite these names verbatim.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Moves records, for a per-layer metric, which end-to-end metric it
	// should move on which workload — written before anything was
	// measured. The README holds the full interaction table.
	Moves string
}

// endToEnd are the metrics a user of the system sees; every workload
// reports every one. The bounds are the calibrated ones (README, "Noise
// calibration"). Four user-visible numbers are not here but in the
// ungated per-layer list under loadgen.: error_rate, because the
// contract wants metrics that are never 0 (failed and attempted ride in
// every result line instead), and the three latencies, because on the
// sandbox small_mixed's could not be held inside any bound the contract
// allows, and a bound holds for every workload or for none.
var endToEnd = []metricDef{
	{Name: "throughput_mib_s", Unit: "MiB/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_s_per_gib", Unit: "s/GiB", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", Bound: 0.20},
	{Name: "storage_overhead", Unit: "ratio", Better: "lower", Bound: 0.001},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

const (
	movesEncode  = "cpu_s_per_gib, then throughput_mib_s, on put_8m; no move on get_8m, small_mixed"
	movesRecon   = "throughput_mib_s, cpu_s_per_gib, loadgen.latency_p50_ms on degraded_get_8m, repair_8m; no move on get_8m, put_8m"
	movesRead    = "throughput_mib_s, cpu_s_per_gib on get_8m, degraded_get_8m; no move on put_8m"
	movesWrite   = "throughput_mib_s, loadgen.latency_p50_ms, peak_rss_mib on put_8m; loadgen.latency_p95_ms on small_mixed; throughput_mib_s on repair_8m; no move on get_8m"
	movesPerReq  = "cpu_s_per_gib, loadgen.ttfb_p50_ms, loadgen.latency_p50_ms on small_mixed; loadgen.ttfb_p50_ms only on get_8m; no move on put_8m throughput"
	movesSpec    = "throughput_mib_s, loadgen.latency_p50_ms, loadgen.latency_p95_ms on straggler_get_8m; on get_8m only cluster.shard_bytes_per_user_byte and cpu_s_per_gib"
	movesRepair  = "throughput_mib_s, cpu_s_per_gib, loadgen.latency_p50_ms on repair_8m; no move on foreground workloads"
	movesHealth  = "should stay 0 on every workload; a rise explains a loadgen.latency_p95_ms or error move"
	movesLoadgen = "the generator's own health; explains, never causes, an end-to-end move"
	movesLatency = "a user-visible latency, ungated because small_mixed's is too noisy on the sandbox; on a closed loop p50 moves as 1/throughput_mib_s"
)

// ladderLayer are the isolated rungs: one goroutine, one 8 MiB object.
var ladderLayer = []metricDef{
	{Name: "gf.mul_add4_ns_per_byte", Unit: "ns/B", Better: "lower", Moves: movesEncode},
	{Name: "gf.crc32c_ns_per_byte", Unit: "ns/B", Better: "lower", Moves: movesRead},
	{Name: "rs.encode_ns_per_byte", Unit: "ns/B", Better: "lower", Moves: movesEncode},
	{Name: "rs.encode_sum_ns_per_byte", Unit: "ns/B", Better: "lower", Moves: movesEncode},
	{Name: "rs.reconstruct_data_ns_per_byte", Unit: "ns/B", Better: "lower", Moves: movesRecon},
	{Name: "rs.reconstruct_sum_ns_per_byte", Unit: "ns/B", Better: "lower", Moves: movesRepair},
	{Name: "stream.encode_ns_per_byte", Unit: "ns/B", Better: "lower", Moves: movesEncode},
	{Name: "stream.decode_ns_per_byte", Unit: "ns/B", Better: "lower", Moves: movesRead},
	{Name: "stream.decode_degraded_ns_per_byte", Unit: "ns/B", Better: "lower", Moves: movesRecon},
	{Name: "shardfile.encode_files_ns_per_byte", Unit: "ns/B", Better: "lower", Moves: movesEncode},
	{Name: "shardfile.scrub_ns_per_byte", Unit: "ns/B", Better: "lower", Moves: movesRepair},
	{Name: "node.store_put_ns_per_byte", Unit: "ns/B", Better: "lower", Moves: movesWrite},
	{Name: "node.store_get_ns_per_byte", Unit: "ns/B", Better: "lower", Moves: movesRead},
	{Name: "node.http_put_ns_per_byte", Unit: "ns/B", Better: "lower", Moves: movesWrite},
	{Name: "node.http_get_ns_per_byte", Unit: "ns/B", Better: "lower", Moves: movesRead},
	{Name: "node.http_stat_us", Unit: "us", Better: "lower", Moves: movesPerReq},
	{Name: "cluster.place_ns_per_op", Unit: "ns", Better: "lower", Moves: movesPerReq},
	{Name: "cluster.put_object_ns_per_byte", Unit: "ns/B", Better: "lower", Moves: movesWrite},
	{Name: "cluster.get_object_ns_per_byte", Unit: "ns/B", Better: "lower", Moves: movesRead},
	{Name: "cluster.http_put_ns_per_byte", Unit: "ns/B", Better: "lower", Moves: movesWrite},
	{Name: "cluster.http_get_ns_per_byte", Unit: "ns/B", Better: "lower", Moves: movesRead},
}

// windowLayer are measured inside a workload's traced window.
var windowLayer = []metricDef{
	// Spans.
	{Name: "cluster.gateway_self_ms_p50", Unit: "ms", Better: "lower", Moves: movesWrite},
	{Name: "cluster.fanout_ms_p50", Unit: "ms", Better: "lower", Moves: movesRead},
	{Name: "cluster.open_k_ms_p50", Unit: "ms", Better: "lower", Moves: movesPerReq},
	{Name: "cluster.shard_requests_per_op", Unit: "count", Better: "lower", Moves: movesPerReq},
	{Name: "cluster.shard_bytes_per_user_byte", Unit: "ratio", Better: "lower", Moves: movesRepair},
	{Name: "cluster.conn_dials_per_op", Unit: "count", Better: "lower", Moves: movesPerReq},
	{Name: "cluster.shard_retries_per_op", Unit: "count", Better: "lower", Moves: movesHealth},
	{Name: "cluster.scan_ms_per_object", Unit: "ms", Better: "lower", Moves: movesRepair},
	{Name: "cluster.small_get_ms_p50", Unit: "ms", Better: "lower", Moves: movesPerReq},
	{Name: "cluster.small_put_ms_p50", Unit: "ms", Better: "lower", Moves: movesWrite},
	{Name: "cluster.range_get_ms_p50", Unit: "ms", Better: "lower", Moves: movesPerReq},
	{Name: "node.serve_put_ms_p50", Unit: "ms", Better: "lower", Moves: movesWrite},
	{Name: "node.serve_get_ms_p50", Unit: "ms", Better: "lower", Moves: movesRead},
	{Name: "node.serve_stat_ms_p50", Unit: "ms", Better: "lower", Moves: movesPerReq},
	{Name: "node.wire_ms_p50", Unit: "ms", Better: "lower", Moves: movesRead},
	{Name: "node.slowest_shard_ratio_p50", Unit: "ratio", Better: "lower", Moves: movesSpec},
	{Name: "node.requests_failed", Unit: "count", Better: "lower", Moves: movesHealth},
	// Deltas over the traced window of series the program publishes.
	{Name: "stream.reconstructed_stripes_per_op", Unit: "count", Better: "lower", Moves: movesRecon},
	{Name: "stream.hedged_reads_per_op", Unit: "count", Better: "higher", Moves: movesSpec},
	{Name: "stream.hedge_win_ratio", Unit: "ratio", Better: "higher", Moves: movesSpec},
	{Name: "stream.retries_per_op", Unit: "count", Better: "lower", Moves: movesHealth},
	{Name: "stream.stripe_latency_us_p50", Unit: "us", Better: "lower", Moves: movesEncode},
	{Name: "shardio.readahead_useless_ratio", Unit: "ratio", Better: "lower", Moves: movesSpec},
	{Name: "shardio.late_blocks_dropped_ratio", Unit: "ratio", Better: "lower", Moves: movesSpec},
	{Name: "shardio.breaker_trips", Unit: "count", Better: "lower", Moves: movesSpec},
	{Name: "cluster.open_failures_per_op", Unit: "count", Better: "lower", Moves: movesRecon},
	{Name: "cluster.put_degraded", Unit: "count", Better: "lower", Moves: movesHealth},
	{Name: "node.store_puts", Unit: "count", Better: "higher", Moves: movesWrite},
	{Name: "node.store_gets", Unit: "count", Better: "higher", Moves: movesRead},
	// Process and generator.
	{Name: "runtime.alloc_bytes_per_user_byte", Unit: "ratio", Better: "lower", Moves: movesWrite},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: "lower", Moves: movesWrite},
	{Name: "loadgen.latency_p50_ms", Unit: "ms", Better: "lower", Moves: movesLatency},
	{Name: "loadgen.latency_p95_ms", Unit: "ms", Better: "lower", Moves: movesLatency},
	{Name: "loadgen.ttfb_p50_ms", Unit: "ms", Better: "lower", Moves: movesLatency},
	{Name: "loadgen.late_ms_p99", Unit: "ms", Better: "lower", Moves: movesLoadgen},
	{Name: "loadgen.latency_p99_ms", Unit: "ms", Better: "lower", Moves: movesLoadgen},
	{Name: "loadgen.trace_overhead_pct", Unit: "%", Better: "lower", Moves: movesLoadgen},
	{Name: "loadgen.error_rate", Unit: "ratio", Better: "lower", Moves: movesHealth},
}

// perLayer is every per-layer metric; none gates a change.
var perLayer = append(append([]metricDef(nil), ladderLayer...), windowLayer...)

// runSeconds is the window BENCHMARK.json asks the driver for, and the
// default of -seconds.
const runSeconds = 10

// manifest renders BENCHMARK.json.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	return append(b, '\n'), err
}
