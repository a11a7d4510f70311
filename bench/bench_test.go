package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

func TestMixedScheduleIsSeeded(t *testing.T) {
	a := mixedSchedule(7, 3*time.Second)
	b := mixedSchedule(7, 3*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two constructions from one seed differ")
	}
	if reflect.DeepEqual(a, mixedSchedule(8, 3*time.Second)) {
		t.Fatal("another seed gave the same schedule")
	}
	// About rate*time arrivals, in due order, in about the stated mix.
	if n := float64(len(a)); n < 0.75*3*mixedRate || n > 1.25*3*mixedRate {
		t.Errorf("%v ops in 3 s at %v/s", n, mixedRate)
	}
	count := map[opClass]int{}
	for i, op := range a {
		if i > 0 && op.due < a[i-1].due {
			t.Fatalf("op %d due before op %d", i, i-1)
		}
		count[op.class]++
		if op.class == opRange && (op.off < 0 || op.off+smallSize > bigSize) {
			t.Fatalf("range offset %d outside the object", op.off)
		}
	}
	if g := float64(count[opGet]) / float64(len(a)); g < 0.4 || g > 0.6 {
		t.Errorf("GET share %.2f, want about %.2f", g, mixedGetShare)
	}
	// In-flight ops never share a key: any two ops on one key are at
	// least a whole key set apart.
	last := map[[2]int]int{}
	for i, op := range a {
		id := [2]int{int(op.class), op.key}
		if j, seen := last[id]; seen && i-j < mixedBigKeys {
			t.Fatalf("ops %d and %d both touch key %v", j, i, id)
		}
		last[id] = i
	}
}

func TestPayloadWindows(t *testing.T) {
	p, q := newPayloads(3), newPayloads(3)
	if !bytes.Equal(p.pool, q.pool) {
		t.Fatal("same seed, different pool")
	}
	if bytes.Equal(p.pool, newPayloads(4).pool) {
		t.Fatal("different seed, same pool")
	}
	if bytes.Equal(p.window(bigSlot(0), smallSize), p.window(bigSlot(1), smallSize)) {
		t.Error("neighbouring slots hold the same payload")
	}
	if len(p.window(slots-1, bigSize)) != bigSize {
		t.Error("the last slot's window is short")
	}
	// Preloaded slots stay clear of the slots overwrites use.
	if top := readSlot(mixedReadKeys - 1); top >= versionBase || bigSlot(bigObjects-1) >= readSlot(0) {
		t.Errorf("preloaded slots overlap: big up to %d, read %d..%d, versions from %d",
			bigSlot(bigObjects-1), readSlot(0), top, versionBase)
	}
	if s := versionSlot(1 << 20); s < versionBase || s >= slots {
		t.Errorf("versionSlot out of range: %d", s)
	}
}

// BENCHMARK.json is generated from the metric and workload lists; this
// keeps the committed file, the code and the contract's limits in step.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run -C bench . -manifest > BENCHMARK.json`")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(d metricDef) {
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is malformed", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		check(d)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer {
		check(d)
		if d.Moves == "" {
			t.Errorf("%s: no end-to-end metric it should move is recorded", d.Name)
		}
	}
	if d, ok := findMetric(endToEnd, "setup_s"); !ok || d.Unit != "s" || d.Better != "lower" {
		t.Error("the contract requires setup_s, in s, lower is better")
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Error("list sizes outside the contract's limits")
	}
	for _, w := range workloads {
		if !name.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why", w.name)
		}
	}
}

// Every rung the ladder measures is a declared metric and the reverse.
func TestLadderChainsAreDeclared(t *testing.T) {
	for _, chain := range ladderChains {
		if len(chain) != 7 {
			t.Errorf("a ladder chain has %d rungs, the north star names 7", len(chain))
		}
		for _, n := range chain {
			if _, ok := findMetric(ladderLayer, n); !ok {
				t.Errorf("ladder chain names %q, which is not a ladder metric", n)
			}
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Better: "lower", Bound: 0.10}
	higher := metricDef{Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d              metricDef
		a, b, na, nb   float64
		want           string
		wantWorsenedBy float64
	}{
		{lower, 100, 105, 0, 0, verdictWithin, 0.05},
		{lower, 100, 115, 0, 0, verdictWorse, 0.15},
		{lower, 100, 80, 0, 0, verdictBetter, -0.20},
		{higher, 100, 80, 0, 0, verdictWorse, 0.20},
		{higher, 100, 120, 0.02, 0.03, verdictBetter, -0.20},
		{higher, 100, 80, 0.12, 0, verdictUnresolved, 0.20},
		{lower, 100, 101, 0, 0.11, verdictUnresolved, 0.01},
	} {
		by, got := judge(c.d, c.a, c.b, c.na, c.nb)
		if got != c.want || !near(by, c.wantWorsenedBy) {
			t.Errorf("judge(%s, %v -> %v, noise %v/%v) = %v %s, want %v %s",
				c.d.Better, c.a, c.b, c.na, c.nb, by, got, c.wantWorsenedBy, c.want)
		}
	}
}

func TestCompareCountsRegressions(t *testing.T) {
	mk := func(tput float64, failed int) *report {
		r := &report{Schema: reportSchema}
		r.Workloads = []workloadReport{{
			Name: "get_8m", Correct: true, Attempted: 100, Failed: failed,
			EndToEnd: map[string]metricReport{"throughput_mib_s": {Value: tput, Unit: "MiB/s"}},
		}}
		return r
	}
	var out bytes.Buffer
	if n := compare(&out, mk(1000, 0), mk(990, 0)); n != 0 {
		t.Errorf("1%% slower counted as %d regressions:\n%s", n, out.String())
	}
	if n := compare(&out, mk(1000, 0), mk(600, 0)); n != 1 {
		t.Errorf("40%% slower counted as %d regressions", n)
	}
	if n := compare(&out, mk(1000, 0), mk(1000, 1)); n != 1 {
		t.Errorf("a new failed op counted as %d regressions", n)
	}
	if !strings.Contains(out.String(), "of 1000 MiB/s") {
		t.Errorf("ratio printed without its base:\n%s", out.String())
	}
}

// A smoke run of two workloads: every declared metric is produced, the
// result line has the contract's shape, and the workloads' own checks
// (byte-exact reads, a clean scan after repair) pass.
func TestSmokeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("boots clusters; skipped with -short")
	}
	dir := t.TempDir()
	for _, c := range []struct {
		workload string
		trace    int
	}{{"get_8m", 0}, {"repair_8m", 1}} {
		o := options{workload: c.workload, seed: 1, seconds: 1, trace: c.trace, smoke: true, out: dir, dir: dir}
		wl, _ := findWorkload(c.workload)
		res, err := execute(o.config(), wl)
		if err != nil {
			t.Fatalf("%s: %v", c.workload, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d errors=%v",
				c.workload, res.Correct, res.Attempted, res.Failed, res.Errors)
		}
		defs := endToEnd
		if c.trace == 1 {
			defs = perLayer
		}
		for _, d := range defs {
			if _, ok := res.Metrics[d.Name]; !ok {
				t.Errorf("%s: metric %s was not produced", c.workload, d.Name)
			}
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("%s: %d metrics produced, %d declared", c.workload, len(res.Metrics), len(defs))
		}
		if c.trace == 0 {
			for _, d := range endToEnd {
				if res.Metrics[d.Name] <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; they must never be 0", c.workload, d.Name, res.Metrics[d.Name])
				}
			}
			continue
		}
		if res.Metrics["cluster.shard_bytes_per_user_byte"] < 5 {
			t.Errorf("repair fetched %v bytes per byte rebuilt; it reads k+1 shards to write one",
				res.Metrics["cluster.shard_bytes_per_user_byte"])
		}
		b, err := os.ReadFile(tracePath(dir, c.workload))
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(b, &spans); err != nil || len(spans) == 0 {
			t.Errorf("trace file holds %d spans, err %v", len(spans), err)
		}
	}
}
