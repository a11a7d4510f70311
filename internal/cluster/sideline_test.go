package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"dialga/internal/fault"
	"dialga/internal/node"
	"dialga/internal/obs"
	"dialga/internal/vclock"
)

const (
	fastRead = 100 * time.Microsecond
	slowRead = 5 * time.Millisecond
)

// stream.Breaker's numbers, restated: the gate's own rules are pinned
// by its table in internal/stream; these tests pin that the sideliner
// feeds it, acts on it and reports it.
const (
	lateRun       = 5                      // late samples in a row that sideline a node
	firstCooldown = 250 * time.Millisecond // doubling per failed probe
	maxCooldown   = 15 * time.Second
)

// errNodeDown is a failed open as the shard client reports one.
var errNodeDown = &node.NetError{Err: errors.New("connection refused")}

// fakeSideliner is a sideliner over six nodes on a fake clock.
func fakeSideliner(t *testing.T) (*sideliner, *vclock.Fake, Placement) {
	t.Helper()
	p, err := specMap(t, sixNodeSpec).Place("sidelined", 6)
	if err != nil {
		t.Fatal(err)
	}
	s := newSideliner(FirstK{}, obs.NewRegistry())
	clock := vclock.NewFake()
	s.clock = clock
	return s, clock, p
}

// readBeside has s judge one read in which node id's body took d per
// block, beside three bodies from nodes outside any placement that took
// fastRead.
func readBeside(s *sideliner, id NodeID, d time.Duration) {
	s.judge([]sample{{id, d}, {"peer-a", fastRead}, {"peer-b", fastRead}, {"peer-c", fastRead}})
}

func (s *sideliner) isSidelined(id NodeID) bool {
	for _, n := range s.sidelinedNodes() {
		if n.ID == id {
			return true
		}
	}
	return false
}

// lateReads is cluster_node_late_reads_total for node id.
func (s *sideliner) lateReads(id NodeID) uint64 {
	return s.reg.Counter("cluster_node_late_reads_total", "", obs.Label{Key: "node", Value: string(id)}).Value()
}

// TestSidelineNeedsARun: threshold-1 late samples in a row sideline
// nobody, the next one does, and one on-time sample in between starts
// the count over.
func TestSidelineNeedsARun(t *testing.T) {
	s, _, p := fakeSideliner(t)
	const n = lateRun
	victim := p[1].ID

	for i := 0; i < n-1; i++ {
		readBeside(s, victim, slowRead)
	}
	if got := s.sidelinedNodes(); len(got) != 0 {
		t.Fatalf("%d late samples sidelined %v", n-1, got)
	}
	readBeside(s, victim, fastRead) // resets the run
	for i := 0; i < n-1; i++ {
		readBeside(s, victim, slowRead)
	}
	if got := s.sidelinedNodes(); len(got) != 0 {
		t.Fatalf("a run broken by an on-time sample sidelined %v", got)
	}
	readBeside(s, victim, slowRead)
	if !s.isSidelined(victim) {
		t.Fatalf("%d late samples in a row did not sideline %s", n, victim)
	}

	// Its shard moves to the back of the order, the rest keep theirs.
	if order, want := s.split("sidelined", p), []int{0, 2, 3, 4, 5, 1}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	lbl := obs.Label{Key: "node", Value: string(victim)}
	if s.reg.Gauge("cluster_node_sidelined", "", lbl).Value() != 1 ||
		s.reg.Counter("cluster_sideline_trips_total", "", lbl).Value() != 1 ||
		s.lateReads(victim) != 2*n-1 || s.lateReads("peer-a") != 0 {
		t.Fatal("sidelining did not show in the node's series")
	}
}

// TestSidelineOrdersSlowBeforeFailing: behind the nodes in good
// standing come the sidelined nodes that answer, and only then those
// whose last open failed — the ones a read reaches for last. What a
// node's last open did is what counts, also inside a cooldown.
func TestSidelineOrdersSlowBeforeFailing(t *testing.T) {
	s, _, p := fakeSideliner(t)
	for i := 0; i < lateRun; i++ {
		s.failed(p[0].ID, errNodeDown)
		readBeside(s, p[1].ID, slowRead)
		s.failed(p[3].ID, errNodeDown)
	}
	if order, want := s.split("sidelined", p), []int{2, 4, 5, 1, 0, 3}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	readBeside(s, p[0].ID, slowRead) // reached for as a k-th shard, and it answered
	s.failed(p[1].ID, errNodeDown)
	if order, want := s.split("sidelined", p), []int{2, 4, 5, 0, 1, 3}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}

// TestSidelineIsRelative: a fleet that is slow together, or that slows
// down together, sidelines nobody — there is no absolute threshold.
func TestSidelineIsRelative(t *testing.T) {
	s, _, p := fakeSideliner(t)
	for round := 0; round < 20; round++ {
		d := fastRead
		if round >= 5 {
			d = 50 * slowRead
		}
		read := make([]sample, len(p))
		for i, n := range p {
			read[i] = sample{n.ID, d}
		}
		s.judge(read)
	}
	if got := s.sidelinedNodes(); len(got) != 0 {
		t.Fatalf("uniformly slow fleet sidelined %v", got)
	}
	for _, n := range p {
		if late := s.lateReads(n.ID); late != 0 {
			t.Fatalf("uniformly slow fleet: %s judged late %d times", n.ID, late)
		}
	}
}

// TestSidelineProbeBackoff: the cooldown the sideliner reports and
// orders by doubles with every failed probe up to its cap, samples
// inside a cooldown change nothing, and an on-time probe re-admits the
// node with its trips forgotten.
func TestSidelineProbeBackoff(t *testing.T) {
	s, clock, p := fakeSideliner(t)
	victim := p[2].ID
	for i := 0; i < lateRun; i++ {
		readBeside(s, victim, slowRead)
	}
	lbl := obs.Label{Key: "node", Value: string(victim)}
	probes := func(result string) uint64 {
		return s.reg.Counter("cluster_sideline_probes_total", "", lbl, obs.Label{Key: "result", Value: result}).Value()
	}

	want := firstCooldown
	for trip := 1; trip <= 8; trip++ { // 250 ms · 2^6 passes the cap
		got := s.sidelinedNodes()
		if len(got) != 1 || got[0].ID != victim || got[0].Trips != trip ||
			got[0].CooldownMS != want.Milliseconds() {
			t.Fatalf("after trip %d: %+v, want %s cooling down %v", trip, got, victim, want)
		}
		// Inside the cooldown it stays at the back whatever it reports.
		clock.Advance(want / 2)
		readBeside(s, victim, slowRead)
		readBeside(s, victim, fastRead)
		if order := s.split("sidelined", p); order[5] != 2 {
			t.Fatalf("trip %d: order %v inside the cooldown, want shard 2 last", trip, order)
		}
		clock.Advance(want - want/2)
		// Cooldown over: back in its place, and the next sample is the probe.
		if order := s.split("sidelined", p); fmt.Sprint(order) != "[0 1 2 3 4 5]" {
			t.Fatalf("trip %d: order %v after the cooldown", trip, order)
		}
		readBeside(s, victim, slowRead)
		if probes("miss") != uint64(trip) {
			t.Fatalf("trip %d: %d failed probes counted", trip, probes("miss"))
		}
		want = min(2*want, maxCooldown)
	}

	clock.Advance(want)
	readBeside(s, victim, fastRead)
	if got := s.sidelinedNodes(); len(got) != 0 || probes("ok") != 1 {
		t.Fatalf("on-time probe left %+v (ok probes %d)", got, probes("ok"))
	}
	if s.reg.Gauge("cluster_node_sidelined", "", lbl).Value() != 0 {
		t.Fatal("cluster_node_sidelined still 1 after re-admission")
	}
	// Trips were forgotten: the next sidelining starts from the base.
	for i := 0; i < lateRun; i++ {
		readBeside(s, victim, slowRead)
	}
	if got := s.sidelinedNodes(); len(got) != 1 || got[0].Trips != 1 ||
		got[0].CooldownMS != firstCooldown.Milliseconds() {
		t.Fatalf("sidelined again: %+v, want trip 1 at the base cooldown", got)
	}
}

// TestSidelineErrors: a failed open counts as a late sample only when
// it is the node's failure — transport, 429, 5xx. A 404 is about the
// object and any other error is not about how the node reads: neither
// gives the node a verdict.
func TestSidelineErrors(t *testing.T) {
	s, _, _ := fakeSideliner(t)
	notFound := fmt.Errorf("shard 3: %w", &node.StatusError{Code: http.StatusNotFound})
	badHeader := errors.New("shardfile: bad magic")
	for i := 0; i < 3*lateRun; i++ {
		s.failed("n0", notFound)
		s.failed("n1", badHeader)
	}
	if len(s.nodes) != 0 {
		t.Fatalf("404s and non-transient errors gave %d nodes a verdict", len(s.nodes))
	}
	for i, err := range []error{
		errNodeDown,
		&node.StatusError{Code: http.StatusTooManyRequests},
		&node.StatusError{Code: http.StatusInternalServerError},
		fmt.Errorf("wrapped: %w", errNodeDown),
		&fault.Err{},
	} {
		if s.isSidelined("n2") {
			t.Fatalf("sidelined after %d failures", i)
		}
		s.failed("n2", err)
	}
	if !s.isSidelined("n2") {
		t.Fatal("five failed opens in a row did not sideline the node")
	}
}

// tickingBody is n bytes, each Read of which takes per on the clock;
// once they are gone its Reads wait for hang to close.
type tickingBody struct {
	n     int
	per   time.Duration
	clock *vclock.Fake
	hang  chan struct{}
}

func (b *tickingBody) Read(p []byte) (int, error) {
	if b.n == 0 {
		if b.hang != nil {
			<-b.hang
		}
		return 0, io.EOF
	}
	b.clock.Advance(b.per)
	n := min(len(p), b.n)
	b.n -= n
	return n, nil
}

func (*tickingBody) Close() error { return nil }

// drain reads r to its end in Reads of size bytes.
func drain(r io.Reader, size int) {
	buf := make([]byte, size)
	for {
		if _, err := r.Read(buf); err != nil {
			return
		}
	}
}

// TestTimedBodySample: a body's sample is its open time plus its time
// blocked in Read, per block read. A body closed unread has no such
// time and reports nothing — unless a Read is waiting on it, which is a
// stall, and counts.
func TestTimedBodySample(t *testing.T) {
	s, clock, _ := fakeSideliner(t)
	read := &readPeers{s: s}
	read.open++ // a member that never closes keeps the samples in view
	const block, open, perBlock = 1000, 700 * time.Microsecond, 100 * time.Microsecond
	for _, blocks := range []int{1, 32, 0} {
		body := read.timed("n0", &tickingBody{n: blocks * block, per: perBlock / 2, clock: clock}, block, open)
		drain(body, block/2) // two Reads per block
		body.Close()
		body.Close() // reports once
	}
	hang := make(chan struct{})
	stalled := read.timed("n0", &tickingBody{clock: clock, hang: hang}, block, open)
	done := make(chan struct{})
	go func() {
		stalled.Read(make([]byte, block))
		close(done)
	}()
	for stalled.reading.Load() == 0 {
		time.Sleep(time.Millisecond) // polls for the read to start; decides no outcome
	}
	clock.Advance(7 * time.Millisecond)
	stalled.Close()
	close(hang)
	<-done

	var got []time.Duration
	for _, smp := range read.samples {
		got = append(got, smp.d)
	}
	want := []time.Duration{open + perBlock, (open + 32*perBlock) / 32, open + 7*time.Millisecond}
	if fmt.Sprint(got) != fmt.Sprint(want) || read.open != 1 {
		t.Fatalf("samples %v with %d members open, want %v and only the holder", got, read.open, want)
	}
}

// TestSidelineReadsWithoutPeers: a sample is judged only against the
// other samples of its own read, so a read that yields one sample gives
// no verdict however slow it is — one body alone, or one beside a body
// closed unread, which is no reference either. Two bodies read are each
// other's reference.
func TestSidelineReadsWithoutPeers(t *testing.T) {
	s, clock, _ := fakeSideliner(t)
	const block = 1000
	open := func(read *readPeers, id NodeID, per time.Duration) *timedBody {
		return read.timed(id, &tickingBody{n: 4 * block, per: per, clock: clock}, block, fastRead)
	}
	for i := 0; i < 2*lateRun; i++ {
		lone := open(&readPeers{s: s}, "n0", slowRead)
		drain(lone, block)
		lone.Close()

		pair := &readPeers{s: s}
		slow, unread := open(pair, "n0", slowRead), open(pair, "n1", fastRead)
		drain(slow, block)
		slow.Close()
		unread.Close()
	}
	if len(s.nodes) != 0 {
		t.Fatalf("reads without peers gave %d nodes a verdict", len(s.nodes))
	}

	pair := &readPeers{s: s}
	slow, fast := open(pair, "n0", slowRead), open(pair, "n1", fastRead)
	drain(slow, block)
	drain(fast, block)
	fast.Close()
	if len(s.nodes) != 0 {
		t.Fatal("a read was judged before its last body closed")
	}
	slow.Close()
	if s.lateReads("n0") != 1 || s.lateReads("n1") != 0 || len(s.nodes) != 2 {
		t.Fatalf("two bodies read: late n0 %d, n1 %d; want the slow one late", s.lateReads("n0"), s.lateReads("n1"))
	}
}

// TestSidelineSkipsMidStreamSpare: a spare brought in mid-stream
// amortizes its open over fewer blocks than the bodies opened at the
// read's window, so it is neither judged nor their reference; they are
// judged.
func TestSidelineSkipsMidStreamSpare(t *testing.T) {
	tc := startCluster(t, 6, 4, 2)
	ctx := context.Background()
	payload := clusterPayload(810, 4*64*1024) // four stripes
	tc.put(ctx, "obj", payload)
	corruptBlock(t, tc, "obj", 0, 1)
	place, _ := tc.gw.Place("obj")
	// Forget the records the gateway made as it adopted the map, so that
	// from here a record is a verdict.
	s := tc.gw.router
	s.mu.Lock()
	s.nodes = make(map[NodeID]*nodeReads)
	s.mu.Unlock()

	tc.mustGet(ctx, "obj", payload)
	if got := tc.spareCount("corrupt"); got != 1 {
		t.Fatalf("cluster_read_spares_total{reason=corrupt} = %d, want 1", got)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for idx, n := range place {
		if _, judged := s.nodes[n.ID]; judged != (idx < 4) {
			t.Fatalf("shard %d's node judged: %v; want the first four judged and the spare not", idx, judged)
		}
	}
}

// TestSidelineMixedGetAndRange: the sample's quotient — open plus time
// blocked, per block — cannot amortize a one-block range read's open, so
// such a read's samples run several times a full GET's. Judged against
// the other bodies of the same read they are on time: in 8 MiB GETs
// (eight blocks a shard, about 0.3 ms each) mixed with one-block range
// reads (1–1.5 ms on every body) at 7:1, 6:2 and 4:4, no healthy node
// gets a late verdict or a trip. A node slow on every Read is still late
// in both kinds of read and sidelined after a run of them.
func TestSidelineMixedGetAndRange(t *testing.T) {
	s, clock, p := fakeSideliner(t)
	const block = 1000
	seq := 0
	// read opens the four shards of p from first on, blocks blocks each.
	// Every body's open and per-block time spread over 1–1.4× the given
	// ones; a Read from node slow takes 4 ms more.
	read := func(first, blocks int, open, per time.Duration, slow NodeID) {
		peers := &readPeers{s: s}
		bodies := make([]*timedBody, 4)
		for i := range bodies {
			seq++
			spread := 1 + float64(seq%5)/10
			id := p[(first+i)%len(p)].ID
			perRead := time.Duration(spread * float64(per))
			if id == slow {
				perRead += 4 * time.Millisecond
			}
			bodies[i] = peers.timed(id, &tickingBody{n: blocks * block, per: perRead, clock: clock}, block,
				time.Duration(spread*float64(open)))
		}
		for _, b := range bodies {
			drain(b, block)
		}
		for _, b := range bodies {
			b.Close()
		}
	}
	get := func(first int, slow NodeID) { read(first, 8, 500*time.Microsecond, 250*time.Microsecond, slow) }
	rng := func(first int, slow NodeID) { read(first, 1, time.Millisecond, 50*time.Microsecond, slow) }

	first := 0
	for _, mix := range [][2]int{{7, 1}, {6, 2}, {4, 4}} {
		for round := 0; round < 10; round++ {
			for i := 0; i < mix[0]; i++ {
				get(first, "")
				first++
			}
			for i := 0; i < mix[1]; i++ {
				rng(first, "")
				first++
			}
		}
	}
	for _, n := range p {
		if late := s.lateReads(n.ID); late != 0 {
			t.Fatalf("healthy %s judged late %d times in the GET/range mix", n.ID, late)
		}
	}
	if got := s.sidelinedNodes(); len(got) != 0 {
		t.Fatalf("GET/range mix sidelined %+v", got)
	}

	slow := p[2].ID
	for i := 0; i < lateRun; i++ {
		if i%2 == 0 {
			get(0, slow)
		} else {
			rng(0, slow)
		}
	}
	if s.lateReads(slow) != lateRun || !s.isSidelined(slow) {
		t.Fatalf("slow node judged late %d times in %d reads, sidelined: %v", s.lateReads(slow), lateRun, s.isSidelined(slow))
	}
	for _, n := range p {
		if late := s.lateReads(n.ID); n.ID != slow && late != 0 {
			t.Fatalf("healthy %s judged late %d times beside a slow node", n.ID, late)
		}
	}
}

// bench sidelines a node the way five refused connections would.
func (tc *testCluster) bench(id NodeID) {
	for i := 0; i < lateRun; i++ {
		tc.gw.router.failed(id, errNodeDown)
	}
}

// lag sidelines a node the way five slow bodies would.
func (tc *testCluster) lag(id NodeID) {
	for i := 0; i < lateRun; i++ {
		readBeside(tc.gw.router, id, slowRead)
	}
}

// shardsAsked lists the shard indices of the tap's logged GETs, cut
// into waves of the given sizes ("0,1,2,3|4"); what is left over is one
// more wave. A read opens a wave's shards at once, so they arrive in no
// fixed order and are listed sorted; the next wave goes out only once
// the last has answered, so the waves keep their order.
func shardsAsked(reqs []string, waves ...int) string {
	var idx []string
	for _, r := range reqs {
		if path, ok := strings.CutPrefix(r, "GET /v1/shard/"); ok {
			path, _, _ = strings.Cut(path, "?")
			idx = append(idx, path[strings.LastIndex(path, "/")+1:])
		}
	}
	var out []string
	for _, n := range append(waves, len(idx)) {
		if len(idx) == 0 {
			break
		}
		wave := idx[:min(n, len(idx))]
		idx = idx[len(wave):]
		slices.Sort(wave)
		out = append(out, strings.Join(wave, ","))
	}
	return strings.Join(out, "|")
}

// TestSidelinedMeansAskedLast: a read opens k shards, and sidelined
// nodes' after the others; with up to m nodes sidelined a read opens k
// others and never touches them; with more than m it reaches into the
// back of the order for exactly what it lacks. Status mapping does not
// move: all-404 is still not-found, a mix is still not.
func TestSidelinedMeansAskedLast(t *testing.T) {
	tc, tap := tappedCluster(t, nil)
	tc.gw.router.clock = vclock.NewFake() // cooldowns never end
	ctx := context.Background()
	payload := clusterPayload(601, 300_000)
	tc.put(ctx, "obj", payload)
	place, _ := tc.gw.Place("obj")
	tap.take()

	tc.mustGet(ctx, "obj", payload)
	if got := shardsAsked(tap.take()); got != "0,1,2,3" {
		t.Fatalf("healthy read asked shards %s", got)
	}
	tc.lag(place[0].ID)
	tc.mustGet(ctx, "obj", payload)
	if got := shardsAsked(tap.take()); got != "1,2,3,4" {
		t.Fatalf("read with a slow node sidelined asked shards %s, want the next four", got)
	}
	tc.lag(place[1].ID)
	tc.mustGet(ctx, "obj", payload)
	if got := shardsAsked(tap.take()); got != "2,3,4,5" {
		t.Fatalf("read with m slow nodes sidelined asked shards %s, want the other four", got)
	}
	tc.bench(place[0].ID)
	tc.bench(place[1].ID)
	tc.mustGet(ctx, "obj", payload)
	if got := shardsAsked(tap.take()); got != "2,3,4,5" {
		t.Fatalf("read with m sidelined for failed opens asked shards %s, want the other four", got)
	}
	var rng bytes.Buffer
	if err := tc.gw.getObjectRange(ctx, "obj", &rng, 100_000, 50_000, node.ClassForeground); err != nil ||
		!bytes.Equal(rng.Bytes(), payload[100_000:150_000]) {
		t.Fatalf("range read with m sidelined: %v", err)
	}
	tap.take()

	tc.bench(place[2].ID)
	tc.mustGet(ctx, "obj", payload)
	if got := shardsAsked(tap.take()); got != "0,3,4,5" {
		t.Fatalf("read with m+1 sidelined asked shards %s, want the three in good standing and one from the back", got)
	}

	// The sidelined set is served beside the map.
	srv := startHTTP(t, tc)
	resp, err := srv.Client().Get(srv.URL + "/v1/cluster/map")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster map: status %d, %v", resp.StatusCode, err)
	}
	var info struct {
		Epoch     uint64
		Nodes     []NodeInfo
		Sidelined []sidelinedNode
	}
	if err := json.Unmarshal(body, &info); err != nil || len(info.Nodes) != 6 || len(info.Sidelined) != 3 ||
		info.Sidelined[0].CooldownMS != firstCooldown.Milliseconds() {
		t.Fatalf("cluster map %s: %v", body, err)
	}

	err = tc.gw.GetObject(ctx, "never-put", io.Discard, node.ClassForeground)
	if !errors.Is(err, node.ErrNotFound) {
		t.Fatalf("absent object: %v, want not found", err)
	}
	tc.node(place[3].ID).stop()
	tc.node(place[4].ID).stop()
	tc.node(place[5].ID).stop()
	if err = tc.gw.GetObject(ctx, "obj", io.Discard, node.ClassForeground); err == nil || errors.Is(err, node.ErrNotFound) {
		t.Fatalf("three nodes down: %v, want a failure that is not not-found", err)
	}
	if err = tc.gw.GetObject(ctx, "never-put", io.Discard, node.ClassForeground); err == nil || errors.Is(err, node.ErrNotFound) {
		t.Fatalf("absent object, three nodes down: %v, want a failure that is not not-found", err)
	}
}

// TestSlowSidelinedNodeStillSpares: sidelining a node that answers
// costs a read none of its tolerance for bad blocks. With m shards
// corrupt a read may need all six shards, the two beyond k as spares,
// whoever is cooling down.
func TestSlowSidelinedNodeStillSpares(t *testing.T) {
	tc := startCluster(t, 6, 4, 2)
	tc.gw.router.clock = vclock.NewFake() // cooldowns never end
	ctx := context.Background()
	payload := clusterPayload(760, 200_000)
	tc.put(ctx, "obj", payload)
	place, _ := tc.gw.Place("obj")
	corruptShard(t, tc, "obj", 0, 761)
	corruptShard(t, tc, "obj", 4, 762)
	tc.mustGet(ctx, "obj", payload)

	tc.lag(place[2].ID)
	tc.lag(place[5].ID)
	if got := tc.gw.router.sidelinedNodes(); len(got) != 2 {
		t.Fatalf("sidelined set %+v, want two nodes", got)
	}
	tc.mustGet(ctx, "obj", payload)
}

// TestMissingShardsSidelineNobody: reads of an object whose shards
// were deleted from healthy nodes meet 404s on every open, and no node
// is sidelined for it.
func TestMissingShardsSidelineNobody(t *testing.T) {
	tc := startCluster(t, 6, 4, 2)
	ctx := context.Background()
	payload := clusterPayload(602, 200_000)
	tc.put(ctx, "obj", payload)
	tc.deleteShard(ctx, "obj", 0)
	tc.deleteShard(ctx, "obj", 2)
	for i := 0; i < 3*lateRun; i++ {
		tc.mustGet(ctx, "obj", payload)
	}
	if got := tc.gw.router.sidelinedNodes(); len(got) != 0 {
		t.Fatalf("404s on open sidelined %v", got)
	}
}

// TestSidelineSlowNode is the straggler regime end to end: one of six
// nodes sleeps about 4 ms before every body read. Reads stay byte-exact
// throughout; once the node is sidelined the only requests it sees are
// probes; and once it recovers, the first read after its cooldown is
// the probe that re-admits it.
func TestSidelineSlowNode(t *testing.T) {
	faults := fault.NewTransport(&http.Transport{DisableKeepAlives: true})
	tc := startClusterOpts(t, 6, 4, 2, func(o *GatewayOptions) {
		o.HTTPClient = &http.Client{Transport: faults}
		o.HedgeAfter = 30 * time.Millisecond // dialga-node's default
	})
	ctx := context.Background()
	payload := clusterPayload(603, 512*1024) // eight stripes
	tc.put(ctx, "obj", payload)
	place, _ := tc.gw.Place("obj")

	// The slow node gets a registry of its own, so its store's counters
	// can be told from its peers'.
	slow := tc.node(place[1].ID)
	slow.stop()
	slow.reg = obs.NewRegistry()
	slow.start()
	gets := slow.reg.Counter("node_store_gets_total", "")
	lbl := obs.Label{Key: "node", Value: string(slow.id)}
	probes := func() uint64 {
		ok := tc.counter("cluster_sideline_probes_total", lbl, obs.Label{Key: "result", Value: "ok"})
		return ok + tc.counter("cluster_sideline_probes_total", lbl, obs.Label{Key: "result", Value: "miss"})
	}

	plan, err := fault.Parse("slow@0+4000")
	if err != nil {
		t.Fatal(err)
	}
	faults.Set(slow.addr, plan)
	detected := 0
	for !tc.gw.router.isSidelined(slow.id) {
		if detected++; detected > 4*lateRun {
			t.Fatalf("slow node not sidelined after %d reads", detected-1)
		}
		tc.mustGet(ctx, "obj", payload)
	}
	if detected < lateRun {
		t.Fatalf("sidelined after %d reads, before a run of %d", detected, lateRun)
	}

	getsBefore, probesBefore := gets.Value(), probes()
	const reads = 40
	for i := 0; i < reads; i++ {
		tc.mustGet(ctx, "obj", payload)
	}
	asked, probed := gets.Value()-getsBefore, probes()-probesBefore
	if asked != probed || asked > reads/4 {
		t.Fatalf("%d reads opened the sidelined node %d times with %d probes counted; want only probes, and few", reads, asked, probed)
	}
	if got := tc.gw.router.sidelinedNodes(); len(got) != 1 {
		t.Fatalf("sidelined set %+v, want only %s", got, slow.id)
	}

	// Recovery: reads keep coming, and the first one after the cooldown
	// is the probe that re-admits the node. Its peers are the other
	// bodies of that read, so a GET that loses the CPU slows them all.
	faults.Heal(slow.addr)
	missed := tc.counter("cluster_sideline_probes_total", lbl, obs.Label{Key: "result", Value: "miss"})
	wait := time.Duration(tc.gw.router.sidelinedNodes()[0].CooldownMS)*time.Millisecond + 2*time.Second
	for deadline := time.Now().Add(wait); tc.gw.router.isSidelined(slow.id); {
		if time.Now().After(deadline) {
			t.Fatalf("recovered node still sidelined after %v", wait)
		}
		tc.mustGet(ctx, "obj", payload)
	}
	if got := tc.counter("cluster_sideline_probes_total", lbl, obs.Label{Key: "result", Value: "miss"}) - missed; got > 0 {
		t.Fatalf("recovered node failed %d probes before it was re-admitted", got)
	}
	getsBefore = gets.Value()
	tc.mustGet(ctx, "obj", payload)
	if gets.Value() != getsBefore+1 {
		t.Fatal("re-admitted node is not read from")
	}
}
