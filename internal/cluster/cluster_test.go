package cluster

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// specMap builds a map from a spec or fails the test.
func specMap(t *testing.T, spec string) *Map {
	t.Helper()
	m, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// sixNodeSpec is the canonical test topology: six nodes, six racks,
// two zones.
const sixNodeSpec = "n0=h0:1/r0/z0,n1=h1:1/r1/z0,n2=h2:1/r2/z0,n3=h3:1/r3/z1,n4=h4:1/r4/z1,n5=h5:1/r5/z1"

func TestParseSpec(t *testing.T) {
	m := specMap(t, sixNodeSpec)
	if m.Len() != 6 || m.Domains() != 6 {
		t.Fatalf("len=%d domains=%d, want 6/6", m.Len(), m.Domains())
	}
	n, ok := m.Get("n3")
	if !ok || n.Addr != "h3:1" || n.Rack != "r3" || n.Zone != "z1" || n.Domain() != "z1/r3" {
		t.Fatalf("n3 = %+v", n)
	}

	// Defaults: rack <- ID, zone <- "default".
	m = specMap(t, "a=h:1,b=h:2")
	a, _ := m.Get("a")
	if a.Rack != "a" || a.Zone != "default" {
		t.Fatalf("defaulted node = %+v", a)
	}

	// File form: one node per line, # comments, blank lines.
	m = specMap(t, "# test topology\nn0=h0:1/r0/z0\n\nn1=h1:1/r1/z0,n2=h2:1/r2/z0\n")
	if m.Len() != 3 {
		t.Fatalf("newline spec len = %d, want 3", m.Len())
	}

	// Spaces around fields are not part of them.
	m = specMap(t, "n0 = 127.0.0.1:7070 / r0 / z0")
	if n := m.Nodes()[0]; n != (NodeInfo{ID: "n0", Addr: "127.0.0.1:7070", Rack: "r0", Zone: "z0"}) {
		t.Fatalf("spaced spec parsed to %+v", n)
	}

	for _, bad := range []string{
		"",                   // empty set
		"n0",                 // no addr
		"n0=h:1,n0=h:2",      // dup ID
		"n0=a,n0 =b",         // dup ID behind a space
		"n0=h:1,n1=h:1",      // dup addr
		"n0=h:1/r0/z0/extra", // too many fields
		"=h:1",               // empty ID
		"a/b=h:1",            // ID that cannot be rendered back as a rack
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

// FuzzParseSpec: the -cluster-file parser never panics, and a map it
// accepts has non-empty fields with no surrounding space, unique IDs and
// addresses, and renders back to a spec that parses to the same nodes.
func FuzzParseSpec(f *testing.F) {
	for _, spec := range []string{
		sixNodeSpec, "a=h:1,b=h:2", "n0 = 127.0.0.1:7070 / r0 / z0", "n0=a,n0 =b",
		"# topology\nn0=h0:1/r0/z0\n\nn1=h1:1/r1/z0,n2=h2:1/r2/z0\n",
		"n0=h:1/ /z0", "n0=h:1/r0/z0/extra", "=h:1", "n0= ", "n0=a=b/r=1", "/=0",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		m, err := ParseSpec(spec)
		if err != nil {
			return
		}
		ids, addrs := map[NodeID]bool{}, map[string]bool{}
		var render []string
		for _, n := range m.Nodes() {
			for _, field := range []string{string(n.ID), n.Addr, n.Rack, n.Zone} {
				if field == "" || field != strings.TrimSpace(field) {
					t.Fatalf("ParseSpec(%q) kept field %q of %+v", spec, field, n)
				}
			}
			if ids[n.ID] || addrs[n.Addr] {
				t.Fatalf("ParseSpec(%q) accepted a duplicate in %+v", spec, m.Nodes())
			}
			ids[n.ID], addrs[n.Addr] = true, true
			render = append(render, fmt.Sprintf("%s=%s/%s/%s", n.ID, n.Addr, n.Rack, n.Zone))
		}
		again, err := ParseSpec(strings.Join(render, ","))
		if err != nil {
			t.Fatalf("ParseSpec(%q) rendered to %q, which fails: %v", spec, render, err)
		}
		if !reflect.DeepEqual(again.Nodes(), m.Nodes()) {
			t.Fatalf("ParseSpec(%q) = %+v, rendered back %+v", spec, m.Nodes(), again.Nodes())
		}
	})
}

func TestPlacementDeterministicAndRackDisjoint(t *testing.T) {
	m := specMap(t, sixNodeSpec)
	for i := 0; i < 200; i++ {
		object := fmt.Sprintf("object-%04d", i)
		p, err := m.Place(object, 6)
		if err != nil {
			t.Fatal(err)
		}
		// Deterministic: same inputs, same answer.
		p2, _ := m.Place(object, 6)
		for j := range p {
			if p[j].ID != p2[j].ID {
				t.Fatalf("%s: placement not deterministic at shard %d", object, j)
			}
		}
		// Rack-disjoint: every failure domain used at most once.
		domains := map[string]int{}
		for _, n := range p {
			domains[n.Domain()]++
		}
		for d, c := range domains {
			if c > 1 {
				t.Fatalf("%s: domain %s holds %d shards", object, d, c)
			}
		}
	}
}

func TestPlacementZoneSpread(t *testing.T) {
	// Four racks in z0, four in z1: a 4-shard stripe must use both
	// zones (2+2), never pile into one.
	m := specMap(t, "a0=h0:1/r0/z0,a1=h1:1/r1/z0,a2=h2:1/r2/z0,a3=h3:1/r3/z0,"+
		"b0=h4:1/r4/z1,b1=h5:1/r5/z1,b2=h6:1/r6/z1,b3=h7:1/r7/z1")
	for i := 0; i < 100; i++ {
		p, err := m.Place(fmt.Sprintf("zs-%d", i), 4)
		if err != nil {
			t.Fatal(err)
		}
		zones := map[string]int{}
		for _, n := range p {
			zones[n.Zone]++
		}
		if zones["z0"] != 2 || zones["z1"] != 2 {
			t.Fatalf("object zs-%d: zone spread %v, want 2+2", i, zones)
		}
	}
}

func TestPlacementBalance(t *testing.T) {
	// Rendezvous hashing should spread primaries roughly evenly; with
	// 600 objects over 6 nodes no node should hold more than twice its
	// fair share of shard 0.
	m := specMap(t, sixNodeSpec)
	counts := map[NodeID]int{}
	for i := 0; i < 600; i++ {
		p, err := m.Place(fmt.Sprintf("balance-%d", i), 6)
		if err != nil {
			t.Fatal(err)
		}
		counts[p[0].ID]++
	}
	for id, c := range counts {
		if c > 200 {
			t.Fatalf("node %s holds %d of 600 primaries", id, c)
		}
	}
}

func TestPlacementRefusesTooFewDomains(t *testing.T) {
	// Three nodes share rack r0: only 4 domains for 6 shards.
	m := specMap(t, "n0=h0:1/r0/z0,n1=h1:1/r0/z0,n2=h2:1/r0/z0,n3=h3:1/r3/z1,n4=h4:1/r4/z1,n5=h5:1/r5/z1")
	if _, err := m.Place("x", 6); err == nil || !strings.Contains(err.Error(), "failure domains") {
		t.Fatalf("placement with 4 domains for 6 shards: %v", err)
	}
	// 4 shards fit the 4 domains.
	if _, err := m.Place("x", 4); err != nil {
		t.Fatal(err)
	}
}

func TestPlacementStabilityUnderNodeLoss(t *testing.T) {
	// Rendezvous property: dropping one node moves only the shards it
	// held (plus the rank shifts it forces) — the surviving nodes'
	// relative score order is untouched. Verify that the set of chosen
	// nodes only shrinks by the lost node for most objects.
	all := specMap(t, sixNodeSpec)
	fiveSpec := strings.Join(strings.Split(sixNodeSpec, ",")[:5], ",")
	five := specMap(t, fiveSpec) // n5 removed
	moved := 0
	const objects = 200
	for i := 0; i < objects; i++ {
		object := fmt.Sprintf("stable-%d", i)
		pAll, err := all.Place(object, 4)
		if err != nil {
			t.Fatal(err)
		}
		pFive, err := five.Place(object, 4)
		if err != nil {
			t.Fatal(err)
		}
		before := map[NodeID]bool{}
		for _, n := range pAll {
			before[n.ID] = true
		}
		for _, n := range pFive {
			if !before[n.ID] {
				moved++
				break
			}
		}
	}
	// Only objects that had a shard on n5 (expected ~4/6 of them under
	// 4-of-6 placement) should see any new node appear.
	if moved > objects*8/10 {
		t.Fatalf("%d of %d placements changed after one node loss", moved, objects)
	}
}

func TestRouters(t *testing.T) {
	m := specMap(t, sixNodeSpec)
	p, err := m.Place("route-me", 6)
	if err != nil {
		t.Fatal(err)
	}

	order := FirstK{}.Order("route-me", p)
	for i, idx := range order {
		if idx != i {
			t.Fatalf("FirstK order = %v", order)
		}
	}

	for _, policy := range []string{"", "first-k"} {
		if r, ok := NewRouter(policy); !ok || r != (FirstK{}) {
			t.Fatalf("NewRouter(%q) = %v, %v; want FirstK", policy, r, ok)
		}
	}
	for _, gone := range []string{"round-robin", "least-loaded"} {
		if _, ok := NewRouter(gone); ok {
			t.Fatalf("NewRouter accepted the deleted %q policy", gone)
		}
	}
	if _, ok := NewRouter("nope"); ok {
		t.Fatal("NewRouter accepted unknown policy")
	}
}
