package cluster

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// placementMaps are the topologies whose placements are pinned: the
// canonical six nodes in two zones; twelve nodes in three zones that
// reuse rack names across zones and put two nodes in one rack; eight
// nodes with defaulted racks and zones; and seven nodes in two uneven
// zones, where zone rounds restart partway through a stripe.
var placementMaps = []struct {
	spec   string
	shards []int
}{
	{sixNodeSpec, []int{4, 6}},
	{"n00=h0:1/r0/z0,n01=h1:1/r1/z0,n02=h2:1/r2/z0,n03=h3:1/r2/z0," +
		"n04=h4:1/r0/z1,n05=h5:1/r1/z1,n06=h6:1/r2/z1,n07=h7:1/r3/z1," +
		"n08=h8:1/r0/z2,n09=h9:1/r1/z2,n10=h10:1/r1/z2,n11=h11:1/r3/z2", []int{6, 9, 10}},
	{"a=h:1,b=h:2,c=h:3,d=h:4,e=h:5,f=h:6,g=h:7,h=h:8", []int{6, 8}},
	{"u0=h0:1/r0/z0,u1=h1:1/r1/z0,u2=h2:1/r2/z0,u3=h3:1/r3/z0,u4=h4:1/r4/z0," +
		"v0=h5:1/r0/z1,v1=h6:1/r1/z1", []int{3, 6, 7}},
}

// placementDigest is the SHA-256 of every placement of placementMaps
// for the names obj-0000..obj-1199. Placement is stored state: a shard
// lives where Place put it, so no change to Place may move one, and the
// digest never changes.
const placementDigest = "4390e189beb4ac7968b02813142636a739c5566b9f35d1309ac6b04e679b40d6"

// TestPlacementIsPinned: Place assigns every shard of 1,200 names over
// four maps to the node it always has, byte for byte.
func TestPlacementIsPinned(t *testing.T) {
	d := sha256.New()
	for _, pm := range placementMaps {
		m := specMap(t, pm.spec)
		for i := 0; i < 1200; i++ {
			object := fmt.Sprintf("obj-%04d", i)
			for _, n := range pm.shards {
				p, err := m.Place(object, n)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(d, "%s %d:", object, n)
				for _, info := range p {
					fmt.Fprintf(d, " %s", info.ID)
				}
				fmt.Fprintln(d)
			}
		}
	}
	if got := fmt.Sprintf("%x", d.Sum(nil)); got != placementDigest {
		t.Fatalf("placements digest to %s, want %s", got, placementDigest)
	}
}

// TestPlaceBreaksScoreTiesByID: nodes whose scores tie rank by ID, so
// with every key equal the stripe takes the lowest IDs of distinct
// domains and zones, in order.
func TestPlaceBreaksScoreTiesByID(t *testing.T) {
	m := specMap(t, "d=h3:1/r3/z1,a=h0:1/r0/z0,c=h2:1/r2/z1,b=h1:1/r1/z0,e=h4:1/r4/z0")
	for i := range m.keys {
		m.keys[i].key = 7
	}
	p, err := m.Place("tie", 4)
	if err != nil {
		t.Fatal(err)
	}
	var got []NodeID
	for _, info := range p {
		got = append(got, info.ID)
	}
	// a (z0), c (the first z1), then a fresh zone round: b (z0), d (z1).
	if fmt.Sprint(got) != "[a c b d]" {
		t.Fatalf("tied placement %v, want [a c b d]", got)
	}
}

// TestPlaceAllocs: Place allocates its result and one scratch slice.
func TestPlaceAllocs(t *testing.T) {
	for _, pm := range placementMaps {
		m := specMap(t, pm.spec)
		n := pm.shards[len(pm.shards)-1]
		if a := testing.AllocsPerRun(100, func() { m.Place("alloc-me", n) }); a > 2 {
			t.Errorf("Place(%d) on %d nodes allocates %v times, want at most 2", n, m.Len(), a)
		}
	}
}
