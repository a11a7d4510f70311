package cluster

import (
	"cmp"
	"fmt"
	"slices"
)

// Placement is the node assignment for one object's stripe: entry i
// holds shard i. It is a pure function of (map, object, n), so every
// node derives it independently and identically.
type Placement []NodeInfo

// fnv64 is the FNV-1a hash of s — the stable object/node fingerprint
// placement scores are derived from. Inlined rather than hash/fnv so
// the two-string combination below allocates nothing.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix is the SplitMix64 finalizer, the same whitener internal/fault
// uses: it turns the correlated (object, node) hash pair into an
// independent uniform score.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rankSlot is one row of Place's scratch, which holds two things per
// row. node is the index in Map.nodes of the row-th best-scored node,
// score its score and taken whether a shard is on it. usedDomain and
// usedZone say whether the map's domain and zone numbered row (placeKey)
// hold a shard; a map has no more domains or zones than nodes.
type rankSlot struct {
	score                       uint64
	node                        int
	taken, usedDomain, usedZone bool
}

// Place assigns the n shards of object's stripe to nodes:
//
//   - Deterministic: rendezvous hashing orders the nodes by
//     per-(object, node) score, so placement needs no directory, and
//     node loss only reshuffles the lost node's shards. The score,
//     mix(fnv64(object) ^ mix(fnv64(node ID))), is uniform and
//     independent per (object, node); ties go to the lower ID.
//   - Rack-disjoint: no two shards ever share a failure domain
//     (zone/rack pair). A map with fewer domains than shards is a
//     configuration error — redundancy that can be wiped out by one
//     rack is not redundancy — so Place refuses rather than relaxing
//     silently.
//   - Zone-spread: among the rack-disjoint choices, shards prefer
//     zones not yet used by this stripe, so a zone-sized failure
//     takes out as few shards as possible.
//
// It allocates its result and one scratch slice.
func (m *Map) Place(object string, n int) (Placement, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: placement for %d shards", n)
	}
	if n > m.domains {
		return nil, fmt.Errorf("cluster: %d shards need %d disjoint failure domains, map has %d", n, n, m.domains)
	}
	ranked := make([]rankSlot, len(m.nodes))
	h := fnv64(object)
	for i, k := range m.keys {
		ranked[i] = rankSlot{score: mix(h ^ k.key), node: i}
	}
	slices.SortFunc(ranked, func(a, b rankSlot) int {
		if c := cmp.Compare(b.score, a.score); c != 0 {
			return c
		}
		return cmp.Compare(a.node, b.node) // nodes are sorted by ID
	})

	placement := make(Placement, 0, n)
	// Pass 1 per slot: best-scored node in an unused domain AND an
	// unused zone; pass 2 relaxes the zone (all zones already
	// represented), never the domain.
	for len(placement) < n {
		pick := -1
		for pass := 0; pass < 2 && pick < 0; pass++ {
			for i, r := range ranked {
				k := m.keys[r.node]
				if r.taken || ranked[k.domain].usedDomain {
					continue
				}
				if pass == 0 && ranked[k.zone].usedZone {
					continue
				}
				pick = i
				break
			}
		}
		if pick < 0 {
			// Unreachable given the domain-count precheck, but refuse
			// loudly rather than looping.
			return nil, fmt.Errorf("cluster: placement for %q stuck at %d of %d shards", object, len(placement), n)
		}
		ranked[pick].taken = true
		k := m.keys[ranked[pick].node]
		ranked[k.domain].usedDomain = true
		if m.zonesLeft(ranked) == 0 {
			// Every remaining candidate's zone is already used: start a
			// fresh zone round so spreading stays as even as it can be.
			for i := range ranked {
				ranked[i].usedZone = false
			}
		}
		ranked[k.zone].usedZone = true
		placement = append(placement, m.nodes[ranked[pick].node])
	}
	return placement, nil
}

// zonesLeft counts untaken candidates in zones not yet used this
// round.
func (m *Map) zonesLeft(ranked []rankSlot) int {
	left := 0
	for _, r := range ranked {
		if !r.taken && !ranked[m.keys[r.node].zone].usedZone {
			left++
		}
	}
	return left
}
