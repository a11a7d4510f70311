package cluster

import (
	"fmt"
	"sort"
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

// score is node n's rendezvous (highest-random-weight) score for
// object: deterministic, uniform, and independent per (object, node),
// so removing one node only moves the shards that lived on it.
func score(object string, n NodeInfo) uint64 {
	return mix(fnv64(object) ^ mix(fnv64(string(n.ID))))
}

// Place assigns the n shards of object's stripe to nodes:
//
//   - Deterministic: rendezvous hashing orders the nodes by
//     per-(object, node) score, so placement needs no directory, and
//     node loss only reshuffles the lost node's shards.
//   - Rack-disjoint: no two shards ever share a failure domain
//     (zone/rack pair). A map with fewer domains than shards is a
//     configuration error — redundancy that can be wiped out by one
//     rack is not redundancy — so Place refuses rather than relaxing
//     silently.
//   - Zone-spread: among the rack-disjoint choices, shards prefer
//     zones not yet used by this stripe, so a zone-sized failure
//     takes out as few shards as possible.
func (m *Map) Place(object string, n int) (Placement, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: placement for %d shards", n)
	}
	if d := m.Domains(); n > d {
		return nil, fmt.Errorf("cluster: %d shards need %d disjoint failure domains, map has %d", n, n, d)
	}
	ranked := make([]NodeInfo, len(m.nodes))
	copy(ranked, m.nodes)
	sort.Slice(ranked, func(i, j int) bool {
		si, sj := score(object, ranked[i]), score(object, ranked[j])
		if si != sj {
			return si > sj
		}
		return ranked[i].ID < ranked[j].ID // total order even on score ties
	})

	placement := make(Placement, 0, n)
	usedDomain := make(map[string]bool, n)
	usedZone := make(map[string]bool, n)
	taken := make([]bool, len(ranked))
	// Pass 1 per slot: best-scored node in an unused domain AND an
	// unused zone; pass 2 relaxes the zone (all zones already
	// represented), never the domain.
	for len(placement) < n {
		pick := -1
		for pass := 0; pass < 2 && pick < 0; pass++ {
			for i, cand := range ranked {
				if taken[i] || usedDomain[cand.Domain()] {
					continue
				}
				if pass == 0 && usedZone[cand.Zone] {
					continue
				}
				pick = i
				break
			}
		}
		if pick < 0 {
			// Unreachable given the Domains() precheck, but refuse
			// loudly rather than looping.
			return nil, fmt.Errorf("cluster: placement for %q stuck at %d of %d shards", object, len(placement), n)
		}
		taken[pick] = true
		usedDomain[ranked[pick].Domain()] = true
		if zonesLeft(ranked, taken, usedZone) == 0 {
			// Every remaining candidate's zone is already used: start a
			// fresh zone round so spreading stays as even as it can be.
			usedZone = make(map[string]bool, n)
		}
		usedZone[ranked[pick].Zone] = true
		placement = append(placement, ranked[pick])
	}
	return placement, nil
}

// zonesLeft counts untaken candidates in zones not yet used this
// round.
func zonesLeft(ranked []NodeInfo, taken []bool, usedZone map[string]bool) int {
	left := 0
	for i, cand := range ranked {
		if !taken[i] && !usedZone[cand.Zone] {
			left++
		}
	}
	return left
}
