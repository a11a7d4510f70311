// Package cluster is the control plane of the dialga shard service:
// static cluster membership with failure domains, deterministic
// rack/zone-aware shard placement, pluggable read routing, token-bucket
// admission control per traffic class, an object gateway that stripes
// whole objects across a placement of nodes with the streaming
// erasure pipeline, and a background repair queue that detects and
// rebuilds damaged shards without starving foreground traffic.
//
// The fault model is the Parallel Persistent Memory Model's: a node
// may fail at any point, but the shards it persisted survive it —
// recovery is re-attachment plus targeted reconstruction of exactly
// the shards that were lost, never whole-object re-replication. The
// data plane (internal/node) stays dumb; everything about *where*
// shards live and *who* may read or write *when* lives here.
package cluster

import (
	"fmt"
	"sort"
	"strings"
)

// NodeID names one node in the cluster map.
type NodeID string

// NodeInfo is one node's membership record: its address and its
// failure-domain coordinates. A rack is the unit of correlated
// failure (a power feed, a top-of-rack switch); a zone groups racks
// (a room, a site). Placement never puts two shards of a stripe in
// one rack, and spreads across zones when it has the choice.
type NodeInfo struct {
	ID   NodeID `json:"id"`
	Addr string `json:"addr"`
	Rack string `json:"rack"`
	Zone string `json:"zone"`
}

// Domain returns the node's failure domain: its (zone, rack) pair,
// so equal rack names in different zones stay distinct domains.
func (n NodeInfo) Domain() string { return n.Zone + "/" + n.Rack }

// Map is a versioned cluster map: the full node set plus an epoch
// that orders successive maps. Placement and routing are pure
// functions of the map and the object name, so any node (or client)
// holding the same epoch computes the same answer without
// coordination. Maps are immutable after New; membership changes are
// expressed as a *new* Map with a higher epoch swapped in atomically
// (see Gateway.UpdateMap), never as in-place mutation.
type Map struct {
	epoch   uint64
	nodes   []NodeInfo // sorted by ID
	byID    map[NodeID]NodeInfo
	keys    []placeKey // nodes[i]'s placement inputs
	domains int        // distinct zone/rack pairs
}

// placeKey is what Place needs of one node, derived once by New: its
// rendezvous key, and the indices of its domain and its zone among the
// map's (each below len(nodes)).
type placeKey struct {
	key          uint64 // mix(fnv64(ID))
	domain, zone int
}

// New validates a node set into a Map: IDs and addresses must be
// unique and non-empty; an empty rack defaults to the node's own ID
// (every node its own failure domain), an empty zone to "default".
func New(nodes []NodeInfo) (*Map, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: empty node set")
	}
	m := &Map{byID: make(map[NodeID]NodeInfo, len(nodes))}
	addrs := make(map[string]NodeID, len(nodes))
	for _, n := range nodes {
		if n.ID == "" {
			return nil, fmt.Errorf("cluster: node with empty ID (addr %q)", n.Addr)
		}
		if n.Addr == "" {
			return nil, fmt.Errorf("cluster: node %s has no address", n.ID)
		}
		if _, dup := m.byID[n.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate node ID %s", n.ID)
		}
		if prev, dup := addrs[n.Addr]; dup {
			return nil, fmt.Errorf("cluster: nodes %s and %s share address %s", prev, n.ID, n.Addr)
		}
		if n.Rack == "" {
			n.Rack = string(n.ID)
		}
		if n.Zone == "" {
			n.Zone = "default"
		}
		m.byID[n.ID] = n
		addrs[n.Addr] = n.ID
		m.nodes = append(m.nodes, n)
	}
	sort.Slice(m.nodes, func(i, j int) bool { return m.nodes[i].ID < m.nodes[j].ID })
	domains, zones := map[string]int{}, map[string]int{}
	index := func(seen map[string]int, key string) int {
		i, ok := seen[key]
		if !ok {
			i = len(seen)
			seen[key] = i
		}
		return i
	}
	for _, n := range m.nodes {
		m.keys = append(m.keys, placeKey{key: mix(fnv64(string(n.ID))),
			domain: index(domains, n.Domain()), zone: index(zones, n.Zone)})
	}
	m.domains = len(domains)
	return m, nil
}

// ParseSpec builds a Map from a compact flag-friendly spec:
// "id=addr[/rack[/zone]]" entries joined by commas or newlines, e.g.
//
//	n0=127.0.0.1:7070/r0/z0,n1=127.0.0.1:7071/r1/z0,n2=127.0.0.1:7072/r2/z1
//
// Newlines let a -cluster-file spec list one node per line; lines
// starting with # are comments. Spaces around each field are dropped, so
// "n0 = h:1 / r0" names node n0.
func ParseSpec(spec string) (*Map, error) {
	var nodes []NodeInfo
	for _, tok := range strings.FieldsFunc(spec, func(r rune) bool { return r == ',' || r == '\n' }) {
		tok = strings.TrimSpace(tok)
		if tok == "" || strings.HasPrefix(tok, "#") {
			continue
		}
		id, rest, ok := strings.Cut(tok, "=")
		if !ok {
			return nil, fmt.Errorf("cluster: node spec %q wants id=addr[/rack[/zone]]", tok)
		}
		parts := strings.Split(rest, "/")
		if len(parts) > 3 {
			return nil, fmt.Errorf("cluster: node spec %q has too many /-fields", tok)
		}
		for i := range parts {
			parts[i] = strings.TrimSpace(parts[i])
		}
		id = strings.TrimSpace(id)
		if strings.Contains(id, "/") {
			// The rack defaults to the ID, and a rack is a /-field.
			return nil, fmt.Errorf("cluster: node ID %q contains '/'", id)
		}
		n := NodeInfo{ID: NodeID(id), Addr: parts[0]}
		if len(parts) > 1 {
			n.Rack = parts[1]
		}
		if len(parts) > 2 {
			n.Zone = parts[2]
		}
		nodes = append(nodes, n)
	}
	return New(nodes)
}

// Epoch returns the map's version. Epoch 0 is the boot map; every
// reload bumps it. Placement depends only on membership, not the
// epoch — the epoch exists so concurrent readers can tell which
// generation of the map an operation was pinned to.
func (m *Map) Epoch() uint64 { return m.epoch }

// WithEpoch returns a copy of the map stamped with the given epoch.
// The node set is shared (maps are immutable), so the copy is cheap.
func (m *Map) WithEpoch(epoch uint64) *Map {
	c := *m
	c.epoch = epoch
	return &c
}

// MapInfo is the wire shape of a cluster map, served by the
// /v1/cluster/map admin endpoint.
type MapInfo struct {
	Epoch uint64     `json:"epoch"`
	Nodes []NodeInfo `json:"nodes"`
}

// Info returns the map's wire representation.
func (m *Map) Info() MapInfo { return MapInfo{Epoch: m.epoch, Nodes: m.nodes} }

// Nodes returns the membership, sorted by ID. The caller must not
// mutate it.
func (m *Map) Nodes() []NodeInfo { return m.nodes }

// Len returns the node count.
func (m *Map) Len() int { return len(m.nodes) }

// Get looks a node up by ID.
func (m *Map) Get(id NodeID) (NodeInfo, bool) {
	n, ok := m.byID[id]
	return n, ok
}

// Domains returns the number of distinct failure domains (zone/rack
// pairs) in the map — the ceiling on how many shards of one stripe
// can be placed strictly domain-disjoint.
func (m *Map) Domains() int { return m.domains }
