package core

import (
	"math/bits"
	"slices"

	"havoqgt/internal/graph"
	"havoqgt/internal/partition"
)

// DefaultGhostsPerPartition is the ghost-table size used throughout the
// paper's BFS experiments ("All other BFS experiments in this work use 256
// ghost vertices per partition", §VII-E2).
const DefaultGhostsPerPartition = 256

// GhostTable maps a small set of high in-degree remote hub vertices to dense
// indices. Each partition identifies its ghosts locally, from its own edges'
// targets — ghost information represents only the local partition's view of
// remote hubs and is never globally synchronized (§IV-B).
//
// Lookup runs on every remote push, so the index is a power-of-two
// open-addressing table with linear probing, at most half full: keys[i]
// holds a ghosted vertex (graph.Nil marks an empty slot) and idx[i] its
// ghost index.
type GhostTable struct {
	keys     []graph.Vertex
	idx      []int32
	shift    uint // 64 − log2(len(keys)): Fibonacci hashing keeps the top bits
	vertices []graph.Vertex
}

// BuildGhostTable scans the rank's local edge targets and selects up to k
// remote vertices with the highest local in-edge count. Only vertices that
// appear at least twice locally are candidates: a ghost can only filter when
// the partition has multiple edges to the hub (the paper's degree(v) > p
// observation).
func BuildGhostTable(part *partition.Part, k int) *GhostTable {
	t := &GhostTable{}
	if k <= 0 {
		return t
	}
	counts := make(map[graph.Vertex]uint32)
	m := part.CSR
	for row := 0; row < m.NumRows(); row++ {
		for _, tgt := range m.Row(row) {
			if part.Master(tgt) != part.Rank {
				counts[tgt]++
			}
		}
	}
	type cand struct {
		v graph.Vertex
		c uint32
	}
	cands := make([]cand, 0, len(counts))
	for v, c := range counts {
		if c >= 2 {
			cands = append(cands, cand{v, c})
		}
	}
	slices.SortFunc(cands, func(a, b cand) int {
		switch {
		case a.c > b.c:
			return -1
		case a.c < b.c:
			return 1
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		default:
			return 0
		}
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	for _, c := range cands {
		t.vertices = append(t.vertices, c.v)
	}
	t.index()
	return t
}

// index builds the open-addressing table over t.vertices.
func (t *GhostTable) index() {
	if len(t.vertices) == 0 {
		return
	}
	lg := bits.Len(uint(2*len(t.vertices) - 1)) // 2^lg >= 2·len
	t.shift = uint(64 - lg)
	t.keys = make([]graph.Vertex, 1<<lg)
	t.idx = make([]int32, 1<<lg)
	for i := range t.keys {
		t.keys[i] = graph.Nil
	}
	mask := len(t.keys) - 1
	for gi, v := range t.vertices {
		s := t.slot(v)
		for t.keys[s] != graph.Nil {
			s = (s + 1) & mask
		}
		t.keys[s] = v
		t.idx[s] = int32(gi)
	}
}

// slot is v's home slot.
func (t *GhostTable) slot(v graph.Vertex) int {
	return int((uint64(v) * 0x9e3779b97f4a7c15) >> t.shift)
}

// Lookup returns the ghost index of v, if v is ghosted on this rank.
func (t *GhostTable) Lookup(v graph.Vertex) (int, bool) {
	if len(t.keys) == 0 {
		return 0, false
	}
	mask := len(t.keys) - 1
	for s := t.slot(v); ; s = (s + 1) & mask {
		switch t.keys[s] {
		case graph.Nil:
			return 0, false
		case v:
			return int(t.idx[s]), true
		}
	}
}

// Len returns the number of ghosts in the table.
func (t *GhostTable) Len() int { return len(t.vertices) }

// Vertices returns the ghosted vertices in index order.
func (t *GhostTable) Vertices() []graph.Vertex { return t.vertices }
