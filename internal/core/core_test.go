package core

import (
	"encoding/binary"
	"testing"

	"havoqgt/internal/graph"
	"havoqgt/internal/partition"
	"havoqgt/internal/rt"
)

// buildPart builds a single-rank edge-list partition for unit tests.
func buildPart(t *testing.T, edges []graph.Edge, n uint64) *partition.Part {
	t.Helper()
	var part *partition.Part
	rt.NewMachine(1).Run(func(r *rt.Rank) {
		var err error
		part, err = partition.BuildEdgeList(r, edges, n)
		if err != nil {
			panic(err)
		}
	})
	return part
}

// buildParts builds a p-rank edge-list partition.
func buildParts(t *testing.T, edges []graph.Edge, n uint64, p int) []*partition.Part {
	t.Helper()
	parts := make([]*partition.Part, p)
	rt.NewMachine(p).Run(func(r *rt.Rank) {
		var local []graph.Edge
		for i, e := range edges {
			if i%p == r.Rank() {
				local = append(local, e)
			}
		}
		part, err := partition.BuildEdgeList(r, local, n)
		if err != nil {
			panic(err)
		}
		parts[r.Rank()] = part
	})
	return parts
}

func TestGhostTableSelectsHighInDegreeRemotes(t *testing.T) {
	// Rank 0 holds sources 0..k with many edges to a remote hub vertex.
	var edges []graph.Edge
	n := uint64(64)
	hub := graph.Vertex(60)
	for v := uint64(0); v < 16; v++ {
		edges = append(edges, graph.Edge{Src: graph.Vertex(v), Dst: hub})
		edges = append(edges, graph.Edge{Src: graph.Vertex(v), Dst: graph.Vertex(v + 16)})
	}
	// Give the hub some out-edges so it exists as a source elsewhere.
	edges = append(edges, graph.Edge{Src: hub, Dst: 0})
	parts := buildParts(t, edges, n, 2)
	gt := BuildGhostTable(parts[0], 8)
	if _, ok := gt.Lookup(hub); !ok {
		t.Fatalf("hub %d not ghosted; table = %v", hub, gt.Vertices())
	}
	if gt.Len() > 8 {
		t.Fatalf("table exceeded k: %d", gt.Len())
	}
}

// TestGhostTableLookupExact: the open-addressing index answers exactly like
// the ghost list it was built from — every ghost at its own index, every
// other vertex absent — for table sizes from one ghost to many (probe chains
// and wraparound included).
func TestGhostTableLookupExact(t *testing.T) {
	const n = 1 << 12
	for _, k := range []int{1, 2, 3, 7, 64, 300} {
		// Rank 0 holds sources 0..15, each with an edge to every one of
		// k·2 remote targets spread across rank 1's range, so every target
		// is a candidate and the table fills to k.
		var edges []graph.Edge
		for src := uint64(0); src < 16; src++ {
			for i := uint64(0); i < uint64(2*k); i++ {
				edges = append(edges, graph.Edge{Src: graph.Vertex(src), Dst: graph.Vertex(n/2 + i*7%(n/2))})
			}
		}
		edges = append(edges, graph.Edge{Src: n - 1, Dst: 0})
		parts := buildParts(t, edges, n, 2)
		gt := BuildGhostTable(parts[0], k)
		if gt.Len() != k {
			t.Fatalf("k=%d: table holds %d ghosts", k, gt.Len())
		}
		want := make(map[graph.Vertex]int, k)
		for i, v := range gt.Vertices() {
			want[v] = i
		}
		for v := graph.Vertex(0); v < n; v++ {
			i, ok := gt.Lookup(v)
			wi, wok := want[v]
			if ok != wok || (ok && i != wi) {
				t.Fatalf("k=%d: Lookup(%d) = (%d, %v), want (%d, %v)", k, v, i, ok, wi, wok)
			}
		}
	}
	if _, ok := BuildGhostTable(buildPart(t, []graph.Edge{{Src: 0, Dst: 1}}, 4), 8).Lookup(1); ok {
		t.Fatal("empty table reported a ghost")
	}
}

func TestGhostTableExcludesLocalAndRareTargets(t *testing.T) {
	var edges []graph.Edge
	n := uint64(32)
	// Local target (same rank, p=1): never ghosted.
	for v := uint64(0); v < 8; v++ {
		edges = append(edges, graph.Edge{Src: graph.Vertex(v), Dst: 9})
	}
	part := buildPart(t, edges, n)
	gt := BuildGhostTable(part, 8)
	if gt.Len() != 0 {
		t.Fatalf("single-rank build ghosted local vertices: %v", gt.Vertices())
	}
}

func TestGhostTableRequiresMultiplicity(t *testing.T) {
	// Remote targets seen only once cannot filter anything and must not be
	// selected.
	edges := []graph.Edge{
		{Src: 0, Dst: 30}, {Src: 0, Dst: 31},
		{Src: 1, Dst: 30},
		{Src: 16, Dst: 0}, {Src: 17, Dst: 0},
	}
	parts := buildParts(t, edges, 32, 2)
	gt := BuildGhostTable(parts[0], 8)
	for _, v := range gt.Vertices() {
		if v == 31 {
			t.Fatal("target seen once was ghosted")
		}
	}
}

func TestGhostTableZeroK(t *testing.T) {
	part := buildPart(t, []graph.Edge{{Src: 0, Dst: 1}}, 4)
	if gt := BuildGhostTable(part, 0); gt.Len() != 0 {
		t.Fatal("k=0 produced ghosts")
	}
}

// orderVisitor is a minimal visitor for heap tests.
type orderVisitor struct {
	v    graph.Vertex
	prio uint32
}

func (o orderVisitor) Vertex() graph.Vertex { return o.v }

type orderAlgo struct{ executed []orderVisitor }

func (a *orderAlgo) PreVisit(v orderVisitor) bool { return true }
func (a *orderAlgo) Visit(v orderVisitor, q *Queue[orderVisitor]) {
	a.executed = append(a.executed, v)
}
func (a *orderAlgo) Less(x, y orderVisitor) bool { return x.prio < y.prio }
func (a *orderAlgo) Encode(v orderVisitor, buf []byte) []byte {
	var w [12]byte
	binary.LittleEndian.PutUint64(w[0:], uint64(v.v))
	binary.LittleEndian.PutUint32(w[8:], v.prio)
	return append(buf, w[:]...)
}
func (a *orderAlgo) Decode(buf []byte) orderVisitor {
	return orderVisitor{
		v:    graph.Vertex(binary.LittleEndian.Uint64(buf)),
		prio: binary.LittleEndian.Uint32(buf[8:]),
	}
}

func TestLocalQueueOrdering(t *testing.T) {
	// Push visitors with mixed priorities and verify execution order:
	// priority first, vertex id as tie-break (locality order, §V-A).
	var edges []graph.Edge
	n := uint64(16)
	for v := uint64(0); v < n; v++ {
		edges = append(edges, graph.Edge{Src: graph.Vertex(v), Dst: graph.Vertex((v + 1) % n)})
	}
	algo := &orderAlgo{}
	rt.NewMachine(1).Run(func(r *rt.Rank) {
		part, err := partition.BuildEdgeList(r, edges, n)
		if err != nil {
			panic(err)
		}
		q := NewQueue[orderVisitor](r, part, algo, Config{})
		push := []orderVisitor{
			{v: 9, prio: 1}, {v: 3, prio: 0}, {v: 7, prio: 0},
			{v: 1, prio: 1}, {v: 5, prio: 0},
		}
		for _, v := range push {
			q.Push(v)
		}
		q.Run()
	})
	want := []orderVisitor{
		{v: 3, prio: 0}, {v: 5, prio: 0}, {v: 7, prio: 0},
		{v: 1, prio: 1}, {v: 9, prio: 1},
	}
	if len(algo.executed) != len(want) {
		t.Fatalf("executed %d visitors, want %d", len(algo.executed), len(want))
	}
	for i := range want {
		if algo.executed[i] != want[i] {
			t.Fatalf("execution order %v, want %v", algo.executed, want)
		}
	}
}

func TestLocalQueueOrderingWithoutLocality(t *testing.T) {
	// With locality order disabled, equal priorities may execute in any
	// order, but priority classes must still be respected.
	var edges []graph.Edge
	n := uint64(16)
	for v := uint64(0); v < n; v++ {
		edges = append(edges, graph.Edge{Src: graph.Vertex(v), Dst: graph.Vertex((v + 1) % n)})
	}
	algo := &orderAlgo{}
	rt.NewMachine(1).Run(func(r *rt.Rank) {
		part, err := partition.BuildEdgeList(r, edges, n)
		if err != nil {
			panic(err)
		}
		q := NewQueue[orderVisitor](r, part, algo, Config{DisableLocalityOrder: true})
		for _, v := range []orderVisitor{{v: 9, prio: 2}, {v: 3, prio: 1}, {v: 7, prio: 1}} {
			q.Push(v)
		}
		q.Run()
	})
	if algo.executed[len(algo.executed)-1].prio != 2 {
		t.Fatalf("priority 2 did not execute last: %v", algo.executed)
	}
}

func TestQueueStatsConsistency(t *testing.T) {
	var edges []graph.Edge
	n := uint64(16)
	for v := uint64(0); v < n; v++ {
		edges = append(edges, graph.Edge{Src: graph.Vertex(v), Dst: graph.Vertex((v + 1) % n)})
	}
	algo := &orderAlgo{}
	var stats Stats
	rt.NewMachine(1).Run(func(r *rt.Rank) {
		part, err := partition.BuildEdgeList(r, edges, n)
		if err != nil {
			panic(err)
		}
		q := NewQueue[orderVisitor](r, part, algo, Config{})
		for i := uint64(0); i < 10; i++ {
			q.Push(orderVisitor{v: graph.Vertex(i % n), prio: uint32(i)})
		}
		q.Run()
		stats = q.Stats()
	})
	// One rank masters every vertex: all ten pushes take the local fast path.
	if stats.Pushed != 10 || stats.Local != 10 || stats.Received != 0 || stats.Queued != 10 || stats.Executed != 10 {
		t.Fatalf("stats = %+v", stats)
	}
	if want := stats.Pushed - stats.GhostFiltered - stats.Local + stats.Forwarded; stats.Mailbox.RecordsSent != want {
		t.Fatalf("push accounting: pushed − ghost-filtered − local + forwarded = %d, mailbox sent %d",
			want, stats.Mailbox.RecordsSent)
	}
	if stats.Mailbox.RecordsSent != 0 || stats.Mailbox.RecordsDelivered != 0 {
		t.Fatalf("mailbox stats = %+v", stats.Mailbox)
	}
}

func TestDefaultGhostsConstant(t *testing.T) {
	if DefaultGhostsPerPartition != 256 {
		t.Fatal("paper uses 256 ghosts per partition for all BFS experiments")
	}
}

// backToBackAlgo floods one hop from a seed vertex; used to stress
// consecutive traversals with cross-rank traffic and no barriers between.
type floodAlgo struct {
	part  *partition.Part
	seen  []bool
	round uint32
}

type floodVisitor struct {
	v     graph.Vertex
	round uint32
	hops  uint32
}

func (f floodVisitor) Vertex() graph.Vertex { return f.v }

func (a *floodAlgo) PreVisit(v floodVisitor) bool {
	if v.round != a.round {
		// A visitor from another traversal reached this queue: the phase
		// isolation is broken.
		panic("cross-traversal visitor contamination")
	}
	i, ok := a.part.LocalIndex(v.v)
	if !ok || a.seen[i] {
		return false
	}
	a.seen[i] = true
	return true
}

func (a *floodAlgo) Visit(v floodVisitor, q *Queue[floodVisitor]) {
	if v.hops == 0 {
		return
	}
	for _, t := range q.OutEdges(v.v) {
		q.Push(floodVisitor{v: t, round: v.round, hops: v.hops - 1})
	}
}

func (a *floodAlgo) Less(x, y floodVisitor) bool { return false }

func (a *floodAlgo) Encode(v floodVisitor, buf []byte) []byte {
	var w [16]byte
	binary.LittleEndian.PutUint64(w[0:], uint64(v.v))
	binary.LittleEndian.PutUint32(w[8:], v.round)
	binary.LittleEndian.PutUint32(w[12:], v.hops)
	return append(buf, w[:]...)
}

func (a *floodAlgo) Decode(buf []byte) floodVisitor {
	return floodVisitor{
		v:     graph.Vertex(binary.LittleEndian.Uint64(buf[0:])),
		round: binary.LittleEndian.Uint32(buf[8:]),
		hops:  binary.LittleEndian.Uint32(buf[12:]),
	}
}

func TestConsecutiveTraversalsDoNotContaminate(t *testing.T) {
	// Many back-to-back traversals on one machine with NO explicit barriers
	// between them: Run's end-of-traversal barrier must isolate the phases.
	var edges []graph.Edge
	n := uint64(64)
	for v := uint64(0); v < n; v++ {
		edges = append(edges, graph.Edge{Src: graph.Vertex(v), Dst: graph.Vertex((v + 1) % n)})
		edges = append(edges, graph.Edge{Src: graph.Vertex(v), Dst: graph.Vertex((v + 7) % n)})
	}
	p := 4
	rt.NewMachine(p).Run(func(r *rt.Rank) {
		var local []graph.Edge
		for i, e := range edges {
			if i%p == r.Rank() {
				local = append(local, e)
			}
		}
		part, err := partition.BuildEdgeList(r, local, n)
		if err != nil {
			panic(err)
		}
		for round := uint32(0); round < 20; round++ {
			algo := &floodAlgo{part: part, seen: make([]bool, part.StateLen), round: round}
			q := NewQueue[floodVisitor](r, part, algo, Config{})
			lo, hi := part.Owners.MasterRange(part.Rank)
			for v := lo; v < hi; v++ {
				q.Push(floodVisitor{v: graph.Vertex(v), round: round, hops: 3})
			}
			q.Run()
		}
	})
}
