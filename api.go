// Package havoqgt is the high-level facade over the distributed asynchronous
// graph framework: build (or generate) a graph once, partitioned with the
// paper's edge list partitioning across a simulated distributed machine, and
// run BFS (top-down or direction-optimizing), SSSP, connected components,
// k-core decomposition, PageRank, and triangle counting against it with
// single calls.
//
//	g, _ := havoqgt.GenerateRMAT(16, 42, havoqgt.Options{Ranks: 8})
//	bfs, _ := g.BFS(0)
//	fmt.Println(bfs.MaxLevel, bfs.Levels[17])
//
// The facade gathers distributed results into global arrays, which is
// convenient up to tens of millions of vertices. For full control (per-rank
// state, custom visitors, NVRAM-backed storage, validation) use the
// internal packages directly the way cmd/ and examples/ do.
package havoqgt

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"havoqgt/internal/algos/bfs"
	"havoqgt/internal/algos/cc"
	"havoqgt/internal/algos/kcore"
	"havoqgt/internal/algos/pagerank"
	"havoqgt/internal/algos/sssp"
	"havoqgt/internal/algos/triangle"
	"havoqgt/internal/core"
	"havoqgt/internal/generators"
	"havoqgt/internal/graph"
	"havoqgt/internal/mailbox"
	"havoqgt/internal/ooc"
	"havoqgt/internal/partition"
	"havoqgt/internal/rt"
)

// Edge is a directed edge; store both directions (or set Options.Undirect)
// for undirected semantics.
type Edge = graph.Edge

// Vertex is a vertex identifier in [0, NumVertices).
type Vertex = graph.Vertex

// Nil is the "no vertex" sentinel used for unreached parents.
const Nil = graph.Nil

// Unreached is the BFS level of vertices the traversal did not reach.
const Unreached = bfs.Unreached

// MaxPageRankIters bounds a single PageRank query's iteration count.
const MaxPageRankIters = pagerank.MaxIters

// DefaultPageRankIters is the iteration count a PageRank query with iters = 0
// actually runs.
const DefaultPageRankIters = pagerank.DefaultIters

// Options configure the simulated machine and framework features.
type Options struct {
	// Ranks is the number of simulated distributed ranks (default 4).
	Ranks int
	// Topology routes the visitor mailbox: "1d" (direct, default), "2d", "3d".
	Topology string
	// GhostsPerPartition sets the hub-filter table size for algorithms that
	// declare ghost usage (BFS, SSSP, CC). Default 256, the paper's value;
	// set negative to disable.
	GhostsPerPartition int
	// Undirect stores both directions of every input edge.
	Undirect bool
	// Simplify removes self loops and duplicate edges globally (required
	// for k-core and triangle counting; applied automatically if unset only
	// when those algorithms run would be unsafe — set it explicitly when
	// your input has duplicates).
	Simplify bool
	// DisableBucketOrder forces every bucketed kernel's local scheduler back
	// onto the binary heap even though the algorithm declares bucketed
	// ordering (delta-stepping SSSP; one constant bucket for k-core,
	// PageRank and triangle counting). A benchmarking knob: results are
	// identical either way, only the schedule differs. Applies to both
	// classic traversals and an attached engine.
	DisableBucketOrder bool
}

func (o Options) normalized() Options {
	if o.Ranks <= 0 {
		o.Ranks = 4
	}
	if o.Topology == "" {
		o.Topology = "1d"
	}
	if o.GhostsPerPartition == 0 {
		o.GhostsPerPartition = core.DefaultGhostsPerPartition
	}
	return o
}

// Graph is a partitioned graph bound to a simulated machine. Build once,
// query many times. All query methods are safe for concurrent use: classic
// (machine-exclusive) traversals serialize on an internal mutex, and while a
// multi-query Engine is attached (StartEngine) the traversal methods route
// through it instead — bypassing the mutex — so concurrent callers genuinely
// interleave.
type Graph struct {
	opts    Options
	n       uint64
	machine *rt.Machine
	parts   []*partition.Part
	ghosts  []*core.GhostTable

	// mu serializes machine phases. A rt.Machine runs one collective phase
	// at a time; two goroutines calling Run concurrently would interleave
	// two traversals' untagged records on the same message plane and corrupt
	// both (the data race this lock fixes). eng, when non-nil, redirects
	// traversal methods to the multi-query engine.
	mu  sync.Mutex
	eng *Engine

	// stores, when non-nil, hold each rank's out-of-core adjacency backing
	// (SetMemoryBudget). Indexed like parts.
	stores []*ooc.Store

	// version is the graph's monotone snapshot version, starting at 1.
	// Today the partitioned graph is immutable, so the version only moves
	// when BumpVersion is called explicitly; the streaming-ingest path
	// (ROADMAP item 4) will bump it on every compacted snapshot swap. The
	// serving layer keys its result cache on this value, so a bump
	// invalidates every cached answer.
	version atomic.Uint64
}

// runExclusive executes one collective machine phase under the graph lock.
// Fails if an engine currently owns the machine (the caller should have been
// routed to it; only engine-incapable operations like sampled triangle
// estimation see the error).
func (g *Graph) runExclusive(fn func(r *rt.Rank)) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.eng != nil {
		return fmt.Errorf("havoqgt: operation unavailable while a query engine is attached (close it first)")
	}
	g.machine.Run(fn)
	return nil
}

// engineOrNil returns the attached engine, if any.
func (g *Graph) engineOrNil() *Engine {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.eng
}

// NewGraph partitions the given edge list across a fresh simulated machine.
func NewGraph(edges []Edge, numVertices uint64, opts Options) (*Graph, error) {
	opts = opts.normalized()
	if opts.Undirect {
		edges = graph.Undirect(edges)
	}
	chunk := func(rank, size int) []Edge {
		var local []Edge
		for i, e := range edges {
			if i%size == rank {
				local = append(local, e)
			}
		}
		return local
	}
	return build(chunk, numVertices, opts)
}

// GenerateRMAT builds a Graph500-parameter RMAT graph of the given scale,
// stored undirected.
func GenerateRMAT(scale uint, seed uint64, opts Options) (*Graph, error) {
	opts = opts.normalized()
	g := generators.NewGraph500(scale, seed)
	return build(func(rank, size int) []Edge {
		return graph.Undirect(g.GenerateChunk(rank, size))
	}, g.NumVertices(), opts)
}

// build runs the collective construction.
func build(chunk func(rank, size int) []Edge, n uint64, opts Options) (*Graph, error) {
	if _, err := mailbox.ByName(opts.Topology, opts.Ranks); err != nil {
		return nil, err
	}
	g := &Graph{
		opts:    opts,
		n:       n,
		machine: rt.NewMachine(opts.Ranks),
		parts:   make([]*partition.Part, opts.Ranks),
		ghosts:  make([]*core.GhostTable, opts.Ranks),
	}
	errs := make([]error, opts.Ranks)
	g.machine.Run(func(r *rt.Rank) {
		local := chunk(r.Rank(), r.Size())
		var part *partition.Part
		var err error
		if opts.Simplify {
			part, err = partition.BuildEdgeListSimple(r, local, n)
		} else {
			part, err = partition.BuildEdgeList(r, local, n)
		}
		if err != nil {
			errs[r.Rank()] = err
			return
		}
		g.parts[r.Rank()] = part
		if opts.GhostsPerPartition > 0 {
			g.ghosts[r.Rank()] = core.BuildGhostTable(part, opts.GhostsPerPartition)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	g.version.Store(1)
	return g, nil
}

// Version returns the graph's current snapshot version (1 for a freshly
// built graph). Result caches key on it: answers computed at version v are
// valid exactly while Version() == v.
func (g *Graph) Version() uint64 { return g.version.Load() }

// BumpVersion advances the snapshot version and returns the new value. This
// is the invalidation hook for mutation paths (streaming ingest, snapshot
// swap — ROADMAP item 4): bump after the new snapshot is visible and every
// version-keyed cache entry from before it becomes stale atomically.
func (g *Graph) BumpVersion() uint64 { return g.version.Add(1) }

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() uint64 { return g.n }

// NumEdges returns the number of stored directed edges.
func (g *Graph) NumEdges() uint64 { return g.parts[0].GlobalEdges }

// Ranks returns the simulated rank count.
func (g *Graph) Ranks() int { return g.opts.Ranks }

// SetSimLatency configures a simulated interconnect latency: every
// rank-to-rank message takes at least d of wall-clock time to become
// visible at its destination, emulating the network / external-memory
// transfer costs a real distributed machine pays. By default the simulated
// transport is instantaneous, which flatters serialized one-query-at-a-time
// execution — there is no latency for the asynchronous framework to hide.
// Takes effect for messages sent after the call; safe for concurrent use.
func (g *Graph) SetSimLatency(d time.Duration) { g.machine.SetSimLatency(d) }

// Degree returns the (stored, directed) degree of a vertex.
func (g *Graph) Degree(v Vertex) (uint64, error) {
	if uint64(v) >= g.n {
		return 0, fmt.Errorf("havoqgt: vertex %d out of range", v)
	}
	owner := g.parts[0].Master(v)
	return g.parts[owner].GlobalDegree(v), nil
}

// cfg assembles a rank's visitor-queue config; ghost tables only for
// algorithms that declare ghost usage.
func (g *Graph) cfg(rank int, useGhosts bool) core.Config {
	topo, _ := mailbox.ByName(g.opts.Topology, g.opts.Ranks)
	c := core.Config{Topology: topo, DisableBucketOrder: g.opts.DisableBucketOrder}
	if useGhosts {
		c.Ghosts = g.ghosts[rank]
	}
	return c
}

// gather copies a per-vertex value from each master into a global array.
func gather[T any](out []T, part *partition.Part, get func(i int) T) {
	lo, hi := part.Owners.MasterRange(part.Rank)
	for v := lo; v < hi; v++ {
		i, _ := part.LocalIndex(graph.Vertex(v))
		out[v] = get(i)
	}
}

// BFSResult holds a breadth-first search over the whole graph.
type BFSResult struct {
	Source   Vertex
	Levels   []uint32 // Unreached where not reached
	Parents  []Vertex // Nil where not reached
	MaxLevel uint32
	Reached  uint64
}

// BFS runs the distributed asynchronous BFS from source. Safe for concurrent
// use; with an attached engine, concurrent calls interleave as independent
// queries.
func (g *Graph) BFS(source Vertex) (*BFSResult, error) {
	if uint64(source) >= g.n {
		return nil, fmt.Errorf("havoqgt: source %d out of range", source)
	}
	if e := g.engineOrNil(); e != nil {
		q, err := e.SubmitBFS(source)
		if err != nil {
			return nil, err
		}
		return q.waitBFS()
	}
	out := &BFSResult{
		Source:  source,
		Levels:  make([]uint32, g.n),
		Parents: make([]Vertex, g.n),
	}
	err := g.runExclusive(func(r *rt.Rank) {
		part := g.parts[r.Rank()]
		res := bfs.Run(r, part, source, g.cfg(r.Rank(), true))
		gather(out.Levels, part, func(i int) uint32 { return res.Level[i] })
		gather(out.Parents, part, func(i int) Vertex { return res.Parent[i] })
	})
	if err != nil {
		return nil, err
	}
	finishBFSResult(out)
	return out, nil
}

// BFSDirOpt runs the direction-optimizing BFS from source: top-down sparse
// phases switch to bottom-up dense-bitmap scans when the frontier grows past
// the Beamer heuristic thresholds, and back once it shrinks. Levels and
// parent validity are bit-identical to BFS; only the traversal schedule (and
// on low-diameter scale-free graphs, the edge examination count) differs.
// Safe for concurrent use; with an attached engine, routes through it.
func (g *Graph) BFSDirOpt(source Vertex) (*BFSResult, error) {
	if uint64(source) >= g.n {
		return nil, fmt.Errorf("havoqgt: source %d out of range", source)
	}
	if e := g.engineOrNil(); e != nil {
		q, err := e.SubmitBFSDO(source)
		if err != nil {
			return nil, err
		}
		return q.waitBFS()
	}
	out := &BFSResult{
		Source:  source,
		Levels:  make([]uint32, g.n),
		Parents: make([]Vertex, g.n),
	}
	err := g.runExclusive(func(r *rt.Rank) {
		part := g.parts[r.Rank()]
		res := bfs.RunDO(r, part, source, g.cfg(r.Rank(), false))
		gather(out.Levels, part, func(i int) uint32 { return res.Level[i] })
		gather(out.Parents, part, func(i int) Vertex { return res.Parent[i] })
	})
	if err != nil {
		return nil, err
	}
	finishBFSResult(out)
	return out, nil
}

// finishBFSResult derives the scalar summary fields from the level array.
func finishBFSResult(out *BFSResult) {
	for _, l := range out.Levels {
		if l != Unreached {
			out.Reached++
			if l > out.MaxLevel {
				out.MaxLevel = l
			}
		}
	}
}

// SSSPResult holds single-source shortest paths under the synthesized
// deterministic edge weights (see sssp.Weight).
type SSSPResult struct {
	Source    Vertex
	Distances []uint64 // sssp.Unreached where not reached
	Parents   []Vertex
}

// UnreachedDistance is the distance of vertices SSSP did not reach.
const UnreachedDistance = sssp.Unreached

// ShortestPaths runs distributed SSSP from source with weights keyed by
// weightSeed. Safe for concurrent use.
func (g *Graph) ShortestPaths(source Vertex, weightSeed uint64) (*SSSPResult, error) {
	if uint64(source) >= g.n {
		return nil, fmt.Errorf("havoqgt: source %d out of range", source)
	}
	if e := g.engineOrNil(); e != nil {
		q, err := e.SubmitSSSP(source, weightSeed)
		if err != nil {
			return nil, err
		}
		return q.waitSSSP()
	}
	out := &SSSPResult{
		Source:    source,
		Distances: make([]uint64, g.n),
		Parents:   make([]Vertex, g.n),
	}
	err := g.runExclusive(func(r *rt.Rank) {
		part := g.parts[r.Rank()]
		res := sssp.Run(r, part, source, weightSeed, g.cfg(r.Rank(), true))
		gather(out.Distances, part, func(i int) uint64 { return res.Dist[i] })
		gather(out.Parents, part, func(i int) Vertex { return res.Parent[i] })
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ComponentsResult labels every vertex with the smallest vertex id in its
// connected component.
type ComponentsResult struct {
	Labels []Vertex
	Count  uint64
}

// Components runs distributed connected components. Safe for concurrent use.
func (g *Graph) Components() (*ComponentsResult, error) {
	if e := g.engineOrNil(); e != nil {
		q, err := e.SubmitComponents()
		if err != nil {
			return nil, err
		}
		return q.waitComponents()
	}
	out := &ComponentsResult{Labels: make([]Vertex, g.n)}
	counts := make([]uint64, g.opts.Ranks)
	err := g.runExclusive(func(r *rt.Rank) {
		part := g.parts[r.Rank()]
		res := cc.Run(r, part, g.cfg(r.Rank(), true))
		gather(out.Labels, part, func(i int) Vertex { return res.Label[i] })
		counts[r.Rank()] = cc.NumComponents(r, res)
	})
	if err != nil {
		return nil, err
	}
	out.Count = counts[0]
	return out, nil
}

// KCoreResult holds a k-core membership query.
type KCoreResult struct {
	K        uint32
	InCore   []bool
	CoreSize uint64
}

// KCore computes the k-core. The graph must be simple (set Options.Simplify
// when building from inputs with duplicates or self loops).
func (g *Graph) KCore(k uint32) (*KCoreResult, error) {
	if k < 1 {
		return nil, fmt.Errorf("havoqgt: k must be >= 1")
	}
	if e := g.engineOrNil(); e != nil {
		q, err := e.SubmitKCore(k)
		if err != nil {
			return nil, err
		}
		return q.waitKCore()
	}
	out := &KCoreResult{K: k, InCore: make([]bool, g.n)}
	sizes := make([]uint64, g.opts.Ranks)
	err := g.runExclusive(func(r *rt.Rank) {
		part := g.parts[r.Rank()]
		res := kcore.Run(r, part, k, g.cfg(r.Rank(), false))
		gather(out.InCore, part, func(i int) bool { return res.Alive[i] })
		sizes[r.Rank()] = kcore.GlobalCoreSize(r, res)
	})
	if err != nil {
		return nil, err
	}
	out.CoreSize = sizes[0]
	return out, nil
}

// PageRankResult holds fixed-point PageRank scores scaled by
// ref.PRScale (2^40); Ranks[v] / float64(1<<40) recovers the usual
// probability. The fixed-point arithmetic makes the output bit-identical
// across rank counts, topologies, and schedules.
type PageRankResult struct {
	Iters uint32
	Ranks []uint64
}

// PageRank runs the given number of damped PageRank iterations (0 = the
// default count). Safe for concurrent use; routes through an attached engine.
func (g *Graph) PageRank(iters uint32) (*PageRankResult, error) {
	if iters > pagerank.MaxIters {
		return nil, fmt.Errorf("havoqgt: pagerank iters %d exceeds max %d", iters, pagerank.MaxIters)
	}
	if e := g.engineOrNil(); e != nil {
		q, err := e.SubmitPageRank(iters)
		if err != nil {
			return nil, err
		}
		return q.waitPageRank()
	}
	effective := iters
	if effective == 0 {
		effective = pagerank.DefaultIters
	}
	out := &PageRankResult{Iters: effective, Ranks: make([]uint64, g.n)}
	err := g.runExclusive(func(r *rt.Rank) {
		part := g.parts[r.Rank()]
		res := pagerank.Run(r, part, iters, g.cfg(r.Rank(), false))
		gather(out.Ranks, part, func(i int) uint64 { return res.Rank[i] })
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// TrianglesResult holds an exact triangle count.
type TrianglesResult struct {
	Count uint64
}

// CountTriangles counts triangles exactly. Duplicate edges and self loops are
// ignored, so the graph need not be simplified. Safe for concurrent use;
// routes through an attached engine.
func (g *Graph) CountTriangles() (uint64, error) {
	if e := g.engineOrNil(); e != nil {
		q, err := e.SubmitTriangles()
		if err != nil {
			return 0, err
		}
		r, err := q.waitTriangles()
		if err != nil {
			return 0, err
		}
		return r.Count, nil
	}
	counts := make([]uint64, g.opts.Ranks)
	err := g.runExclusive(func(r *rt.Rank) {
		res := triangle.Run(r, g.parts[r.Rank()], g.cfg(r.Rank(), false))
		counts[r.Rank()] = res.GlobalCount
	})
	if err != nil {
		return 0, err
	}
	return counts[0], nil
}

// EstimateTriangles approximates the triangle count by Bernoulli wedge
// sampling with the given probability (0 < p < 1). The graph must be simple.
func (g *Graph) EstimateTriangles(sampleProb float64, seed uint64) (float64, error) {
	if sampleProb <= 0 || sampleProb >= 1 {
		return 0, fmt.Errorf("havoqgt: sample probability must be in (0, 1)")
	}
	ests := make([]float64, g.opts.Ranks)
	err := g.runExclusive(func(r *rt.Rank) {
		res := triangle.RunOpts(r, g.parts[r.Rank()], g.cfg(r.Rank(), false),
			triangle.Options{SampleProb: sampleProb, SampleSeed: seed})
		ests[r.Rank()] = res.Estimate()
	})
	if err != nil {
		return 0, err
	}
	return ests[0], nil
}
