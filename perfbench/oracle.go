package main

import (
	"fmt"
	"time"

	"havoqgt"
	"havoqgt/internal/algos/sssp"
	"havoqgt/internal/generators"
	"havoqgt/internal/graph"
	"havoqgt/internal/ref"
)

// answer is the checkable digest of one point query: the hash of its full
// per-vertex array plus the scalar fields a summary response carries.
type answer struct {
	Hash    uint64
	Reached uint64
	Max     uint64 // max level (bfs, bfs_do) or max distance (sssp)
}

// oracle answers every query with the sequential reference implementation
// in internal/ref, over the same edges GenerateRMAT partitions, built the
// way the differential harness builds its references. It runs only outside
// timed regions; refTimes records how long each reference call took, the
// COST baseline.
type oracle struct {
	adj      ref.Adj
	memo     map[query]answer
	refTimes map[string]*samples
}

func newOracle(s graphSpec) *oracle {
	gen := generators.NewGraph500(s.Scale, s.Seed)
	edges := graph.Simplify(graph.Undirect(gen.Generate()))
	return &oracle{
		adj:      ref.BuildAdj(edges, gen.NumVertices()),
		memo:     map[query]answer{},
		refTimes: map[string]*samples{},
	}
}

// connected returns the vertices with at least one edge, in ID order.
func (o *oracle) connected() []havoqgt.Vertex {
	var out []havoqgt.Vertex
	for v, nbrs := range o.adj {
		if len(nbrs) > 0 {
			out = append(out, havoqgt.Vertex(v))
		}
	}
	return out
}

// timed runs one reference call and records its duration under name.
func (o *oracle) timed(name string, fn func()) {
	s := o.refTimes[name]
	if s == nil {
		s = &samples{}
		o.refTimes[name] = s
	}
	t := time.Now()
	fn()
	s.add(time.Since(t))
}

// point returns the reference answer to a bfs, bfs_do or sssp query.
func (o *oracle) point(q query) answer {
	key := q
	if key.Algo == "bfs_do" {
		key.Algo = "bfs" // same levels by contract
	}
	if a, ok := o.memo[key]; ok {
		return a
	}
	var a answer
	switch key.Algo {
	case "bfs":
		var levels []uint32
		o.timed("bfs", func() { levels, _ = ref.BFS(o.adj, q.Source) })
		a = bfsAnswer(levels)
	case "sssp":
		var dist []uint64
		o.timed("sssp", func() {
			dist, _ = ref.Dijkstra(o.adj, q.Source, func(u, v graph.Vertex) uint64 {
				return sssp.Weight(u, v, weightSeed)
			})
		})
		a = ssspAnswer(dist)
	default:
		panic("oracle: not a point query: " + q.Algo)
	}
	o.memo[key] = a
	return a
}

func bfsAnswer(levels []uint32) answer {
	a := answer{Hash: hashU32s(levels)}
	for _, l := range levels {
		if l != havoqgt.Unreached {
			a.Reached++
			if uint64(l) > a.Max {
				a.Max = uint64(l)
			}
		}
	}
	return a
}

func ssspAnswer(dist []uint64) answer {
	a := answer{Hash: hashU64s(dist)}
	for _, d := range dist {
		if d != havoqgt.UnreachedDistance {
			a.Reached++
			if d > a.Max {
				a.Max = d
			}
		}
	}
	return a
}

// resultAnswer digests an engine result of a point query.
func resultAnswer(res *havoqgt.QueryResult) (answer, error) {
	switch {
	case res.BFS != nil:
		return bfsAnswer(res.BFS.Levels), nil
	case res.SSSP != nil:
		return ssspAnswer(res.SSSP.Distances), nil
	}
	return answer{}, fmt.Errorf("not a point-query result")
}

// wholeGraph holds the reference answers to analytics' whole-graph kernels.
type wholeGraph struct {
	labels    []graph.Vertex
	comps     uint64
	inCore    []bool
	ranks     []uint64
	triangles uint64
}

// Parameters of the whole-graph kernels.
const (
	kcoreK        = 16
	pagerankIters = 20
)

func (o *oracle) wholeGraph() wholeGraph {
	var w wholeGraph
	o.timed("cc", func() { w.labels, w.comps = ref.Components(o.adj) })
	o.timed("kcore", func() { w.inCore = ref.KCore(o.adj, kcoreK) })
	o.timed("pagerank", func() { w.ranks = ref.PageRank(o.adj, pagerankIters) })
	o.timed("triangles", func() { w.triangles = ref.CountTriangles(o.adj) })
	return w
}
