package triangle

import (
	"havoqgt/internal/core"
	"havoqgt/internal/graph"
	"havoqgt/internal/partition"
	"havoqgt/internal/rt"
	"havoqgt/internal/xrand"
)

// Options extend the exact counter with the variations §VI-C mentions:
// counting triangles amongst a subset of vertices, per-vertex counts (always
// available via PerVertexCount), and approximate wedge-sampling counting in
// the style of Seshadhri, Pinar & Kolda (reference [13]).
type Options struct {
	// Subset restricts counting to triangles whose three vertices all
	// satisfy the predicate. The predicate must be deterministic and
	// evaluable on every rank (it is applied independently wherever fan-out
	// happens). Nil counts over all vertices.
	Subset func(graph.Vertex) bool

	// SampleProb < 1 enables Bernoulli wedge sampling: each length-2 path
	// spawns its closing-edge search only with this probability, decided by
	// a deterministic hash of the wedge, and Result.Estimate scales the
	// sampled count back up. 0 or 1 means exact counting.
	SampleProb float64
	// SampleSeed keys the wedge hash.
	SampleSeed uint64
}

// sampleWedge decides deterministically whether wedge (a, m, w) is sampled.
func (o Options) sampleWedge(a, m, w graph.Vertex) bool {
	if o.SampleProb <= 0 || o.SampleProb >= 1 {
		return true
	}
	h := xrand.Mix64(uint64(a) ^ xrand.Mix64(uint64(m)^xrand.Mix64(uint64(w)+o.SampleSeed)))
	return float64(h>>11)/(1<<53) < o.SampleProb
}

// optTriangle wraps the exact algorithm with subset and sampling hooks. It
// reuses the base codec, priority (none) and single bucket.
type optTriangle struct {
	*Triangle
	opts Options
}

var _ core.BucketAlgorithm[Visitor] = (*optTriangle)(nil)

func (t *optTriangle) member(v graph.Vertex) bool {
	return t.opts.Subset == nil || t.opts.Subset(v)
}

// Visit performs the three duties with subset filtering and wedge sampling.
func (t *optTriangle) Visit(v Visitor, q *core.Queue[Visitor]) {
	switch {
	case v.Second == graph.Nil: // first visit
		t.forDistinctLarger(v.V, q.OutEdges(v.V), func(vi graph.Vertex) {
			if t.member(vi) {
				q.Push(Visitor{V: vi, Second: v.V, Third: graph.Nil})
			}
		})
	case v.Third == graph.Nil: // length-2 path visit
		t.forDistinctLarger(v.V, q.OutEdges(v.V), func(vi graph.Vertex) {
			if t.member(vi) && t.opts.sampleWedge(v.Second, v.V, vi) {
				q.Push(Visitor{V: vi, Second: v.V, Third: v.Second})
			}
		})
	default: // closing-edge search
		row := q.LocalRow(v.V)
		if t.countsClosing(v.V, v.Third, row) {
			t.Count[row]++
		}
	}
}

// RunOpts counts triangles with the given extensions. The estimate (for
// sampled runs) and raw sampled count are both returned in the Result.
func RunOpts(r *rt.Rank, part *partition.Part, cfg core.Config, opts Options) *Result {
	sp := r.Obs().StartPhase("triangle.run_opts", r.Rank())
	defer sp.End()
	base := New(part)
	algo := &optTriangle{Triangle: base, opts: opts}
	q := core.NewQueue[Visitor](r, part, algo, cfg)
	lo, hi := part.Owners.MasterRange(part.Rank)
	for v := lo; v < hi; v++ {
		if algo.member(graph.Vertex(v)) {
			q.Push(Visitor{V: graph.Vertex(v), Second: graph.Nil, Third: graph.Nil})
		}
	}
	q.Run()
	var local uint64
	for _, c := range base.Count {
		local += c
	}
	res := &Result{Triangle: base, Stats: q.Stats(), GlobalCount: r.AllReduceU64(local, rt.Sum)}
	res.sampleProb = opts.SampleProb
	return res
}

// Estimate returns the (possibly scaled) triangle-count estimate: exact runs
// return GlobalCount, sampled runs scale by 1/SampleProb.
func (r *Result) Estimate() float64 {
	if r.sampleProb <= 0 || r.sampleProb >= 1 {
		return float64(r.GlobalCount)
	}
	return float64(r.GlobalCount) / r.sampleProb
}

// PerVertexCount returns the number of triangles attributed to a locally
// held vertex (triangles are attributed to their largest member, possibly
// spread over the replicas of a split vertex; sum over ranks for the exact
// per-vertex total).
func (t *Triangle) PerVertexCount(v graph.Vertex) uint64 {
	i, ok := t.part.LocalIndex(v)
	if !ok {
		return 0
	}
	return t.Count[i]
}
