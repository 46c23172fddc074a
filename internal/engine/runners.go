package engine

// Per-algorithm runner constructors: each builds the algorithm's rank state
// and a shared-mode visitor queue (core.NewQueueShared) over the engine's
// shared mailbox and the query's detector instance, seeds the traversal's
// initial visitors, and supplies the Finish gather. The embedded Queue
// provides Deliver/Step/LocalIdle/Cancel/Cancelled/PumpTermination/Stats.

import (
	"havoqgt/internal/algos/bfs"
	"havoqgt/internal/algos/cc"
	"havoqgt/internal/algos/kcore"
	"havoqgt/internal/algos/pagerank"
	"havoqgt/internal/algos/sssp"
	"havoqgt/internal/algos/triangle"
	"havoqgt/internal/core"
	"havoqgt/internal/graph"
	"havoqgt/internal/mailbox"
	"havoqgt/internal/partition"
	"havoqgt/internal/rt"
	"havoqgt/internal/termination"
)

// newRunner dispatches on the query's algorithm. Every queue-driven runner
// starts from the same base config — the rank's out-of-core pager and the
// scheduler knob, so DisableBucketOrder means what it means on the classic
// path — and the algorithms that declare ghost usage add the hub table.
func newRunner(r *rt.Rank, part *partition.Part, ghosts *core.GhostTable, pager core.RowPager,
	box *mailbox.Box, det *termination.Detector, q *query, opts Options) runner {
	cfg := core.Config{Pager: pager, DisableBucketOrder: opts.DisableBucketOrder}
	switch q.spec.Algo {
	case AlgoBFS:
		return newBFSRunner(r, part, ghosts, cfg, box, det, q)
	case AlgoSSSP:
		return newSSSPRunner(r, part, ghosts, cfg, box, det, q)
	case AlgoCC:
		return newCCRunner(r, part, ghosts, cfg, box, det, q)
	case AlgoKCore:
		return newKCoreRunner(r, part, cfg, box, det, q)
	case AlgoBFSDO:
		return newDOBFSRunner(part, pager, box, det, q)
	case AlgoPageRank:
		return newPageRankRunner(r, part, cfg, box, det, q)
	case AlgoTriangles:
		return newTriangleRunner(r, part, cfg, box, det, q)
	default:
		panic("engine: unknown algorithm past Submit validation")
	}
}

// gatherInto copies a per-vertex value from this rank's masters into the
// shared global array. Master ranges are disjoint across ranks, and every
// write happens before the rank's ranksDone increment, so waiters observing
// the done channel see a complete array.
func gatherInto[T any](out []T, part *partition.Part, get func(i int) T) {
	lo, hi := part.Owners.MasterRange(part.Rank)
	for v := lo; v < hi; v++ {
		i, _ := part.LocalIndex(graph.Vertex(v))
		out[v] = get(i)
	}
}

// --- BFS ---

type bfsRunner struct {
	*core.Queue[bfs.Visitor]
	st   *bfs.BFS
	part *partition.Part
	q    *query
}

func newBFSRunner(r *rt.Rank, part *partition.Part, ghosts *core.GhostTable, cfg core.Config,
	box *mailbox.Box, det *termination.Detector, q *query) runner {
	st := bfs.New(part)
	cfg.Ghosts = ghosts
	if ghosts != nil {
		st.AttachGhosts(ghosts)
	}
	qu := core.NewQueueShared[bfs.Visitor](r, part, st, cfg, box, det, q.id)
	if cp := q.spec.Resume; cp != nil {
		// Resume: replay the checkpointed frontier onto fresh state. Every
		// reached master re-enters as a visitor carrying its checkpointed
		// level; PreVisit admits it (fresh state is Unreached, and levels are
		// monotone) and Visit re-expands its neighbors, so the traversal
		// continues outward from wherever the cancelled run stopped. The
		// interior is re-offered but immediately pruned by the level test —
		// coarse, but it costs one visitor per reached vertex, not a restart
		// of the whole traversal.
		lo, hi := part.Owners.MasterRange(part.Rank)
		for v := lo; v < hi; v++ {
			if lv := cp.Res.Levels[v]; lv != bfs.Unreached {
				qu.Push(bfs.Visitor{V: graph.Vertex(v), Length: lv, Parent: cp.Res.Parents[v]})
			}
		}
		if part.IsMaster(q.spec.Source) && cp.Res.Levels[q.spec.Source] == bfs.Unreached {
			// Checkpoint from a run cancelled before the source was settled:
			// fall back to a fresh start.
			qu.Push(bfs.Visitor{V: q.spec.Source, Length: 0, Parent: q.spec.Source})
		}
	} else if part.IsMaster(q.spec.Source) {
		qu.Push(bfs.Visitor{V: q.spec.Source, Length: 0, Parent: q.spec.Source})
	}
	return &bfsRunner{Queue: qu, st: st, part: part, q: q}
}

func (rn *bfsRunner) Finish() {
	gatherInto(rn.q.res.Levels, rn.part, func(i int) uint32 { return rn.st.Level[i] })
	gatherInto(rn.q.res.Parents, rn.part, func(i int) graph.Vertex { return rn.st.Parent[i] })
}

// --- SSSP ---

type ssspRunner struct {
	*core.Queue[sssp.Visitor]
	st   *sssp.SSSP
	part *partition.Part
	q    *query
}

func newSSSPRunner(r *rt.Rank, part *partition.Part, ghosts *core.GhostTable, cfg core.Config,
	box *mailbox.Box, det *termination.Detector, q *query) runner {
	st := sssp.New(part, q.spec.WeightSeed)
	cfg.Ghosts = ghosts
	if ghosts != nil {
		st.AttachGhosts(ghosts)
	}
	qu := core.NewQueueShared[sssp.Visitor](r, part, st, cfg, box, det, q.id)
	if cp := q.spec.Resume; cp != nil {
		// Same frontier-replay scheme as BFS, over tentative distances.
		// Distances in the checkpoint are upper bounds that only the relax
		// rule can lower, so replaying them is safe even if the cancelled run
		// had not converged them yet.
		lo, hi := part.Owners.MasterRange(part.Rank)
		for v := lo; v < hi; v++ {
			if d := cp.Res.Dist[v]; d != sssp.Unreached {
				qu.Push(sssp.Visitor{V: graph.Vertex(v), Dist: d, Parent: cp.Res.Parents[v]})
			}
		}
		if part.IsMaster(q.spec.Source) && cp.Res.Dist[q.spec.Source] == sssp.Unreached {
			qu.Push(sssp.Visitor{V: q.spec.Source, Dist: 0, Parent: q.spec.Source})
		}
	} else if part.IsMaster(q.spec.Source) {
		qu.Push(sssp.Visitor{V: q.spec.Source, Dist: 0, Parent: q.spec.Source})
	}
	return &ssspRunner{Queue: qu, st: st, part: part, q: q}
}

func (rn *ssspRunner) Finish() {
	gatherInto(rn.q.res.Dist, rn.part, func(i int) uint64 { return rn.st.Dist[i] })
	gatherInto(rn.q.res.Parents, rn.part, func(i int) graph.Vertex { return rn.st.Parent[i] })
}

// --- Connected components ---

type ccRunner struct {
	*core.Queue[cc.Visitor]
	st   *cc.CC
	part *partition.Part
	q    *query
}

func newCCRunner(r *rt.Rank, part *partition.Part, ghosts *core.GhostTable, cfg core.Config,
	box *mailbox.Box, det *termination.Detector, q *query) runner {
	st := cc.New(part)
	cfg.Ghosts = ghosts
	if ghosts != nil {
		st.AttachGhosts(ghosts)
	}
	qu := core.NewQueueShared[cc.Visitor](r, part, st, cfg, box, det, q.id)
	lo, hi := part.Owners.MasterRange(part.Rank)
	for v := lo; v < hi; v++ {
		lbl := graph.Vertex(v)
		if cp := q.spec.Resume; cp != nil && cp.Res.Labels[v] < lbl {
			// Resume: start each master from its checkpointed label instead
			// of its own id. Labels only decrease toward the component
			// minimum, so any partial label is a valid (better) start.
			lbl = cp.Res.Labels[v]
		}
		qu.Push(cc.Visitor{V: graph.Vertex(v), Label: lbl})
	}
	return &ccRunner{Queue: qu, st: st, part: part, q: q}
}

func (rn *ccRunner) Finish() {
	gatherInto(rn.q.res.Labels, rn.part, func(i int) graph.Vertex { return rn.st.Label[i] })
	// Component count: a master whose label is its own id represents one
	// component. Accumulate atomically instead of AllReduce (see runner doc).
	lo, hi := rn.part.Owners.MasterRange(rn.part.Rank)
	var local uint64
	for v := lo; v < hi; v++ {
		i, _ := rn.part.LocalIndex(graph.Vertex(v))
		if rn.st.Label[i] == graph.Vertex(v) {
			local++
		}
	}
	rn.q.accum.Add(local)
}

// --- K-core ---

type kcoreRunner struct {
	*core.Queue[kcore.Visitor]
	st   *kcore.KCore
	part *partition.Part
	q    *query
}

func newKCoreRunner(r *rt.Rank, part *partition.Part, cfg core.Config,
	box *mailbox.Box, det *termination.Detector, q *query) runner {
	st := kcore.New(part, q.spec.K)
	// K-core needs precise removal counts, so no ghost filtering (§IV-B).
	qu := core.NewQueueShared[kcore.Visitor](r, part, st, cfg, box, det, q.id)
	lo, hi := part.Owners.MasterRange(part.Rank)
	for v := lo; v < hi; v++ {
		qu.Push(kcore.Visitor{V: graph.Vertex(v)})
	}
	return &kcoreRunner{Queue: qu, st: st, part: part, q: q}
}

func (rn *kcoreRunner) Finish() {
	gatherInto(rn.q.res.InCore, rn.part, func(i int) bool { return rn.st.Alive[i] })
	rn.q.accum.Add(rn.st.LocalCoreSize())
}

// --- Direction-optimizing BFS ---

// doBFSRunner adapts the bfs.DO state machine — a counted peer-message
// protocol rather than a visitor queue — to the engine's runner face. Sends
// travel through the shared mailbox under the query's tag, so the rank-level
// flow counter and the per-query detector account for them exactly like
// visitor records; quiescence is reached when every rank has merged the
// empty frontier and all level messages have drained.
type doBFSRunner struct {
	d         *bfs.DO
	det       *termination.Detector
	part      *partition.Part
	q         *query
	cancelled bool
	stats     core.Stats
}

func newDOBFSRunner(part *partition.Part, pager core.RowPager,
	box *mailbox.Box, det *termination.Detector, q *query) runner {
	send := func(dest int, payload []byte) { box.SendTagged(dest, q.id, payload) }
	var hint bfs.RowHinter
	if pager != nil {
		hint = pager // bottom-up unvisited-row scans prefetch through the pager
	}
	d := bfs.NewDO(part, q.spec.Source, send, hint)
	d.Start()
	return &doBFSRunner{d: d, det: det, part: part, q: q}
}

func (rn *doBFSRunner) Deliver(rec mailbox.Record) {
	if rn.cancelled {
		return // drain: delivery already counted, state no longer advances
	}
	rn.d.Handle(rec.Payload)
}

func (rn *doBFSRunner) Step(batch int) bool {
	progress := false
	for i := 0; i < batch && rn.d.TryAdvance(); i++ {
		progress = true
	}
	return progress
}

// Unpark: the DO machine never parks visitors — bottom-up scans hint the
// pager ahead of reads and then fault synchronously on the rare miss.
func (rn *doBFSRunner) Unpark(pages []int64) bool { return false }

func (rn *doBFSRunner) LocalIdle() bool { return rn.cancelled || rn.d.Idle() }

func (rn *doBFSRunner) Cancel() {
	rn.cancelled = true
	rn.d.Abort()
}

func (rn *doBFSRunner) Cancelled() bool { return rn.cancelled }

func (rn *doBFSRunner) PumpTermination(localIdle bool) bool {
	if !rn.det.Pump(localIdle) {
		return false
	}
	rn.stats.DetectorWaves = rn.det.Waves
	rn.stats.DetectorSent = rn.det.Sent()
	rn.stats.DetectorReceived = rn.det.Received()
	return true
}

func (rn *doBFSRunner) Stats() core.Stats { return rn.stats }

func (rn *doBFSRunner) Finish() {
	gatherInto(rn.q.res.Levels, rn.part, func(i int) uint32 { return rn.d.Level[i] })
	gatherInto(rn.q.res.Parents, rn.part, func(i int) graph.Vertex { return rn.d.Parent[i] })
}

// --- PageRank ---

type pagerankRunner struct {
	*core.Queue[pagerank.Visitor]
	st   *pagerank.PR
	part *partition.Part
	q    *query
}

func newPageRankRunner(r *rt.Rank, part *partition.Part, cfg core.Config,
	box *mailbox.Box, det *termination.Detector, q *query) runner {
	st := pagerank.New(part, q.spec.Iters)
	// Counted completion needs every contribution delivered: no ghost
	// filtering (the algorithm declares no ghost hook anyway).
	qu := core.NewQueueShared[pagerank.Visitor](r, part, st, cfg, box, det, q.id)
	st.Seed(qu)
	return &pagerankRunner{Queue: qu, st: st, part: part, q: q}
}

func (rn *pagerankRunner) Finish() {
	gatherInto(rn.q.res.Ranks, rn.part, func(i int) uint64 { return rn.st.Rank[i] })
}

// --- Triangle counting ---

type triangleRunner struct {
	*core.Queue[triangle.Visitor]
	st   *triangle.Triangle
	part *partition.Part
	q    *query
}

func newTriangleRunner(r *rt.Rank, part *partition.Part, cfg core.Config,
	box *mailbox.Box, det *termination.Detector, q *query) runner {
	st := triangle.New(part)
	// Triangle counting needs precise adjacency membership: no ghosts (§VI-C).
	qu := core.NewQueueShared[triangle.Visitor](r, part, st, cfg, box, det, q.id)
	lo, hi := part.Owners.MasterRange(part.Rank)
	for v := lo; v < hi; v++ {
		qu.Push(triangle.Visitor{V: graph.Vertex(v), Second: graph.Nil, Third: graph.Nil})
	}
	return &triangleRunner{Queue: qu, st: st, part: part, q: q}
}

func (rn *triangleRunner) Finish() {
	// The classic path all-reduces local tallies; engine queries quiesce in
	// different orders on different ranks, so accumulate atomically instead.
	var local uint64
	for _, c := range rn.st.Count {
		local += c
	}
	rn.q.accum.Add(local)
}
