package core

import (
	"runtime"
	"time"

	"havoqgt/internal/graph"
	"havoqgt/internal/mailbox"
	"havoqgt/internal/obs"
	"havoqgt/internal/partition"
	"havoqgt/internal/rt"
	"havoqgt/internal/termination"
)

// visitBatch bounds how many local visitors execute between mailbox polls,
// so incoming traffic keeps draining while the local queue is deep.
const visitBatch = 256

// Stats counts one rank's visitor-queue activity for a traversal.
type Stats struct {
	Pushed        uint64 // visitors pushed on this rank
	GhostFiltered uint64 // visitors suppressed by the local ghost filter
	Local         uint64 // pushes to a vertex this rank masters (never mailed)
	Received      uint64 // visitors delivered to this rank
	Queued        uint64 // visitors whose PreVisit returned true
	Executed      uint64 // visitors whose Visit ran
	Forwarded     uint64 // visitors forwarded along a replica chain
	Parked        uint64 // visitors parked waiting for an adjacency page
	Unparked      uint64 // parked visitors re-queued after their page arrived
	Mailbox       mailbox.Stats
	DetectorWaves uint64
	// DetectorSent/DetectorReceived are the termination detector's monotone
	// S and R counters at quiescence. The mailbox feeds the detector (one
	// CountSent per Send, one CountReceived per delivery), so after a quiesced
	// traversal they must agree exactly with Mailbox.RecordsSent and
	// Mailbox.RecordsDelivered on every rank — the S−R in-flight gap the
	// four-counter waves watch drain. internal/check asserts this.
	DetectorSent     uint64
	DetectorReceived uint64
}

// Config tunes a Queue.
type Config struct {
	// Topology routes the mailbox; nil selects mailbox.NewDirect.
	Topology mailbox.Topology
	// FlushBytes is the mailbox aggregation threshold (0 = default).
	FlushBytes int
	// Ghosts enables ghost filtering with the given table. The algorithm
	// must implement GhostAlgorithm; otherwise the table is ignored.
	Ghosts *GhostTable
	// LocalityOrder breaks priority ties by vertex identifier to improve
	// page-level locality of CSR reads (§V-A). On by default via NewQueue;
	// set DisableLocalityOrder to ablate.
	DisableLocalityOrder bool
	// DisableBucketOrder forces the binary-heap local scheduler even when the
	// algorithm implements BucketAlgorithm, for every bucketed kernel — the
	// single-priority-queue baseline for delta-stepping ablations
	// (bench-algos "before" numbers).
	DisableBucketOrder bool
	// Reliable runs the mailbox's seq/ack/retransmit protocol under every
	// envelope (mailbox.WithReliable), surviving message drop, duplication,
	// reordering, and corruption injected by a faulty transport. Must be set
	// uniformly across ranks.
	Reliable bool
	// RTOBase/RTOMax bound the reliable layer's retransmission backoff
	// (0 = mailbox defaults). Only meaningful with Reliable.
	RTOBase, RTOMax time.Duration
	// Pager, when non-nil, marks the partition's CSR targets as out-of-core:
	// Step parks visitors whose adjacency pages are absent instead of
	// blocking on the device, and the queue owner must feed Pager.Drain
	// results back through Unpark. Engine mode only.
	Pager RowPager
}

// Queue is one rank's end of the distributed asynchronous visitor queue
// (Algorithm 1). Create one per rank per traversal with NewQueue, push the
// initial visitors, then call Run — or, for the multi-query engine, create
// one per rank per *query* with NewQueueShared over a shared mailbox and
// drive it incrementally with Deliver/Step/PumpTermination.
type Queue[V Visitor] struct {
	rank *rt.Rank
	part *partition.Part
	algo Algorithm[V]

	ghostAlgo GhostAlgorithm[V] // nil when ghosts unused
	ghosts    *GhostTable

	mb  *mailbox.Box
	det *termination.Detector

	tag       uint32 // record tag stamped on every push (query ID; 0 classic)
	shared    bool   // mailbox is shared with other queues (engine mode)
	cancelled bool   // drain without applying (see Cancel)

	heap          []V
	cal           *calendar[V] // non-nil: bucket scheduler replaces the heap
	localityOrder bool
	encBuf        []byte

	// Out-of-core parking (engine mode with cfg.Pager): visitors whose
	// adjacency page missed the cache, keyed by the page they wait for.
	// nParked is maintained alongside so idle checks are O(1).
	pager   RowPager
	parked  map[int64][]V
	nParked int

	stats Stats
	met   queueMetrics
}

// queueMetrics bundles the rank's obs handles for the visitor-queue hot
// paths. Counters accumulate machine-wide (reset via obs.Registry.Reset);
// the Stats struct stays per-Queue for per-traversal reads.
type queueMetrics struct {
	rank          int
	pushed        *obs.PerRank
	ghostFiltered *obs.PerRank
	local         *obs.PerRank
	received      *obs.PerRank
	queued        *obs.PerRank
	executed      *obs.PerRank
	forwarded     *obs.PerRank
	parked        *obs.PerRank
	unparked      *obs.PerRank
	queueDepth    *obs.Histogram
}

func newQueueMetrics(r *rt.Rank) queueMetrics {
	reg, p := r.Obs(), r.Size()
	return queueMetrics{
		rank:          r.Rank(),
		pushed:        reg.PerRank(obs.CorePushed, p),
		ghostFiltered: reg.PerRank(obs.CoreGhostFiltered, p),
		local:         reg.PerRank(obs.CoreLocal, p),
		received:      reg.PerRank(obs.CoreReceived, p),
		queued:        reg.PerRank(obs.CoreQueued, p),
		executed:      reg.PerRank(obs.CoreExecuted, p),
		forwarded:     reg.PerRank(obs.CoreForwarded, p),
		parked:        reg.PerRank(obs.CoreParked, p),
		unparked:      reg.PerRank(obs.CoreUnparked, p),
		queueDepth:    reg.Histogram(obs.CoreQueueDepth),
	}
}

// NewQueue builds the rank's queue over the partitioned graph. Must be
// created collectively (every rank of the machine), since termination
// detection spans all ranks.
func NewQueue[V Visitor](r *rt.Rank, part *partition.Part, algo Algorithm[V], cfg Config) *Queue[V] {
	topo := cfg.Topology
	if topo == nil {
		topo = mailbox.NewDirect(r.Size())
	}
	det := termination.New(r)
	var opts []mailbox.Option
	if cfg.FlushBytes > 0 {
		opts = append(opts, mailbox.WithFlushBytes(cfg.FlushBytes))
	}
	if cfg.Reliable {
		opts = append(opts, mailbox.WithReliable(), mailbox.WithRTO(cfg.RTOBase, cfg.RTOMax))
	}
	q := &Queue[V]{
		rank:          r,
		part:          part,
		algo:          algo,
		mb:            mailbox.New(r, topo, det, opts...),
		det:           det,
		localityOrder: !cfg.DisableLocalityOrder,
		met:           newQueueMetrics(r),
	}
	if cfg.Ghosts != nil && cfg.Ghosts.Len() > 0 {
		if ga, ok := algo.(GhostAlgorithm[V]); ok {
			q.ghostAlgo = ga
			q.ghosts = cfg.Ghosts
		}
	}
	if ba, ok := algo.(BucketAlgorithm[V]); ok && !cfg.DisableBucketOrder {
		q.cal = newCalendar[V](ba)
	}
	return q
}

// NewQueueShared builds a queue for one query of the multi-query engine:
// visitors travel through the caller-owned shared mailbox stamped with tag
// (the query ID), and termination detection runs on the caller-minted
// per-query detector. The caller owns the poll loop — it must route
// delivered records with matching tag into Deliver, drive execution with
// Step, and pump PumpTermination; Run must not be called on a shared queue.
func NewQueueShared[V Visitor](r *rt.Rank, part *partition.Part, algo Algorithm[V],
	cfg Config, mb *mailbox.Box, det *termination.Detector, tag uint32) *Queue[V] {
	q := &Queue[V]{
		rank:          r,
		part:          part,
		algo:          algo,
		mb:            mb,
		det:           det,
		tag:           tag,
		shared:        true,
		localityOrder: !cfg.DisableLocalityOrder,
		pager:         cfg.Pager,
		met:           newQueueMetrics(r),
	}
	if q.pager != nil {
		q.parked = make(map[int64][]V)
	}
	if cfg.Ghosts != nil && cfg.Ghosts.Len() > 0 {
		if ga, ok := algo.(GhostAlgorithm[V]); ok {
			q.ghostAlgo = ga
			q.ghosts = cfg.Ghosts
		}
	}
	if ba, ok := algo.(BucketAlgorithm[V]); ok && !cfg.DisableBucketOrder {
		q.cal = newCalendar[V](ba)
	}
	return q
}

// Part returns the partition this queue traverses.
func (q *Queue[V]) Part() *partition.Part { return q.part }

// Rank returns the underlying simulated rank.
func (q *Queue[V]) Rank() *rt.Rank { return q.rank }

// LocalRow returns the CSR row index for a locally held vertex.
func (q *Queue[V]) LocalRow(v graph.Vertex) int {
	i, ok := q.part.LocalIndex(v)
	if !ok {
		panic("core: visitor delivered to rank without state for its vertex")
	}
	return i
}

// OutEdges returns the local portion of v's adjacency list. The slice is
// valid until the next OutEdges call (external stores reuse a buffer).
func (q *Queue[V]) OutEdges(v graph.Vertex) []graph.Vertex {
	return q.part.CSR.Row(q.LocalRow(v))
}

// Push inserts a visitor into the distributed queue (Algorithm 1, PUSH).
// A visitor whose master partition is this rank is accepted in place — no
// encode, no mailbox, no decode, exactly what delivery would do with it a
// poll later (HavoqGT pre-visits owned vertices the same way). It never
// leaves the rank, so it never touches the termination detector's S/R
// counters; a scheduled visitor keeps the rank non-idle instead. Otherwise
// apply the local ghost filter if ghost information for the vertex is stored
// locally, then transmit the visitor to its master through the routed
// mailbox.
func (q *Queue[V]) Push(v V) {
	q.stats.Pushed++
	q.met.pushed.Inc(q.met.rank)
	dest := q.part.Master(v.Vertex())
	if dest == q.part.Rank {
		q.stats.Local++
		q.met.local.Inc(q.met.rank)
		if !q.cancelled {
			q.accept(v)
		}
		return
	}
	if q.ghostAlgo != nil {
		if gi, ok := q.ghosts.Lookup(v.Vertex()); ok {
			if !q.ghostAlgo.PreVisitGhost(v, gi) {
				q.stats.GhostFiltered++
				q.met.ghostFiltered.Inc(q.met.rank)
				return
			}
		}
	}
	q.encBuf = q.algo.Encode(v, q.encBuf[:0])
	q.mb.SendTagged(dest, q.tag, q.encBuf)
}

// receive handles one delivered record (Algorithm 1, CHECK_MAILBOX body). A
// cancelled queue drains the record without applying it — the delivery was
// already counted toward termination by the mailbox, so the query still
// quiesces, but no new state changes or pushes happen. rec.Payload is valid
// only during this call (mailbox.Record); Algorithm.Decode deserializes into
// a value-typed visitor without retaining it.
func (q *Queue[V]) receive(rec mailbox.Record) {
	q.stats.Received++
	q.met.received.Inc(q.met.rank)
	if q.cancelled {
		return
	}
	q.accept(q.algo.Decode(rec.Payload))
}

// accept applies one visitor that reached this rank, by delivery or by a
// local push: PreVisit against local state; if it proceeds, queue locally
// and forward to the next replica when the vertex's adjacency list
// continues on a later partition.
func (q *Queue[V]) accept(v V) {
	if !q.algo.PreVisit(v) {
		return
	}
	q.stats.Queued++
	q.met.queued.Inc(q.met.rank)
	q.schedPush(v)
	if q.pager != nil {
		// Frontier-composition prefetch: this visitor just joined the local
		// heap, so its adjacency page will be wanted within the next few Step
		// slices — hint the pager now so the read overlaps queued work.
		if i, ok := q.part.LocalIndex(v.Vertex()); ok {
			q.pager.PrefetchRow(i)
		}
	}
	if next, ok := q.part.ShouldForward(v.Vertex()); ok {
		q.stats.Forwarded++
		q.met.forwarded.Inc(q.met.rank)
		q.encBuf = q.algo.Encode(v, q.encBuf[:0])
		q.mb.SendTagged(next, q.tag, q.encBuf)
	}
}

// Deliver routes one record (already demultiplexed by tag) into the queue.
// Engine mode only; the classic Run path consumes its own mailbox. The
// payload is only read during the call.
func (q *Queue[V]) Deliver(rec mailbox.Record) { q.receive(rec) }

// Step executes up to batch locally queued visitors, returning whether any
// work happened. Engine mode's slice of the DO_TRAVERSAL loop: the engine
// interleaves Step calls across all in-flight queries on the rank.
//
// With an out-of-core pager, a popped visitor whose adjacency page is absent
// is parked on that page (the pager has already enqueued the demand fetch)
// and the loop moves on to the next visitor — the visit slot is spent hiding
// device latency behind resident work instead of blocking on it. Parking
// counts as progress: the queue did advance its frontier bookkeeping, and
// reporting false here could let the rank loop sleep while fetches it must
// drain are in flight.
func (q *Queue[V]) Step(batch int) bool {
	if q.schedLen() == 0 {
		return false
	}
	q.met.queueDepth.Observe(uint64(q.schedLen()))
	for i := 0; i < batch && q.schedLen() > 0; i++ {
		v := q.schedPop()
		if q.pager != nil {
			if key, resident := q.pager.RowResident(q.LocalRow(v.Vertex())); !resident {
				q.parked[key] = append(q.parked[key], v)
				q.nParked++
				q.stats.Parked++
				q.met.parked.Inc(q.met.rank)
				continue
			}
		}
		q.stats.Executed++
		q.met.executed.Inc(q.met.rank)
		q.algo.Visit(v, q)
	}
	return true
}

// Unpark runs the visitors parked on the given pages (called by the rank
// loop with a Pager.Drain result) and reports whether any work happened.
// Waiters execute immediately and unconditionally — not via the heap, and
// with no residency re-check. Both halves matter under a tight budget:
// a visitor that round-trips through the heap finds its page evicted by the
// time Step pops it, re-parks, and the traversal degenerates into a
// park/fetch/evict livelock (millions of parks per thousand visits, ranks
// never quiescing); and a re-check at drain time reintroduces the same cycle
// for multi-page rows — park on page p, p arrives pinned, re-park on p+1, p
// is released and evicted before p+1 completes, re-park on p, forever.
// Executing unconditionally bounds every visitor to exactly one park per
// heap pop: the parked page itself is pinned resident from Drain to Release
// (the rank loop's contract with the pager), and any other span page that
// lost the residency race faults synchronously in the serving read path — a
// bounded stall, traded for guaranteed forward progress. PreVisit is not
// re-run: it already mutated per-vertex state at delivery, and running it
// again would drop the visitor (e.g. BFS's "level already set" filter);
// stale visitors are self-pruned by each algorithm's Visit re-check.
func (q *Queue[V]) Unpark(pages []int64) bool {
	if q.nParked == 0 {
		return false
	}
	any := false
	for _, pg := range pages {
		vs, ok := q.parked[pg]
		if !ok {
			continue
		}
		delete(q.parked, pg)
		q.nParked -= len(vs)
		any = true
		for _, v := range vs {
			q.stats.Unparked++
			q.met.unparked.Inc(q.met.rank)
			q.stats.Executed++
			q.met.executed.Inc(q.met.rank)
			q.algo.Visit(v, q)
		}
	}
	return any
}

// LocalIdle reports whether this queue holds no executable local work.
// Parked visitors are pending work — a queue with visits waiting on device
// pages must not report idle, or termination detection could declare
// quiescence with traversal still to do.
func (q *Queue[V]) LocalIdle() bool { return q.schedLen() == 0 && q.nParked == 0 }

// Cancel marks the queue cancelled on this rank: the local visitor heap or
// calendar is discarded and subsequent deliveries are drained without being
// applied. Termination detection still runs to quiescence so the query's
// tagged records fully drain from the message plane before the ID is retired.
func (q *Queue[V]) Cancel() {
	q.cancelled = true
	var zero V
	for i := range q.heap {
		q.heap[i] = zero
	}
	q.heap = q.heap[:0]
	if q.cal != nil {
		q.cal.clear()
	}
	// Parked visitors are dropped too: their demand fetches may still
	// complete, but Unpark on a cancelled queue has nothing to re-queue and
	// the pages simply age out of the cache.
	clear(q.parked)
	q.nParked = 0
}

// Cancelled reports whether Cancel was called on this rank.
func (q *Queue[V]) Cancelled() bool { return q.cancelled }

// PumpTermination drives this query's detector with the caller-computed
// local idle state and returns true at global quiescence, snapshotting the
// detector counters into Stats exactly once. Unlike Run, no end-of-traversal
// barrier is needed: records of other queries cannot be misattributed — the
// tag demultiplexes them — so ranks may retire the query independently.
func (q *Queue[V]) PumpTermination(localIdle bool) bool {
	if !q.det.Pump(localIdle && q.schedLen() == 0 && q.nParked == 0) {
		return false
	}
	q.stats.DetectorWaves = q.det.Waves
	q.stats.DetectorSent = q.det.Sent()
	q.stats.DetectorReceived = q.det.Received()
	return true
}

// Run executes the asynchronous traversal to completion (Algorithm 1,
// DO_TRAVERSAL): drain the mailbox, execute locally queued visitors in
// priority order, and participate in termination detection; returns when the
// distributed queue is globally empty. Initial visitors must have been
// pushed before Run (on whichever ranks create them).
func (q *Queue[V]) Run() {
	idleSpins := 0
	for {
		progress := q.mb.Poll(q.receive) > 0
		if q.schedLen() > 0 {
			// Sample local queue depth once per visit batch.
			q.met.queueDepth.Observe(uint64(q.schedLen()))
		}
		for i := 0; i < visitBatch && q.schedLen() > 0; i++ {
			v := q.schedPop()
			q.stats.Executed++
			q.met.executed.Inc(q.met.rank)
			q.algo.Visit(v, q)
			progress = true
		}
		if progress {
			idleSpins = 0
			// Answer termination waves even while busy; checking for
			// non-termination is asynchronous (§V).
			q.det.Pump(false)
			continue
		}
		// Out of local work: flush aggregation buffers so partial batches
		// cannot stall the traversal, then report idle.
		q.mb.FlushAll()
		idle := q.schedLen() == 0 && q.mb.Idle()
		if q.det.Pump(idle) {
			q.stats.Mailbox = q.mb.Stats()
			q.stats.DetectorWaves = q.det.Waves
			q.stats.DetectorSent = q.det.Sent()
			q.stats.DetectorReceived = q.det.Received()
			// End-of-traversal barrier: no rank may leave Run (and start
			// pushing a *next* traversal's visitors) while another rank
			// could still poll this traversal's mailbox — a record consumed
			// by the wrong queue would unbalance the next traversal's
			// termination counters and hang it.
			q.rank.Barrier()
			return
		}
		idleSpins++
		if idleSpins < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// Stats returns the rank's traversal counters (valid after Run).
func (q *Queue[V]) Stats() Stats { return q.stats }

// --- local scheduler dispatch: calendar of buckets when the algorithm
// implements BucketAlgorithm (delta-stepping SSSP, and the order-free
// kernels with one constant bucket), binary min-heap otherwise.

func (q *Queue[V]) schedPush(v V) {
	if q.cal != nil {
		q.cal.push(v)
		return
	}
	q.heapPush(v)
}

func (q *Queue[V]) schedPop() V {
	if q.cal != nil {
		return q.cal.pop()
	}
	return q.heapPop()
}

func (q *Queue[V]) schedLen() int {
	if q.cal != nil {
		return q.cal.n
	}
	return len(q.heap)
}

const (
	// chunkLen is the visitor capacity of a full calendar chunk. A bucket's
	// first chunk grows by append up to chunkLen; every later chunk is
	// allocated (or recycled) at exactly this size.
	chunkLen = 4096
	// maxFreeChunks bounds the spent full-size chunks a calendar keeps for
	// reuse. Chunks beyond it go to the garbage collector, so a drained
	// multi-million-visitor backlog does not stay resident.
	maxFreeChunks = 64
)

// calendar is the bucket scheduler: visitors land in buckets keyed by
// BucketAlgorithm.Bucket and drain in ascending bucket order, LIFO within a
// bucket. Each bucket is a stack of chunks: only the top chunk is partly
// filled, so push and pop are O(1) with no copying as a bucket grows. The
// small residual heap in order sorts buckets (hundreds at most for SSSP's
// ⌊Dist/Δ⌋, one for the order-free kernels), not visitors (millions).
// Emptied buckets keep their first chunk and are recycled whole, and spent
// full chunks go to a bounded free list, so steady-state operation
// allocates nothing.
type calendar[V Visitor] struct {
	algo    BucketAlgorithm[V]
	buckets map[uint64]*bucket[V]
	order   []*bucket[V] // min-heap by idx of the buckets present
	last    *bucket[V]   // bucket of the previous push (nil after retire)
	spare   []*bucket[V] // emptied buckets for reuse
	free    [][]V        // spent full-size chunks, at most maxFreeChunks
	n       int
}

// bucket is one calendar bucket: a stack of chunks whose top is
// chunks[len(chunks)-1]. Every chunk below the top holds exactly chunkLen
// visitors, and chunks[0] is never released while the bucket lives.
type bucket[V Visitor] struct {
	idx    uint64
	chunks [][]V
}

func newCalendar[V Visitor](algo BucketAlgorithm[V]) *calendar[V] {
	return &calendar[V]{algo: algo, buckets: make(map[uint64]*bucket[V])}
}

func (c *calendar[V]) push(v V) {
	b := c.algo.Bucket(v)
	bk := c.last
	if bk == nil || bk.idx != b {
		bk = c.buckets[b]
		if bk == nil {
			bk = c.open(b)
		}
		c.last = bk
	}
	t := len(bk.chunks) - 1
	if len(bk.chunks[t]) == chunkLen {
		bk.chunks = append(bk.chunks, c.chunk())
		t++
	}
	bk.chunks[t] = append(bk.chunks[t], v)
	c.n++
}

// pop returns a visitor from the lowest-indexed non-empty bucket. Within a
// bucket the drain is LIFO — bucket membership already bounds the priority
// spread to Δ (SSSP) or carries no order at all (one constant bucket), and
// the kernels this serves converge under any within-bucket order; LIFO keeps
// the pop at a slice truncation and the hot end of the stack in cache.
func (c *calendar[V]) pop() V {
	bk := c.order[0]
	t := len(bk.chunks) - 1
	s := bk.chunks[t]
	last := len(s) - 1
	v := s[last]
	var zero V
	s[last] = zero
	bk.chunks[t] = s[:last]
	if last == 0 {
		if t > 0 {
			c.release(s[:0])
			bk.chunks[t] = nil
			bk.chunks = bk.chunks[:t]
		} else {
			c.retire(bk)
		}
	}
	c.n--
	return v
}

// open makes b a present bucket, reusing a spare one when available.
func (c *calendar[V]) open(b uint64) *bucket[V] {
	var bk *bucket[V]
	if f := len(c.spare); f > 0 {
		bk = c.spare[f-1]
		c.spare[f-1] = nil
		c.spare = c.spare[:f-1]
	} else {
		bk = &bucket[V]{chunks: make([][]V, 1)}
	}
	bk.idx = b
	c.buckets[b] = bk
	c.orderPush(bk)
	return bk
}

// retire removes the (empty, lowest) bucket bk and keeps it as a spare.
func (c *calendar[V]) retire(bk *bucket[V]) {
	delete(c.buckets, bk.idx)
	c.orderPop()
	if c.last == bk {
		c.last = nil
	}
	c.spare = append(c.spare, bk)
}

// chunk returns an empty full-size chunk.
func (c *calendar[V]) chunk() []V {
	if f := len(c.free); f > 0 {
		s := c.free[f-1]
		c.free[f-1] = nil
		c.free = c.free[:f-1]
		return s
	}
	return make([]V, 0, chunkLen)
}

// release keeps an empty full-size chunk for reuse, up to maxFreeChunks.
func (c *calendar[V]) release(s []V) {
	if len(c.free) < maxFreeChunks {
		c.free = append(c.free, s)
	}
}

// clear drops every queued visitor, leaving the calendar empty and reusable.
func (c *calendar[V]) clear() {
	for _, bk := range c.order {
		for i, s := range bk.chunks {
			clear(s)
			if i > 0 {
				c.release(s[:0])
				bk.chunks[i] = nil
			}
		}
		bk.chunks[0] = bk.chunks[0][:0]
		bk.chunks = bk.chunks[:1]
		c.spare = append(c.spare, bk)
	}
	clear(c.buckets)
	clear(c.order)
	c.order = c.order[:0]
	c.last = nil
	c.n = 0
}

func (c *calendar[V]) orderPush(bk *bucket[V]) {
	c.order = append(c.order, bk)
	i := len(c.order) - 1
	for i > 0 {
		p := (i - 1) / 2
		if c.order[i].idx >= c.order[p].idx {
			break
		}
		c.order[i], c.order[p] = c.order[p], c.order[i]
		i = p
	}
}

func (c *calendar[V]) orderPop() {
	last := len(c.order) - 1
	c.order[0] = c.order[last]
	c.order[last] = nil
	c.order = c.order[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && c.order[l].idx < c.order[small].idx {
			small = l
		}
		if r < last && c.order[r].idx < c.order[small].idx {
			small = r
		}
		if small == i {
			break
		}
		c.order[i], c.order[small] = c.order[small], c.order[i]
		i = small
	}
}

// --- local min-heap priority queue, ordered by the algorithm's Less with an
// optional vertex-identifier tie-break for external-memory locality (§V-A).

func (q *Queue[V]) less(a, b V) bool {
	if q.algo.Less(a, b) {
		return true
	}
	if q.localityOrder && !q.algo.Less(b, a) {
		return a.Vertex() < b.Vertex()
	}
	return false
}

func (q *Queue[V]) heapPush(v V) {
	q.heap = append(q.heap, v)
	i := len(q.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(q.heap[i], q.heap[p]) {
			break
		}
		q.heap[i], q.heap[p] = q.heap[p], q.heap[i]
		i = p
	}
}

func (q *Queue[V]) heapPop() V {
	top := q.heap[0]
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	var zero V
	q.heap[last] = zero
	q.heap = q.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(q.heap) && q.less(q.heap[l], q.heap[small]) {
			small = l
		}
		if r < len(q.heap) && q.less(q.heap[r], q.heap[small]) {
			small = r
		}
		if small == i {
			break
		}
		q.heap[i], q.heap[small] = q.heap[small], q.heap[i]
		i = small
	}
	return top
}
