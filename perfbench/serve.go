package main

import (
	"runtime"
	"sort"
	"time"

	"havoqgt"
	"havoqgt/internal/obs"
	"havoqgt/internal/xrand"
)

// Serving workloads: one closed-loop client goroutine keeps this many
// queries outstanding on the in-process engine, the engine's default
// MaxInFlight, so admission interleaves without queueing.
const serveOutstanding = 8

// setupRepeats is how many times a pass sets up its system under test;
// setup_s is the median, and the last set-up is the one measured.
const setupRepeats = 7

// The serving workloads complete a fixed number of queries,
// servePerSecond per second of the window and at least serveMinQueries, so
// the 90th percentile always has ten samples beyond it. Fixed work, not a
// fixed time: the engine keeps every completed query's result reachable
// through its append-only control log, so the peak RSS grows with the
// queries served, and a time-bounded loop would read a throughput gain as
// an RSS regression. serve_ooc does about 11 queries per second on the
// reference host; serve_uniform, about 17, finishes sooner.
const (
	servePerSecond  = 12
	serveMinQueries = 120
)

// hashPrefix is how many leading stream positions the result hash covers:
// every run completes them, so the hash depends on the seed alone.
const hashPrefix = 16

// served is one query of a closed loop.
type served struct {
	idx                     int
	q                       query
	h                       *havoqgt.Query // nil once Wait has returned
	submit, submitted, done time.Time
	end                     time.Time // Wait returned
	ans                     answer
	err                     error
}

func (s *served) latency() time.Duration { return s.end.Sub(s.submit) }

// closedLoop submits the first total queries of stream to e, keeping
// outstanding of them in flight, and waits for all of them. It returns them
// in completion order, with the measured window: from the first submission
// to the last completion.
func closedLoop(e *havoqgt.Engine, stream func(i int) query, total, outstanding int) (out []*served, start, end time.Time) {
	type doneMsg struct {
		s  *served
		at time.Time
	}
	done := make(chan doneMsg, outstanding)
	inflight, next := 0, 0
	submit := func() {
		s := &served{idx: next, q: stream(next)}
		next++
		s.submit = time.Now()
		s.h, s.err = e.SubmitQuery(havoqgt.QuerySpec{Algo: s.q.Algo, Source: s.q.Source, WeightSeed: weightSeed})
		s.submitted = time.Now()
		if s.err != nil {
			s.done, s.end = s.submitted, s.submitted
			out = append(out, s)
			return
		}
		inflight++
		go func() {
			<-s.h.Done()
			done <- doneMsg{s, time.Now()}
		}()
	}
	start = time.Now()
	for next < min(outstanding, total) {
		submit()
	}
	for inflight > 0 {
		m := <-done
		inflight--
		s := m.s
		s.done = m.at
		res, err := s.h.Wait()
		s.end = time.Now()
		if err == nil {
			s.ans, err = resultAnswer(res)
		}
		s.err = err
		// Keep only the digest: the handle reaches the result arrays.
		s.h = nil
		out = append(out, s)
		for inflight < outstanding && next < total {
			submit()
		}
	}
	return out, start, time.Now()
}

// servePass is one set-up and measured window of a serving workload.
type servePass struct {
	g *havoqgt.Graph
	e *havoqgt.Engine
}

// close stops the engine and the pager workers of an out-of-core budget.
func (p *servePass) close() error {
	err := p.e.Close()
	if rerr := p.g.ResetMemoryBudget(); err == nil {
		err = rerr
	}
	return err
}

// setUpServe builds the graph, optionally moves its adjacency out of core
// and attaches the engine, setupRepeats times; the last instance stays up.
func setUpServe(spec graphSpec, rep *report, tr *tracer, ooc bool) (*servePass, error) {
	var setup, graphS, engineS, extS samples
	var p *servePass
	for i := 0; i < setupRepeats; i++ {
		if p != nil {
			if err := p.close(); err != nil {
				return nil, err
			}
			p = nil
			runtime.GC() // discarded set-ups must not raise the peak RSS
		}
		t0 := time.Now()
		g, err := spec.build()
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		if ooc {
			// The default simulated NVRAM: 25 µs reads, queue depth 64.
			if err := g.SetMemoryBudget(havoqgt.MemoryConfig{ResidentFraction: 1.0 / 8}); err != nil {
				return nil, err
			}
		}
		t2 := time.Now()
		e, err := g.StartEngine(havoqgt.EngineOptions{MaxInFlight: serveOutstanding})
		if err != nil {
			return nil, err
		}
		t3 := time.Now()
		p = &servePass{g: g, e: e}
		setup.add(t3.Sub(t0))
		graphS.add(t1.Sub(t0))
		extS.add(t2.Sub(t1))
		engineS.add(t3.Sub(t2))
		tr.record("setup", i, "", t0, t3, "")
	}
	rep.timing("setup_s", setup.median()/1e3, len(setup))
	rep.timing("setup.graph_s", graphS.median()/1e3, len(graphS))
	rep.timing("setup.externalize_s", extS.median()/1e3, len(extS))
	rep.timing("setup.engine_s", engineS.median()/1e3, len(engineS))
	rep.edges = p.g.NumEdges()
	return p, nil
}

// runServe is serve_uniform (ooc false) and serve_ooc (ooc true): the same
// seeded uniform query stream, in DRAM or with 1/8 of the adjacency
// resident behind the page cache.
func runServe(rc *runConfig, tr *tracer, ooc bool) (*report, error) {
	rep := newReport()
	p, err := setUpServe(rc.spec, rep, tr, ooc)
	if err != nil {
		return nil, err
	}
	defer p.close()
	orc := rc.ref()
	n := p.g.NumVertices()
	stream := uniformStream{seed: rc.seed, salt: saltUniform, n: n}
	warm := uniformStream{seed: rc.seed, salt: saltWarmup, n: n}

	// Warm-up: one loop's worth of queries from a separate stream, so lazy
	// set-up and the page cache's first fill are not timed.
	closedLoop(p.e, warm.at, serveOutstanding, serveOutstanding)
	runtime.GC()

	reg := p.e.Metrics()
	var before counters
	var mem havoqgt.MemoryStats
	var trav havoqgt.TraversalCounters
	var gauges *gaugeSampler
	var proc *procStats
	if tr != nil {
		before, mem, trav = readCounters(reg), p.g.MemoryStats(), p.g.TraversalCounters()
		inFlight, waiting := reg.Gauge(obs.EngineInFlight), reg.Gauge(obs.EngineWaiting)
		gauges = startGauges(5*time.Millisecond, func() (float64, float64, bool) {
			return float64(inFlight.Value()), float64(waiting.Value()), true
		})
		proc = startProc()
	}
	total := max(serveMinQueries, int(rc.window.Seconds()*servePerSecond))
	done, start, end := closedLoop(p.e, stream.at, total, serveOutstanding)
	if tr != nil {
		gauges.finish(rep.metrics)
		proc.finish(rep.metrics)
		after := readCounters(reg)
		completed := delta(before, after, obs.EngineCompleted)
		machineLayers(rep.metrics, before, after, completed)
		oocLayers(rep.metrics, mem, p.g.MemoryStats(), trav, p.g.TraversalCounters(), completed)
	}

	// Everything below is outside the measured window.
	var calls []call
	sort.Slice(done, func(i, j int) bool { return done[i].idx < done[j].idx })
	for _, s := range done {
		rep.attempted++
		if s.err != nil {
			rep.mismatch("%v: %v", s.q, s.err)
			continue
		}
		if want := orc.point(s.q); s.ans != want {
			rep.mismatch("%v: answer %+v, reference %+v", s.q, s.ans, want)
			continue
		}
		if s.idx < hashPrefix {
			rep.hash += xrand.Mix64(uint64(s.idx)<<32 ^ s.ans.Hash)
		}
		calls = append(calls, call{algo: s.q.Algo, lat: s.latency()})
		if tr != nil {
			deg, _ := p.g.Degree(s.q.Source)
			attr := s.q.Algo
			if deg == 0 {
				attr = "trivial"
			}
			tr.record("query", s.idx, "", s.submit, s.end, attr)
			tr.record("engine.submit", s.idx, "query", s.submit, s.submitted, attr)
			tr.record("engine.run", s.idx, "query", s.submit, s.done, attr)
			tr.record("engine.gather", s.idx, "query", s.done, s.end, attr)
		}
	}
	endToEnd(rep, calls, end.Sub(start))
	if tr != nil {
		engineSpans(rep, tr)
	}
	return rep, nil
}

// engineSpans derives the engine layer's timings from a traced pass.
func engineSpans(rep *report, tr *tracer) {
	is := func(want string) func(string) bool { return func(a string) bool { return a == want } }
	sub := tr.durations("engine.submit", nil)
	rep.timing("engine.submit_p50_us", sub.median()*1e3, len(sub))
	for _, algo := range serveAlgos {
		s := tr.durations("engine.run", is(algo))
		rep.timing("engine."+algo+"_p50_ms", s.median(), len(s))
	}
	triv := tr.durations("engine.run", is("trivial"))
	rep.timing("engine.trivial_p50_ms", triv.median(), len(triv))
	g := tr.durations("engine.gather", nil)
	rep.timing("engine.gather_p50_ms", g.median(), len(g))
}

// oocLayers derives the page cache, pager and parking metrics, per query.
func oocLayers(m map[string]float64, mb, ma havoqgt.MemoryStats, tb, ta havoqgt.TraversalCounters, ops float64) {
	hits, misses := float64(ma.CacheHits-mb.CacheHits), float64(ma.CacheMisses-mb.CacheMisses)
	pre, dropped := float64(ma.Prefetches-mb.Prefetches), float64(ma.PrefetchDropped-mb.PrefetchDropped)
	m["pagecache.hit_frac"] = ratio(hits, hits+misses)
	m["pagecache.misses"] = ratio(misses, ops)
	m["pagecache.read_mb"] = ratio(float64(ma.BytesRead-mb.BytesRead)/(1<<20), ops)
	m["pagecache.stalls"] = ratio(float64(ma.CacheStalls-mb.CacheStalls), ops)
	m["ooc.demand_fetches"] = ratio(float64(ma.DemandFetches-mb.DemandFetches), ops)
	m["ooc.prefetches"] = ratio(pre, ops)
	m["ooc.prefetch_dropped_frac"] = ratio(dropped, pre+dropped)
	m["core.parked"] = ratio(float64(ta.Parked-tb.Parked), ops)
}

// call is one counted operation of a measured window.
type call struct {
	algo string
	lat  time.Duration
}

// endToEnd computes the end-to-end metrics every workload reports from the
// calls completed inside the window.
func endToEnd(rep *report, calls []call, window time.Duration) {
	var all samples
	by := map[string]*samples{}
	for _, c := range calls {
		all.add(c.lat)
		if by[c.algo] == nil {
			by[c.algo] = &samples{}
		}
		by[c.algo].add(c.lat)
	}
	rep.timing("throughput_qps", float64(len(calls))/window.Seconds(), len(calls))
	rep.timing("latency_p50_ms", all.median(), len(all))
	rep.timing("latency_p90_ms", all.tail(0.90), len(all))
	rep.timing("latency_p99_ms", all.tail(0.99), len(all))
	for algo, s := range by {
		rep.timing(algo+"_ms", s.median(), len(*s))
	}
	rep.metrics["peak_rss_mb"] = peakRSSMB()
}
