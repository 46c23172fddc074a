package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"havoqgt"
	"havoqgt/internal/obs"
	"havoqgt/internal/xrand"
)

// Analytics runs the paper's kernels one call at a time with no engine
// attached: rounds of top-down BFS, direction-optimizing BFS and SSSP from
// the next seeded non-isolated source, connected components and k-core;
// then analyticsPageRanks PageRank calls and one triangle count, which alone
// takes about 20 s at scale 14. The number of rounds is fixed by the window,
// analyticsRoundsPerSecond per second of it (a round takes about 0.4 s on
// the reference host) and at least analyticsMinRounds, so the 90th
// percentile has ten samples beyond it. Fixed work, not a fixed time, keeps
// calls per second proportional to the host's speed.
const (
	analyticsRoundsPerSecond = 2.5
	analyticsMinRounds       = 22
	analyticsPageRanks       = 3
)

func runAnalytics(rc *runConfig, tr *tracer) (*report, error) {
	rep := newReport()
	var setup samples
	var g *havoqgt.Graph
	for i := 0; i < setupRepeats; i++ {
		g = nil
		runtime.GC() // discarded set-ups must not raise the peak RSS
		t0 := time.Now()
		var err error
		if g, err = rc.spec.build(); err != nil {
			return nil, err
		}
		setup.add(time.Since(t0))
		tr.record("setup", i, "", t0, time.Now(), "")
	}
	rep.timing("setup_s", setup.median()/1e3, len(setup))
	rep.timing("setup.graph_s", setup.median()/1e3, len(setup))
	rep.edges = g.NumEdges()

	// The machine registry outlives an engine: attach one just long enough
	// to get the registry, then run every kernel engine-free.
	e, err := g.StartEngine(havoqgt.EngineOptions{})
	if err != nil {
		return nil, err
	}
	reg := e.Metrics()
	if err := e.Close(); err != nil {
		return nil, err
	}

	orc := rc.ref()
	whole := orc.wholeGraph()
	rounds := max(analyticsMinRounds, int(rc.window.Seconds()*analyticsRoundsPerSecond))
	sources, err := analyticsSources(g, rc.seed, rounds+1)
	if err != nil {
		return nil, err
	}

	type kernelCall struct {
		kernel string
		source havoqgt.Vertex
		run    func() (any, error)
	}
	point := func(kernel string, src havoqgt.Vertex) kernelCall {
		c := kernelCall{kernel: kernel, source: src}
		switch kernel {
		case "bfs":
			c.run = func() (any, error) { return g.BFS(src) }
		case "bfs_do":
			c.run = func() (any, error) { return g.BFSDirOpt(src) }
		case "sssp":
			c.run = func() (any, error) { return g.ShortestPaths(src, weightSeed) }
		}
		return c
	}
	cc := kernelCall{kernel: "cc", run: func() (any, error) { return g.Components() }}
	kcore := kernelCall{kernel: "kcore", run: func() (any, error) { return g.KCore(kcoreK) }}
	pagerank := kernelCall{kernel: "pagerank", run: func() (any, error) { return g.PageRank(pagerankIters) }}
	triangles := kernelCall{kernel: "triangles", run: func() (any, error) { return g.CountTriangles() }}

	// check compares one kernel's output with the reference and returns the
	// digest folded into the result hash.
	check := func(c kernelCall, out any) (uint64, error) {
		switch r := out.(type) {
		case *havoqgt.BFSResult:
			got, want := bfsAnswer(r.Levels), orc.point(query{Algo: c.kernel, Source: c.source})
			if got != want {
				return 0, fmt.Errorf("levels %+v, reference %+v", got, want)
			}
			return got.Hash, nil
		case *havoqgt.SSSPResult:
			got, want := ssspAnswer(r.Distances), orc.point(query{Algo: c.kernel, Source: c.source})
			if got != want {
				return 0, fmt.Errorf("distances %+v, reference %+v", got, want)
			}
			return got.Hash, nil
		case *havoqgt.ComponentsResult:
			if r.Count != whole.comps || !slices.Equal(r.Labels, whole.labels) {
				return 0, fmt.Errorf("%d components, reference %d (or labels differ)", r.Count, whole.comps)
			}
			return r.Count, nil
		case *havoqgt.KCoreResult:
			if !slices.Equal(r.InCore, whole.inCore) {
				return 0, fmt.Errorf("core membership differs from the reference (size %d)", r.CoreSize)
			}
			return r.CoreSize, nil
		case *havoqgt.PageRankResult:
			if !slices.Equal(r.Ranks, whole.ranks) {
				return 0, fmt.Errorf("ranks not bit-identical to the reference")
			}
			return hashU64s(r.Ranks), nil
		case uint64:
			if r != whole.triangles {
				return 0, fmt.Errorf("%d triangles, reference %d", r, whole.triangles)
			}
			return r, nil
		}
		return 0, fmt.Errorf("unexpected result %T", out)
	}

	var calls []call
	perKernel := map[string]*samples{}
	layerSums := map[string]map[string]float64{}
	seq := 0
	do := func(c kernelCall, timed bool) {
		var before counters
		if tr != nil && timed {
			before = readCounters(reg)
		}
		t0 := time.Now()
		out, err := c.run()
		lat := time.Since(t0)
		if tr != nil && timed {
			after := readCounters(reg)
			sums := layerSums[c.kernel]
			if sums == nil {
				sums = map[string]float64{}
				layerSums[c.kernel] = sums
			}
			sums["n"]++
			sums["core.pushed"] += delta(before, after, obs.CorePushed)
			sums["mailbox.records_sent"] += delta(before, after, obs.MBRecordsSent)
			sums["rt.bytes"] += delta(before, after, obs.RTBytes)
			sums["term.waves"] += delta(before, after, obs.TermWaves)
			tr.record("kernel", seq, "", t0, t0.Add(lat), c.kernel)
		}
		seq++
		rep.attempted++
		var h uint64
		if err == nil {
			h, err = check(c, out)
		}
		if err != nil {
			rep.mismatch("%s(%d): %v", c.kernel, c.source, err)
			return
		}
		if timed {
			calls = append(calls, call{algo: c.kernel, lat: lat})
			if perKernel[c.kernel] == nil {
				perKernel[c.kernel] = &samples{}
			}
			perKernel[c.kernel].add(lat)
			if len(*perKernel[c.kernel]) == 1 {
				// The first timed call of each kernel is the same for a
				// given seed, however many rounds the window holds.
				rep.hash += xrand.Mix64(uint64(slices.Index(kernels, c.kernel))<<56 ^ h)
			}
		}
	}
	round := func(i int, timed bool) {
		for _, k := range []string{"bfs", "bfs_do", "sssp"} {
			do(point(k, sources[i]), timed)
		}
		do(cc, timed)
		do(kcore, timed)
	}

	round(rounds, false) // warm-up, untimed
	runtime.GC()
	var before counters
	var mem havoqgt.MemoryStats
	var trav havoqgt.TraversalCounters
	var proc *procStats
	if tr != nil {
		before, mem, trav = readCounters(reg), g.MemoryStats(), g.TraversalCounters()
		proc = startProc()
	}
	start := time.Now()
	for i := 0; i < rounds; i++ {
		round(i, true)
	}
	for i := 0; i < analyticsPageRanks; i++ {
		do(pagerank, true)
	}
	do(triangles, true)
	wall := time.Since(start)
	if tr != nil {
		proc.finish(rep.metrics)
		machineLayers(rep.metrics, before, readCounters(reg), float64(len(calls)))
		// Read, not assumed: with no memory budget these must stay zero.
		oocLayers(rep.metrics, mem, g.MemoryStats(), trav, g.TraversalCounters(), float64(len(calls)))
	}
	endToEnd(rep, calls, wall)
	for k, s := range perKernel {
		rep.timing(k+"_ms", s.median(), len(*s))
	}
	if tr != nil {
		for _, k := range kernels {
			sums := layerSums[k]
			for _, c := range []string{"core.pushed", "mailbox.records_sent", "rt.bytes", "term.waves"} {
				rep.metrics[c+"."+k] = ratio(sums[c], sums["n"])
			}
		}
		for _, k := range refKernels {
			if s := orc.refTimes[k]; s != nil {
				rep.timing("ref."+k+"_ms", s.median(), len(*s))
			}
		}
		for _, k := range kernels {
			base := k
			if k == "bfs_do" {
				base = "bfs"
			}
			rep.metrics["cost."+k] = ratio(rep.metrics[k+"_ms"], rep.metrics["ref."+base+"_ms"])
		}
	}
	return rep, nil
}
