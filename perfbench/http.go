package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"havoqgt/internal/obs"
	"havoqgt/internal/xrand"
)

// http_zipf drives the built havoqd over HTTP with httpClients closed-loop
// keep-alive connections. It sends a fixed number of requests,
// httpPerSecond per second of the window, because the share the result
// cache answers grows with the number of requests sent: fixing the count
// fixes that share for a seed, however fast the host is. Sources follow a
// Zipf law with exponent zipfS over the non-isolated vertices. With it about
// three in four requests are answered by the cache, so the median sits well
// inside the cached mode and the 90th percentile inside the executed one,
// and a 20 s window sends 1500 requests, past the 1000 samples a 99th
// percentile needs.
const (
	httpClients   = 2
	httpTenants   = 4
	httpPerSecond = 75
	zipfS         = 1.35
)

// server is one havoqd child process.
type server struct {
	cmd     *exec.Cmd
	addr    string
	drained chan struct{} // closed when its stdout has been read to EOF
}

// startServer execs havoqd on the benchmark graph and waits until it
// reports its listening address.
func startServer(bin string, spec graphSpec) (*server, error) {
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-scale", fmt.Sprint(spec.Scale), "-seed", fmt.Sprint(spec.Seed),
		"-ranks", fmt.Sprint(spec.Ranks), "-topo", spec.Topology, "-simplify=true",
		// Far above what two closed-loop clients can offer: nothing sheds.
		"-tenant-rate", "1000000",
	)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.drained)
		sc := bufio.NewScanner(stdout)
		found := false
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "havoqd: listening on "); ok && !found {
				found = true
				addr <- strings.Fields(a)[0]
			}
		}
		io.Copy(io.Discard, stdout)
	}()
	select {
	case s.addr = <-addr:
		return s, nil
	case <-s.drained:
		s.stop()
		return nil, errors.New("havoqd exited before listening")
	case <-time.After(2 * time.Minute):
		s.stop()
		return nil, errors.New("havoqd did not report a listening address")
	}
}

// stop asks havoqd to drain and exit, waits for it, and returns its peak
// resident set size in MB.
func (s *server) stop() (float64, error) {
	if err := s.cmd.Process.Signal(os.Interrupt); err != nil {
		s.cmd.Process.Kill()
	}
	timer := time.AfterFunc(time.Minute, func() { s.cmd.Process.Kill() })
	defer timer.Stop()
	<-s.drained
	err := s.cmd.Wait()
	var rss float64
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024
	}
	return rss, err
}

// httpResponse is the scalar part of a POST /query reply.
type httpResponse struct {
	Algo      string  `json:"algo"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Reached   uint64  `json:"reached"`
	MaxLevel  uint64  `json:"max_level"`
	MaxDist   uint64  `json:"max_dist"`
}

// digest folds the fields havoqd returned into one value for the result
// hash.
func (r httpResponse) digest() uint64 {
	h := xrand.Mix64(uint64(slices.Index(serveAlgos, r.Algo) + 1))
	for _, v := range []uint64{r.Reached, r.MaxLevel, r.MaxDist} {
		h = xrand.Mix64(h ^ v)
	}
	return h
}

// request is one completed HTTP request of the closed loop.
type request struct {
	idx        int
	q          query
	start, end time.Time
	status     int
	outcome    string
	resp       httpResponse
	err        error
}

func getStats(c *http.Client, addr string) (counters, error) {
	var out counters
	resp, err := c.Get("http://" + addr + "/stats")
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("GET /stats: %s", resp.Status)
	}
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

// healthEdges reads the served graph's stored edge count from GET /healthz.
func healthEdges(c *http.Client, addr string) (uint64, error) {
	resp, err := c.Get("http://" + addr + "/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var h struct {
		Edges uint64 `json:"edges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, fmt.Errorf("GET /healthz: %w", err)
	}
	return h.Edges, nil
}

func postQuery(c *http.Client, addr string, r *request) {
	body, _ := json.Marshal(map[string]any{"algo": r.q.Algo, "source": r.q.Source, "weight_seed": weightSeed})
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/query", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return
	}
	req.Header.Set("X-Api-Key", fmt.Sprintf("tenant-%d", r.idx%httpTenants))
	resp, err := c.Do(req)
	if err != nil {
		r.err = err
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.end = time.Now()
	r.status, r.outcome = resp.StatusCode, resp.Header.Get("X-Traffic-Outcome")
	if err != nil {
		r.err = err
		return
	}
	if r.status != http.StatusOK {
		r.err = fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(data))
		return
	}
	r.err = json.Unmarshal(data, &r.resp)
}

func runHTTP(rc *runConfig, tr *tracer) (*report, error) {
	rep := newReport()
	var setup samples
	var srv *server
	var err error
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			if _, err := srv.stop(); err != nil {
				return nil, fmt.Errorf("stopping havoqd: %w", err)
			}
		}
		t0 := time.Now()
		if srv, err = startServer(rc.havoqd, rc.spec); err != nil {
			return nil, err
		}
		setup.add(time.Since(t0))
		tr.record("setup", i, "", t0, time.Now(), "")
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()
	rep.timing("setup_s", setup.median()/1e3, len(setup))

	orc := rc.ref()
	stream := newZipfStream(rc.seed, orc.connected(), zipfS)
	total := int(rc.window.Seconds() * httpPerSecond)
	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: httpClients + 1, MaxIdleConnsPerHost: httpClients + 1, DisableCompression: true,
	}}
	defer client.CloseIdleConnections()
	if rep.edges, err = healthEdges(client, srv.addr); err != nil {
		return nil, err
	}

	var before counters
	var gauges *gaugeSampler
	if tr != nil {
		if before, err = getStats(client, srv.addr); err != nil {
			return nil, err
		}
		gauges = startGauges(100*time.Millisecond, func() (float64, float64, bool) {
			var g struct {
				Gauges map[string]int64 `json:"gauges"`
			}
			resp, err := client.Get("http://" + srv.addr + "/stats")
			if err != nil {
				return 0, 0, false
			}
			defer resp.Body.Close()
			if json.NewDecoder(resp.Body).Decode(&g) != nil {
				return 0, 0, false
			}
			return float64(g.Gauges[obs.EngineInFlight]), float64(g.Gauges[obs.EngineWaiting]), true
		})
	}

	var next atomic.Int64
	results := make([][]*request, httpClients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < httpClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= total {
					return
				}
				r := &request{idx: i, q: stream.at(i), start: time.Now()}
				postQuery(client, srv.addr, r)
				results[c] = append(results[c], r)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)

	if tr != nil {
		gauges.finish(rep.metrics)
		after, err := getStats(client, srv.addr)
		if err != nil {
			return nil, err
		}
		executed := delta(before, after, obs.EngineCompleted)
		machineLayers(rep.metrics, before, after, executed)
		d := func(name string) float64 { return delta(before, after, name) }
		hits, misses := d(obs.TrafficCacheHits), d(obs.TrafficCacheMisses)
		rep.metrics["traffic.absorbed_frac"] = ratio(hits+d(obs.TrafficCollapseHits), d(obs.TrafficAdmitted))
		rep.metrics["traffic.cache_hit_frac"] = ratio(hits, hits+misses)
		rep.metrics["traffic.collapse_hits"] = d(obs.TrafficCollapseHits)
		rep.metrics["traffic.cache_evictions"] = d(obs.TrafficCacheEvictions)
		rep.metrics["traffic.quota_shed"] = d(obs.TrafficQuotaShed)
		// havoqd serves fully resident. GET /stats carries the parking and
		// pager counters but not the page cache's own, so pagecache.* are
		// not measured here. A pager counter absent from /stats was never
		// registered: no pager ran, and its delta reads 0.
		pre, dropped := d(obs.OOCPrefetches), d(obs.OOCPrefetchDropped)
		rep.metrics["core.parked"] = ratio(d(obs.CoreParked), executed)
		rep.metrics["ooc.demand_fetches"] = ratio(d(obs.OOCDemandFetches), executed)
		rep.metrics["ooc.prefetches"] = ratio(pre, executed)
		rep.metrics["ooc.prefetch_dropped_frac"] = ratio(dropped, pre+dropped)
	}
	rss, err := srv.stop()
	stopped = true
	if err != nil {
		return nil, fmt.Errorf("havoqd did not exit cleanly: %w", err)
	}

	// Everything below is outside the measured window.
	var all []*request
	for _, rs := range results {
		all = append(all, rs...)
	}
	var calls []call
	var cached, executed, overhead samples
	engineRun := map[string]*samples{}
	for _, k := range serveAlgos {
		engineRun[k] = &samples{}
	}
	for _, r := range all {
		rep.attempted++
		if r.err != nil {
			rep.mismatch("%v: %v", r.q, r.err)
			continue
		}
		want := orc.point(r.q)
		got := answer{Hash: want.Hash, Reached: r.resp.Reached, Max: r.resp.MaxLevel}
		if r.q.Algo == "sssp" {
			got.Max = r.resp.MaxDist
		}
		if r.resp.Algo != r.q.Algo || got != want {
			rep.mismatch("%v: reply %+v, reference %+v", r.q, r.resp, want)
			continue
		}
		if r.idx < hashPrefix {
			rep.hash += xrand.Mix64(uint64(r.idx)<<32 ^ r.resp.digest())
		}
		lat := r.end.Sub(r.start)
		calls = append(calls, call{algo: r.q.Algo, lat: lat})
		tr.record("http.request", r.idx, "", r.start, r.end, r.q.Algo+"/"+r.outcome)
		switch r.outcome {
		case "cached":
			cached.add(lat)
		case "executed":
			executed.add(lat)
			overhead = append(overhead, float64(lat.Nanoseconds())/1e6-r.resp.ElapsedMS)
			*engineRun[r.q.Algo] = append(*engineRun[r.q.Algo], r.resp.ElapsedMS)
		}
	}
	endToEnd(rep, calls, wall)
	rep.metrics["peak_rss_mb"] = rss
	if tr != nil {
		rep.timing("havoqd.cached_p50_ms", cached.median(), len(cached))
		rep.timing("havoqd.executed_p50_ms", executed.median(), len(executed))
		rep.timing("havoqd.overhead_p50_ms", overhead.median(), len(overhead))
		for kind, s := range engineRun {
			rep.timing("engine."+kind+"_p50_ms", s.median(), len(*s))
		}
	}
	fmt.Printf("http_zipf: %d requests, %d cached, %d executed\n", len(calls), len(cached), len(executed))
	return rep, nil
}
