package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"havoqgt/internal/obs"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public entry point. Spans of one request share ID; Parent names the span
// that caused this one ("" for a root).
type span struct {
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Attr    string `json:"attr,omitempty"`
}

func (s span) ms() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

// tracer keeps spans in memory for one traced pass and writes them out when
// the benchmark ends. A nil *tracer records nothing, which is the untraced
// pass: the calls that time end-to-end metrics are the same in both. Spans
// are recorded from the workload's own goroutine only.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) record(name string, id int, parent string, start, end time.Time, attr string) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{
		Name: name, ID: id, Parent: parent, Attr: attr,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(),
	})
}

// durations returns the durations, in milliseconds, of the spans named name
// whose attribute satisfies keep (nil keeps all).
func (t *tracer) durations(name string, keep func(attr string) bool) samples {
	var out samples
	for _, s := range t.spans {
		if s.Name == name && (keep == nil || keep(s.Attr)) {
			out = append(out, s.ms())
		}
	}
	return out
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// counters is a point-in-time copy of the machine registry's counters and
// histogram sums, as read through Engine.Metrics() or GET /stats.
type counters struct {
	Counters   map[string]uint64           `json:"counters"`
	Histograms map[string]obs.HistSnapshot `json:"histograms"`
}

func readCounters(reg *obs.Registry) counters {
	s := reg.Snapshot()
	return counters{Counters: s.Counters, Histograms: s.Histograms}
}

// delta is after minus before for one counter.
func delta(before, after counters, name string) float64 {
	return float64(after.Counters[name] - before.Counters[name])
}

// histMean is the mean of the observations a histogram took between two
// snapshots (its sum and count are exact; no bucket bounds are used).
func histMean(before, after counters, name string) float64 {
	b, a := before.Histograms[name], after.Histograms[name]
	return ratio(float64(a.Sum-b.Sum), float64(a.Count-b.Count))
}

// machineLayers derives the engine-counter, core, mailbox, rt and
// termination metrics from a counter delta; work counts are per operation
// (query or kernel call).
func machineLayers(m map[string]float64, before, after counters, ops float64) {
	d := func(name string) float64 { return delta(before, after, name) }
	pushed := d(obs.CorePushed)
	sent := d(obs.MBRecordsSent)
	waves := d(obs.TermWaves)
	m["core.pushed"] = ratio(pushed, ops)
	m["core.executed"] = ratio(d(obs.CoreExecuted), ops)
	m["core.ghost_filtered_frac"] = ratio(d(obs.CoreGhostFiltered), pushed)
	m["core.queue_depth_mean"] = histMean(before, after, obs.CoreQueueDepth)
	m["mailbox.records_sent"] = ratio(sent, ops)
	m["mailbox.records_per_envelope"] = ratio(sent, d(obs.MBEnvelopesSent))
	m["mailbox.hops_per_record"] = ratio(d(obs.MBHops), sent)
	m["mailbox.pool_hit_frac"] = ratio(d(obs.MBPoolHits), d(obs.MBPoolGets))
	m["mailbox.flushes"] = ratio(d(obs.MBFlushes), ops)
	m["rt.msgs"] = ratio(d(obs.RTMsgs), ops)
	for _, kind := range []string{"mailbox", "control", "coll"} {
		m["rt.bytes."+kind] = ratio(d(obs.RTKindBytes(kind)), ops)
	}
	m["term.waves"] = ratio(waves, ops)
	m["term.retest_frac"] = ratio(d(obs.TermRetests), waves)
	m["engine.rejected"] = d(obs.EngineRejected)
	m["engine.cancelled"] = d(obs.EngineCancelled)
}

// gaugeSampler averages the engine's admission gauges while a traced pass
// runs.
type gaugeSampler struct {
	stop chan struct{}
	done chan struct{}
	n    int
	sum  [2]float64
}

// startGauges samples read every period until stop is called.
func startGauges(period time.Duration, read func() (inFlight, waiting float64, ok bool)) *gaugeSampler {
	g := &gaugeSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-tick.C:
				if f, w, ok := read(); ok {
					g.n++
					g.sum[0] += f
					g.sum[1] += w
				}
			}
		}
	}()
	return g
}

// finish stops the sampler, waits for it, and stores the means in m.
func (g *gaugeSampler) finish(m map[string]float64) {
	close(g.stop)
	<-g.done
	m["engine.in_flight_mean"] = ratio(g.sum[0], float64(g.n))
	m["engine.waiting_mean"] = ratio(g.sum[1], float64(g.n))
}

// procStats brackets a region with Go runtime memory statistics.
type procStats struct{ before runtime.MemStats }

func startProc() *procStats {
	p := &procStats{}
	runtime.ReadMemStats(&p.before)
	return p
}

func (p *procStats) finish(m map[string]float64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m["proc.alloc_mb"] = float64(after.TotalAlloc-p.before.TotalAlloc) / (1 << 20)
	m["proc.gc_cycles"] = float64(after.NumGC - p.before.NumGC)
	m["proc.gc_pause_ms"] = float64(after.PauseTotalNs-p.before.PauseTotalNs) / 1e6
}
