// Command perfbench is the repository's benchmark: one harness, one
// schema, four workloads over one graph, driven through public entry points
// only (the havoqgt facade, the built havoqd binary over HTTP) and checked
// against internal/ref. See README.md for the workloads, the metric-to-layer
// map and what is deliberately left unmeasured.
//
// Usage, from the repository root (run.sh builds, then execs this):
//
//	bash perfbench/run.sh --workload serve_uniform --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line reports every end-to-end metric that
// BENCHMARK.json lists; with --trace 1 the run makes an untraced pass and
// then a traced pass over the same inputs, and the last line reports every
// per-layer metric it lists, the tracing overhead (traced minus untraced)
// among them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// buildDir is where run.sh puts the binaries it builds, relative to the
// repository root the benchmark runs from; traced runs write spans there too.
const buildDir = ".bench_build"

// workloads maps each workload name to the pass that runs it.
var workloads = map[string]func(rc *runConfig, tr *tracer) (*report, error){
	"analytics":     runAnalytics,
	"serve_uniform": func(rc *runConfig, tr *tracer) (*report, error) { return runServe(rc, tr, false) },
	"serve_ooc":     func(rc *runConfig, tr *tracer) (*report, error) { return runServe(rc, tr, true) },
	"http_zipf":     runHTTP,
}

// runConfig is what one invocation measures.
type runConfig struct {
	workload string
	seed     uint64
	window   time.Duration
	spec     graphSpec
	havoqd   string // path of the built havoqd binary
	oracle   *oracle
}

// ref returns the shared reference oracle, building it on first use. Its
// preparation is outside every timed region and outside setup_s.
func (rc *runConfig) ref() *oracle {
	if rc.oracle == nil {
		rc.oracle = newOracle(rc.spec)
	}
	return rc.oracle
}

// report is one pass's outcome.
type report struct {
	attempted, failed int
	mismatches        []string
	hash              uint64
	edges             uint64 // stored edges of the graph measured
	metrics           map[string]float64
	counts            map[string]int // sample count behind each timing
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, counts: map[string]int{}}
}

// mismatch counts one wrong or failed answer.
func (r *report) mismatch(format string, args ...any) {
	r.failed++
	if len(r.mismatches) < 10 {
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	}
}

// timing stores a timing metric with the number of samples behind it.
func (r *report) timing(name string, v float64, n int) {
	r.metrics[name] = v
	r.counts[name] = n
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "analytics | serve_uniform | serve_ooc | http_zipf")
	seed := fs.Uint64("seed", 1, "workload seed: sources, query streams, Zipf hot set")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}
	lists, err := loadMetrics(benchmarkFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	rc := &runConfig{
		workload: *workload, seed: *seed, spec: benchGraph,
		window: time.Duration(*seconds * float64(time.Second)),
		havoqd: filepath.Join(buildDir, "havoqd"),
	}

	rep, tr, err := measure(rc, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", rc.workload, err)
		return 1
	}
	defs := lists.EndToEnd
	if tr != nil {
		dir := filepath.Join(buildDir, "perfbench-spans")
		path, err := tr.write(dir, fmt.Sprintf("%s-seed%d.spans.jsonl", rc.workload, rc.seed))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Printf("spans: %s (%d)\n", path, len(tr.spans))
		defs = lists.PerLayer
	}

	out := resultLine{
		Correct: rep.failed == 0 && rep.attempted > 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := rep.metrics[d.Name]
		if !ok {
			if tr == nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", rc.workload, d.Name)
				return 1
			}
			// The result line must list every per-layer metric; one this
			// workload has no layer for is printed as such, and reads 0.
			out.Metrics[d.Name] = metricValue{Value: 0, Unit: d.Unit}
			fmt.Printf("%-32s %14s %-6s not measured on %s\n", d.Name, "-", d.Unit, rc.workload)
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		if n, ok := rep.counts[d.Name]; ok {
			fmt.Printf("%-32s %14.6g %-6s n=%d\n", d.Name, v, d.Unit, n)
		} else {
			fmt.Printf("%-32s %14.6g %s\n", d.Name, v, d.Unit)
		}
	}
	for _, m := range rep.mismatches {
		fmt.Printf("mismatch: %s\n", m)
	}
	printRecord(rc, rep)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// measure makes the untraced pass and, when traced is set, a traced pass
// over the same inputs. The traced pass's report then carries the attempts
// and failures of both passes and the tracing overhead, traced minus
// untraced.
func measure(rc *runConfig, traced bool) (*report, *tracer, error) {
	pass := workloads[rc.workload]
	rep, err := pass(rc, nil)
	if err != nil {
		return nil, nil, err
	}
	var tr *tracer
	if traced {
		untraced := rep
		tr = newTracer()
		if rep, err = pass(rc, tr); err != nil {
			return nil, nil, fmt.Errorf("traced: %w", err)
		}
		rep.attempted += untraced.attempted
		rep.failed += untraced.failed
		rep.mismatches = append(untraced.mismatches, rep.mismatches...)
		for _, name := range []string{"throughput_qps", "latency_p50_ms", "latency_p90_ms"} {
			rep.metrics["trace.overhead_"+name] = rep.metrics[name] - untraced.metrics[name]
		}
	}
	rep.metrics["failed_frac"] = ratio(float64(rep.failed), float64(rep.attempted))
	return rep, tr, nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
