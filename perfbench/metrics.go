package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkFile defines the benchmark, relative to the repository root the
// benchmark runs from. Its end_to_end and per_layer lists are the metrics a
// run reports, in that order, under those names and units.
const benchmarkFile = "BENCHMARK.json"

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// metricLists are BENCHMARK.json's two metric lists. End-to-end metrics are
// what a user of the system sees: every workload reports every one of them,
// untraced, and none can read 0 on a correct run. Per-layer metrics come
// from the traced pass: counter deltas read through Engine.Metrics(),
// GET /stats and MemoryStats, and spans the benchmark records around public
// calls. Counts of machine-layer work are per operation (query or kernel
// call).
type metricLists struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadMetrics(path string) (*metricLists, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m metricLists
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(m.EndToEnd) == 0 || len(m.PerLayer) == 0 {
		return nil, fmt.Errorf("%s lists no end_to_end or no per_layer metrics", path)
	}
	return &m, nil
}

// kernels are analytics' seven kernel types.
var kernels = []string{"bfs", "bfs_do", "sssp", "cc", "kcore", "pagerank", "triangles"}

// refKernels are the kernels with their own reference implementation;
// bfs_do is compared with ref.BFS.
var refKernels = []string{"bfs", "sssp", "cc", "kcore", "pagerank", "triangles"}
