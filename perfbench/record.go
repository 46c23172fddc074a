package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// host describes the machine a result was measured on, so results from
// different commits and hosts can be compared.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"git_commit"`
}

func describeHost() host {
	h := host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// record is the comparable description of one run, printed on the line
// before the result line.
type record struct {
	Host     host           `json:"host"`
	Graph    graphSpec      `json:"graph"`
	Vertices uint64         `json:"vertices"`
	Edges    uint64         `json:"edges"`
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Hash     string         `json:"result_hash"`
	Samples  map[string]int `json:"samples"`
}

func printRecord(rc *runConfig, rep *report) {
	rec := record{
		Host: describeHost(), Graph: rc.spec, Workload: rc.workload, Seed: rc.seed,
		Vertices: uint64(1) << rc.spec.Scale, Edges: rep.edges,
		Seconds: rc.window.Seconds(), Hash: fmt.Sprintf("%016x", rep.hash), Samples: rep.counts,
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return
	}
	fmt.Printf("result_hash: %s\nrecord: %s\n", rec.Hash, b)
}

// peakRSSMB is this process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}
