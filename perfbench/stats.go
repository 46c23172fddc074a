package main

import (
	"math"
	"sort"
	"time"

	"havoqgt/internal/xrand"
)

// samples holds raw per-operation timings, in milliseconds. Every reported
// timing is read off the raw values by nearest rank; no histogram buckets
// are involved, so two tails a factor of two apart never read the same.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d.Nanoseconds())/1e6) }

// quantile returns the nearest-rank q-quantile: the smallest sample such
// that at least q of all samples are at or below it. It reports false when
// the set is empty, or when q < 1 and fewer than minBeyond samples lie above
// the rank, which is the rule for reporting a tail percentile.
func (s samples) quantile(q float64, minBeyond int) (float64, bool) {
	n := len(s)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	if n-rank < minBeyond {
		return 0, false
	}
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	return sorted[rank-1], true
}

// median is the nearest-rank 50th percentile, or 0 with no samples.
func (s samples) median() float64 {
	v, _ := s.quantile(0.5, 0)
	return v
}

// tail is a reported tail percentile: at least 10 samples must lie beyond
// it. It returns 0 when there are too few samples to report one.
func (s samples) tail(q float64) float64 {
	v, _ := s.quantile(q, 10)
	return v
}

// ratio divides, returning 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// hashU32s and hashU64s digest answer arrays so that answers can be
// compared with the reference and folded into a workload's result hash.
func hashU32s(vals []uint32) uint64 {
	h := uint64(len(vals))
	for _, v := range vals {
		h = xrand.Mix64(h ^ uint64(v))
	}
	return h
}

func hashU64s(vals []uint64) uint64 {
	h := uint64(len(vals))
	for _, v := range vals {
		h = xrand.Mix64(h ^ v)
	}
	return h
}
