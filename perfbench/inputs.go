package main

import (
	"fmt"
	"math"
	"sort"

	"havoqgt"
	"havoqgt/internal/xrand"
)

// graphSpec names the one graph every workload runs on. The program under
// test receives only what these fields and the workload seed generate.
type graphSpec struct {
	Scale    uint   `json:"scale"`
	Seed     uint64 `json:"graph_seed"`
	Ranks    int    `json:"ranks"`
	Topology string `json:"topology"`
}

// benchGraph is Graph500 RMAT at scale 14 (16 384 vertices, 425 878 stored
// edges after simplification), graph seed 1, on 8 ranks routed over the 2d
// topology: the scale of every earlier BENCH file.
var benchGraph = graphSpec{Scale: 14, Seed: 1, Ranks: 8, Topology: "2d"}

func (s graphSpec) build() (*havoqgt.Graph, error) {
	return havoqgt.GenerateRMAT(s.Scale, s.Seed, havoqgt.Options{
		Ranks: s.Ranks, Topology: s.Topology, Simplify: true,
	})
}

// Every SSSP query uses the same edge-weight seed, so equal sources are
// equal queries (and share a result-cache key over HTTP).
const weightSeed = 1

// The algorithms of the serving workloads' query mix, in the order the
// streams cycle through them: an exactly equal share of each.
var serveAlgos = []string{"bfs", "bfs_do", "sssp"}

// query is one point query of a serving workload.
type query struct {
	Algo   string
	Source havoqgt.Vertex
}

func (q query) String() string { return fmt.Sprintf("%s(%d)", q.Algo, q.Source) }

// draw returns the i-th uniform draw in [0, 1) of the stream keyed by seed
// and salt. Streams are indexed rather than stateful, so any prefix of a
// stream is the same however far a run gets.
func draw(seed, salt, i uint64) float64 {
	return float64(xrand.Mix64(xrand.Mix64(seed^salt)+i)>>11) / (1 << 53)
}

// Salts keep the streams derived from one workload seed independent.
const (
	saltUniform uint64 = 0x756e69666f726d
	saltZipf    uint64 = 0x7a697066
	saltPerm    uint64 = 0x7065726d
	saltWarmup  uint64 = 0x7761726d
)

// uniformStream is the serve workloads' query stream: sources drawn
// uniformly from all vertex IDs, isolated ones included.
type uniformStream struct {
	seed, salt, n uint64
}

func (s uniformStream) at(i int) query {
	src := uint64(draw(s.seed, s.salt, uint64(i)) * float64(s.n))
	return query{Algo: serveAlgos[i%len(serveAlgos)], Source: havoqgt.Vertex(src)}
}

// zipfStream is http_zipf's stream: the vertex of popularity rank k is
// requested with probability proportional to 1/(k+1)^s. The rank-to-vertex
// mapping is a seeded permutation of the given vertices, so each seed has
// its own hot set; the algorithm cycles with the stream position, so every
// algorithm sees the same source distribution.
type zipfStream struct {
	seed uint64
	cdf  []float64
	perm []havoqgt.Vertex
}

func newZipfStream(seed uint64, vertices []havoqgt.Vertex, s float64) *zipfStream {
	n := len(vertices)
	z := &zipfStream{seed: seed, cdf: make([]float64, n), perm: append([]havoqgt.Vertex(nil), vertices...)}
	var sum float64
	for k := range z.cdf {
		sum += math.Pow(float64(k+1), -s)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	for k := n - 1; k > 0; k-- {
		j := int(xrand.Mix64(xrand.Mix64(seed^saltPerm)+uint64(k)) % uint64(k+1))
		z.perm[k], z.perm[j] = z.perm[j], z.perm[k]
	}
	return z
}

func (z *zipfStream) at(i int) query {
	u := draw(z.seed, saltZipf, uint64(i))
	k := sort.SearchFloat64s(z.cdf, u)
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return query{Algo: serveAlgos[i%len(serveAlgos)], Source: z.perm[k]}
}

// analyticsSources returns count seeded non-isolated sources.
func analyticsSources(g *havoqgt.Graph, seed uint64, count int) ([]havoqgt.Vertex, error) {
	s := uniformStream{seed: seed, salt: saltUniform, n: g.NumVertices()}
	var out []havoqgt.Vertex
	for i := 0; len(out) < count; i++ {
		if i > 1000*count {
			return nil, fmt.Errorf("no non-isolated sources in %d draws", i)
		}
		v := s.at(i).Source
		d, err := g.Degree(v)
		if err != nil {
			return nil, err
		}
		if d > 0 {
			out = append(out, v)
		}
	}
	return out, nil
}
