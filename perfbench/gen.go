package main

import (
	"fmt"
	"math/rand"
	"strconv"
)

// spec fixes one workload's shape. Rates and windows are chosen so that
// no operation fails and the generator is not the bottleneck on a
// two-core machine; README.md says why each workload exists.
type spec struct {
	name       string
	m, k       int     // row width and latent rank of the generated data
	seedRows   int     // rows mined over POST /v1/rules at set-up
	pool       int     // distinct rows the writers cycle through
	window     int     // un-acked rows in flight on a windowed stream
	readRate   float64 // serve_mixed: reads per second, open loop
	ingestRate float64 // serve_mixed: ingest rows per second, open loop
	tenants    bool    // run rrserve with -tenants-file
	// windowed makes latency_p50_ms the median over one-second windows
	// of each window's median, so that a slow spell of the shared
	// machine confined to fewer than half the windows does not move it;
	// otherwise it is the median over the whole run. The ingest
	// workloads see too few new versions per window for it.
	windowed bool
}

var specs = map[string]spec{
	"ingest_narrow": {name: "ingest_narrow", m: 8, k: 2, seedRows: 2048, pool: 8192, window: 64},
	"ingest_wide":   {name: "ingest_wide", m: 128, k: 4, seedRows: 2048, pool: 4096, window: 64},
	"serve_mixed": {name: "serve_mixed", m: 32, k: 4, seedRows: 2048, pool: 4096,
		readRate: 500, ingestRate: 768, tenants: true, windowed: true},
	"batch_fill": {name: "batch_fill", m: 32, k: 4, seedRows: 2048, pool: 4096, window: 1024, windowed: true},
}

// inputs is everything a run sends, generated from the seed before any
// timing starts.
type inputs struct {
	seedRows [][]float64
	pool     [][]float64
	// ingestLines are the pool rows as NDJSON ingest lines.
	ingestLines [][]byte
	// patterns are the hole patterns readers and batch rows use; row i
	// of the pool is paired with patterns[i%len(patterns)].
	patterns [][]int
	// fillBodies are the POST fill bodies, batchLines the batch/fill
	// NDJSON lines, both for pool row i with its pattern.
	fillBodies [][]byte
	batchLines [][]byte
}

// generate draws rows from a rank-k latent profile with multiplicative
// noise: attribute i follows latent factor i mod k with a fixed positive
// loading, row[i] = 10 * L[i] * z[i mod k] * (1 + 0.05 e), with L[i] ~
// U(0.5, 1.5) fixed per seed, scores z ~ U(0.5, 2) and e ~ N(0, 1).
// Each factor's attributes keep fixed ratios, as in the paper, and the k
// factors carry similar variance, so the energy cut-off keeps the same
// k on every seed and every republish: the seed changes the values, not
// the shape of the work.
func generate(sp spec, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	load := make([]float64, sp.m)
	for i := range load {
		load[i] = 0.5 + rng.Float64()
	}
	row := func() []float64 {
		z := make([]float64, sp.k)
		for j := range z {
			z[j] = 0.5 + 1.5*rng.Float64()
		}
		r := make([]float64, sp.m)
		for i := range r {
			r[i] = 10 * load[i] * z[i%sp.k] * (1 + 0.05*rng.NormFloat64())
		}
		return r
	}
	in := &inputs{}
	for i := 0; i < sp.seedRows; i++ {
		in.seedRows = append(in.seedRows, row())
	}
	m := sp.m
	in.patterns = [][]int{{0}, {1, m / 2}, {m - 1}, {2, m/2 + 1, m - 2}}
	for i := 0; i < sp.pool; i++ {
		r := row()
		in.pool = append(in.pool, r)
		in.ingestLines = append(in.ingestLines, append(appendFloats(nil, r), '\n'))
		holes := in.patterns[i%len(in.patterns)]
		rec := withHoles(r, holes)
		in.fillBodies = append(in.fillBodies, fillBody(rec, holes))
		in.batchLines = append(in.batchLines, append(fillBody(rec, holes), '\n'))
	}
	return in
}

// withHoles copies a row with the hole cells zeroed: the server must
// reconstruct them from the rules, not read them back.
func withHoles(row []float64, holes []int) []float64 {
	rec := append([]float64(nil), row...)
	for _, h := range holes {
		rec[h] = 0
	}
	return rec
}

// fillBody encodes {"record":[...],"holes":[...]}.
func fillBody(rec []float64, holes []int) []byte {
	b := []byte(`{"record":`)
	b = appendFloats(b, rec)
	b = append(b, `,"holes":[`...)
	for i, h := range holes {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(h), 10)
	}
	return append(b, "]}"...)
}

// appendFloats encodes a JSON array with the shortest round-tripping
// decimal of each value, so the server parses back exactly the float64
// the benchmark later feeds to its in-process reference.
func appendFloats(b []byte, row []float64) []byte {
	b = append(b, '[')
	for i, v := range row {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, ']')
}

// mineBody encodes the POST /v1/rules body that seeds a model.
func mineBody(name string, rows [][]float64) []byte {
	b := []byte(fmt.Sprintf(`{"name":%q,"rows":[`, name))
	for i, r := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloats(b, r)
	}
	return append(b, "]}"...)
}
