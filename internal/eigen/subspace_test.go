package eigen

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ratiorules/internal/matrix"
)

// randomPSD builds a random symmetric positive semi-definite matrix with a
// decaying spectrum, like a covariance matrix. The per-column decay is
// tempered for large n so the spectrum spans a realistic dynamic range
// instead of underflowing.
func randomPSD(rng *rand.Rand, n int) *matrix.Dense {
	decay := math.Pow(1e-6, 1/float64(n)) // spectrum spans ~12 orders of magnitude
	g := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		row := g.RawRow(i)
		for j := range row {
			row[j] = rng.NormFloat64() * math.Pow(decay, float64(j))
		}
	}
	return matrix.MustMul(g.T(), g)
}

func TestTopKMatchesFullSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(15)
		a := randomPSD(rng, n)
		full, err := SymEig(a)
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(3)
		top, err := TopK(a, k)
		if err != nil {
			t.Fatal(err)
		}
		scale := 1 + full.Values[0]
		for j := 0; j < k; j++ {
			if math.Abs(top.Values[j]-full.Values[j]) > 1e-8*scale {
				t.Fatalf("n=%d k=%d: eigenvalue %d = %v, full solve %v",
					n, k, j, top.Values[j], full.Values[j])
			}
			// Eigenvectors agree up to sign (both canonicalized).
			got, want := top.Vectors.Col(j), full.Vectors.Col(j)
			// Skip the vector check when eigenvalue j is nearly degenerate
			// with a neighbor — any basis of the eigenspace is correct.
			degenerate := (j+1 < n && math.Abs(full.Values[j]-full.Values[j+1]) < 1e-6*scale) ||
				(j > 0 && math.Abs(full.Values[j]-full.Values[j-1]) < 1e-6*scale)
			if !degenerate && !matrix.EqualApproxVec(got, want, 1e-6) {
				t.Fatalf("n=%d k=%d: eigenvector %d differs:\n%v\n%v", n, k, j, got, want)
			}
		}
	}
}

func TestTopKValidation(t *testing.T) {
	a := randomPSD(rand.New(rand.NewSource(41)), 4)
	if _, err := TopK(a, 0); err == nil {
		t.Error("k=0 must fail")
	}
	if _, err := TopK(a, 5); err == nil {
		t.Error("k>n must fail")
	}
	if _, err := TopK(matrix.NewDense(2, 3), 1); !errors.Is(err, ErrNotSymmetric) {
		t.Errorf("rectangular: err = %v, want ErrNotSymmetric", err)
	}
	bad := matrix.MustFromRows([][]float64{{1, 2}, {3, 4}})
	if _, err := TopK(bad, 1); !errors.Is(err, ErrNotSymmetric) {
		t.Errorf("asymmetric: err = %v, want ErrNotSymmetric", err)
	}
}

func TestTopKFullRank(t *testing.T) {
	// k = n must still work (block clamped to n).
	a := randomPSD(rand.New(rand.NewSource(42)), 6)
	full, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	top, err := TopK(a, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.EqualApproxVec(top.Values, full.Values, 1e-8*(1+full.Values[0])) {
		t.Errorf("full-k values:\n%v\nwant\n%v", top.Values, full.Values)
	}
}

func TestTopKRankDeficient(t *testing.T) {
	// Rank-2 PSD matrix: requesting k=2 recovers both live directions.
	v1 := []float64{1, 2, 3, 4, 5}
	v2 := []float64{5, -1, 0, 1, -5}
	a := matrix.NewDense(5, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			a.Set(i, j, 3*v1[i]*v1[j]+v2[i]*v2[j])
		}
	}
	top, err := TopK(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	full, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.EqualApproxVec(top.Values, full.Values[:3], 1e-7*(1+full.Values[0])) {
		t.Errorf("values = %v, want %v", top.Values, full.Values[:3])
	}
	if math.Abs(top.Values[2]) > 1e-7*(1+full.Values[0]) {
		t.Errorf("third eigenvalue = %v, want ≈ 0 for rank-2 input", top.Values[2])
	}
}

// Property: residual |A·v − λ·v| is tiny for every returned pair.
func TestTopKResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(12)
		a := randomPSD(rng, n)
		k := 1 + rng.Intn(n)
		sys, err := TopK(a, k)
		if err != nil {
			return false
		}
		scale := 1 + sys.Values[0]
		for j := 0; j < k; j++ {
			v := sys.Vectors.Col(j)
			av, err := matrix.MulVec(a, v)
			if err != nil {
				return false
			}
			for i := range av {
				av[i] -= sys.Values[j] * v[i]
			}
			if matrix.Norm2(av) > 1e-7*scale {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestOrthonormalizeColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	q := matrix.NewDense(6, 3)
	for i := 0; i < 6; i++ {
		for j := 0; j < 3; j++ {
			q.Set(i, j, rng.NormFloat64())
		}
	}
	// Make column 2 a copy of column 0 (degenerate).
	for i := 0; i < 6; i++ {
		q.Set(i, 2, q.At(i, 0))
	}
	orthonormalizeColumns(q)
	gram := matrix.MustMul(q.T(), q)
	if !matrix.EqualApprox(gram, matrix.Identity(3), 1e-10) {
		t.Errorf("columns not orthonormal after degenerate input:\n%v", gram)
	}
}

func BenchmarkTopK3of200(b *testing.B) {
	a := randomPSD(rand.New(rand.NewSource(1)), 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TopK(a, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullSolve200(b *testing.B) {
	a := randomPSD(rand.New(rand.NewSource(1)), 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SymEig(a); err != nil {
			b.Fatal(err)
		}
	}
}

// latentScatter is the centred scatter matrix of n rows drawn from a
// rank-4 latent profile with 5% multiplicative noise (the rows the
// online benchmarks ingest): four strong pairs above a flat noise bulk.
func latentScatter(rng *rand.Rand, n, m int) *matrix.Dense {
	load := make([]float64, m)
	for j := range load {
		load[j] = 0.5 + rng.Float64()
	}
	x := matrix.NewDense(n, m)
	z := make([]float64, 4)
	for i := 0; i < n; i++ {
		for f := range z {
			z[f] = 0.5 + 1.5*rng.Float64()
		}
		for j, row := 0, x.RawRow(i); j < m; j++ {
			row[j] = 10 * load[j] * z[j%4] * (1 + 0.05*rng.NormFloat64())
		}
	}
	c, _ := x.CenterColumns()
	return matrix.MustMul(c.T(), c)
}

// BenchmarkLeadingPairs times the three ways the miner can obtain the
// k = 8 leading eigenpairs of a covariance matrix (the full SymEig
// solve, TopK subspace iteration, Lanczos) at M = 32, 128 and 512.
func BenchmarkLeadingPairs(b *testing.B) {
	const k = 8
	solvers := []struct {
		name string
		fn   func(*matrix.Dense) (*System, error)
	}{
		{"SymEig", SymEig},
		{"TopK", func(a *matrix.Dense) (*System, error) { return TopK(a, k) }},
		{"Lanczos", func(a *matrix.Dense) (*System, error) { return Lanczos(a, k) }},
	}
	for _, m := range []int{32, 128, 512} {
		a := latentScatter(rand.New(rand.NewSource(1)), 2048, m)
		for _, s := range solvers {
			b.Run(fmt.Sprintf("M=%d/%s", m, s.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := s.fn(a); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
