package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"ratiorules/internal/dataset"
	"ratiorules/internal/matrix"
)

// closedFormRelTol bounds |GE1With − GE1| / GE1 wherever the closed form
// runs. The two differ only in float rounding: the closed form sums
// O(k) products per cell where the pseudo-inverse sums O(M·k), and the
// measured gap is ~1e-16 on every dataset below. The republish gate
// compares two GE₁ values with a 5% default slack and a 1e-9·RMS
// absolute floor; a 1e-12 relative error moves either side by less than
// 1e-12·GE, three orders below the floor whenever GE is under the
// cells' RMS (a model whose fills are worse than the cells' own size
// loses the comparison by far more than the slack anyway).
const closedFormRelTol = 1e-12

func minedRulesForGE(t *testing.T, n, m int, opts ...Option) (*Rules, *matrix.Dense) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	x := randomCorrelated(rng, n, m)
	miner, err := NewMiner(opts...)
	if err != nil {
		t.Fatal(err)
	}
	rules, err := miner.MineMatrix(x)
	if err != nil {
		t.Fatal(err)
	}
	test := randomCorrelated(rng, n/2, m)
	return rules, test
}

// planPathColumns counts the columns GE1With scores through the
// single-hole plans instead of the closed form.
func planPathColumns(r *Rules) int {
	loo := r.leaveOneOut()
	if loo.denom == nil {
		return r.M()
	}
	n := 0
	for _, d := range loo.denom {
		if d == 0 {
			n++
		}
	}
	return n
}

// skewedRules returns a copy of r whose rule matrix is scaled by 1+eps:
// the same span, but VᵀV = (1+eps)²·I, as a model uploaded through
// PUT /v1/rules may carry.
func skewedRules(r *Rules, eps float64) *Rules {
	return &Rules{
		means:         r.Means(),
		v:             matrix.Scale(1+eps, r.v),
		eigenvalues:   r.Eigenvalues(),
		totalVariance: r.totalVariance,
		trainedRows:   r.trainedRows,
	}
}

// On the plan path GE1With computes exactly GE1's number: the same
// pseudo-inverse per hole pattern, the same arithmetic, the same
// summation order. Two rule sets take that path for every column: one
// with k = M (Case 3, under-specified), one whose V is not orthonormal.
func TestGE1WithMatchesGE1(t *testing.T) {
	full, test := minedRulesForGE(t, 200, 8, WithFixedK(8))
	mined, _ := minedRulesForGE(t, 200, 8)
	for name, rules := range map[string]*Rules{
		"k=M":             full,
		"non-orthonormal": skewedRules(mined, 1e-3),
	} {
		if got := planPathColumns(rules); got != rules.M() {
			t.Fatalf("%s: %d of %d columns on the plan path, want all", name, got, rules.M())
		}
		want, err := GE1(rules, test)
		if err != nil {
			t.Fatal(err)
		}
		got, err := GE1With(rules, test, GEOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: plan-path GE1With %v != GE1 %v", name, got, want)
		}
	}
}

// Non-*Rules estimators take the plain GE1 path unchanged.
func TestGE1WithColAvgsFallback(t *testing.T) {
	rules, test := minedRulesForGE(t, 120, 5)
	avgs := NewColAvgs(rules.Means())
	want, err := GE1(avgs, test)
	if err != nil {
		t.Fatal(err)
	}
	got, err := GE1With(avgs, test, GEOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("fallback GE1With %v != GE1 %v", got, want)
	}
}

// On the plan path the single-hole plans land in the shared plan cache:
// a second evaluation (and any batch fill with the same pattern) reuses
// them. The closed form builds no plans at all.
func TestGE1WithWarmsPlanCache(t *testing.T) {
	rules, test := minedRulesForGE(t, 100, 6, WithFixedK(6))
	if got := rules.plans.len(); got != 0 {
		t.Fatalf("fresh rules should have an empty plan cache, have %d", got)
	}
	if _, err := GE1With(rules, test, GEOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := rules.plans.len(); got != 6 {
		t.Fatalf("want 6 cached single-hole plans, have %d", got)
	}
	// Second run must not grow the cache.
	if _, err := GE1With(rules, test, GEOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := rules.plans.len(); got != 6 {
		t.Fatalf("second run grew the cache to %d plans", got)
	}

	closed, test := minedRulesForGE(t, 100, 6)
	if _, err := GE1With(closed, test, GEOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := closed.plans.len(); got != 0 {
		t.Fatalf("closed form cached %d plans, want 0", got)
	}
}

// The gate and the monitor's eval tick can score one served model at
// once; the closed-form data is built once and shared.
func TestGE1WithConcurrentFirstUse(t *testing.T) {
	rules, test := minedRulesForGE(t, 120, 6)
	want, err := GE1With(rules, test, GEOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := minedRulesForGE(t, 120, 6)
	var wg sync.WaitGroup
	got := make([]float64, 4)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], _ = GE1With(fresh, test, GEOptions{})
		}()
	}
	wg.Wait()
	for g, ge := range got {
		if ge != want {
			t.Errorf("goroutine %d: GE1With %v, want %v", g, ge, want)
		}
	}
}

func TestGE1WithWidthMismatch(t *testing.T) {
	rules, _ := minedRulesForGE(t, 80, 4)
	rng := rand.New(rand.NewSource(1))
	wrong := randomCorrelated(rng, 10, 5)
	if _, err := GE1With(rules, wrong, GEOptions{}); err == nil {
		t.Fatal("want width-mismatch error")
	}
}

// latentRows draws n rows of width m from a rank-r latent profile with
// 5% multiplicative noise: the shape of the rows the online republish
// gate scores.
func latentRows(rng *rand.Rand, n, m, r int) *matrix.Dense {
	load := make([]float64, m)
	for i := range load {
		load[i] = 0.5 + rng.Float64()
	}
	x := matrix.NewDense(n, m)
	z := make([]float64, r)
	for i := 0; i < n; i++ {
		for j := range z {
			z[j] = 0.5 + 1.5*rng.Float64()
		}
		for j, row := 0, x.RawRow(i); j < m; j++ {
			row[j] = 10 * load[j] * z[j%r] * (1 + 0.05*rng.NormFloat64())
		}
	}
	return x
}

// The closed form agrees with plain GE1 within closedFormRelTol on every
// paper dataset and on synthetic latent-rank data at M = 8, 32 and 128.
func TestGE1ClosedFormMatchesGE1(t *testing.T) {
	type split struct{ train, test *matrix.Dense }
	cases := map[string]split{}
	for _, d := range []*dataset.Dataset{dataset.NBA(), dataset.Baseball(), dataset.Abalone()} {
		train, test, err := d.Split(0.8, 1)
		if err != nil {
			t.Fatal(err)
		}
		rows := test.X
		if rows.Rows() > 200 {
			rows = rows.SelectRows(seq(0, 200))
		}
		cases[d.Name] = split{train.X, rows}
	}
	rng := rand.New(rand.NewSource(7))
	for _, m := range []int{8, 32, 128} {
		cases[fmt.Sprintf("latent/M=%d", m)] = split{latentRows(rng, 1024, m, 4), latentRows(rng, 64, m, 4)}
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			miner, err := NewMiner()
			if err != nil {
				t.Fatal(err)
			}
			rules, err := miner.MineMatrix(c.train)
			if err != nil {
				t.Fatal(err)
			}
			if got := planPathColumns(rules); got != 0 {
				t.Fatalf("%d of %d columns on the plan path; the test needs the closed form", got, rules.M())
			}
			want, err := GE1(rules, c.test)
			if err != nil {
				t.Fatal(err)
			}
			got, err := GE1With(rules, c.test, GEOptions{})
			if err != nil {
				t.Fatal(err)
			}
			rel := math.Abs(got-want) / want
			t.Logf("M=%d k=%d GE1 %.6g closed form %.6g rel %.2g", rules.M(), rules.K(), want, got, rel)
			if !(rel <= closedFormRelTol) {
				t.Fatalf("closed form %v vs GE1 %v: relative gap %g > %g", got, want, rel, closedFormRelTol)
			}
		})
	}
}

// FuzzGE1LeaveOneOut checks GE1With against plain GE1 on random rule
// matrices: orthonormal ones with one row pulled toward a unit vector
// (so 1 − ‖vⱼ‖² sweeps across looMinDenom), and non-orthonormal uploads.
// Wherever every column takes the plan path the two must be
// bit-identical; elsewhere they must agree within closedFormRelTol.
func FuzzGE1LeaveOneOut(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(2), 0.0, 0.0)
	f.Add(int64(2), uint8(8), uint8(3), 1e-2, 0.0)
	f.Add(int64(3), uint8(5), uint8(2), 3e-2, 0.0)
	f.Add(int64(4), uint8(7), uint8(1), 1e-4, 0.0)
	f.Add(int64(5), uint8(6), uint8(3), 0.0, 1e-9)
	f.Add(int64(6), uint8(4), uint8(4), 0.0, 0.0)
	f.Add(int64(7), uint8(9), uint8(0), 0.0, 0.0)

	f.Fuzz(func(t *testing.T, seed int64, mw, kw uint8, pull, skew float64) {
		m := 2 + int(mw)%11
		k := int(kw) % (m + 1)
		if math.IsNaN(pull) || math.IsNaN(skew) || math.Abs(skew) > 0.5 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		v := randomOrthonormal(rng, m, k, math.Abs(pull))
		for i, x := range v.RawData() {
			v.RawData()[i] = x * (1 + skew*rng.NormFloat64())
		}
		means := make([]float64, m)
		for j := range means {
			means[j] = 10 * rng.NormFloat64()
		}
		rules := &Rules{means: means, v: v, eigenvalues: make([]float64, k)}
		test := matrix.NewDense(8, m)
		for i, row := 0, test.RawData(); i < len(row); i++ {
			row[i] = means[i%m] + rng.NormFloat64()
		}

		want, err := GE1(rules, test)
		if err != nil {
			t.Fatal(err)
		}
		got, err := GE1With(rules, test, GEOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if planPathColumns(rules) == m {
			if got != want {
				t.Fatalf("m=%d k=%d: plan-path GE1With %v != GE1 %v", m, k, got, want)
			}
			return
		}
		if rel := math.Abs(got-want) / want; !(rel <= closedFormRelTol) {
			t.Fatalf("m=%d k=%d pull=%g skew=%g: closed form %v vs GE1 %v (rel %g)",
				m, k, pull, skew, got, want, rel)
		}
	})
}

// randomOrthonormal returns an m×k matrix with orthonormal columns whose
// first column is e₀ + pull·g (g Gaussian) normalized: small pulls put
// row 0 of the result near a unit vector, so 1 − ‖v₀‖² ≈ pull²·(m−1).
func randomOrthonormal(rng *rand.Rand, m, k int, pull float64) *matrix.Dense {
	v := matrix.NewDense(m, k)
	for c := 0; c < k; c++ {
		col := make([]float64, m)
		for i := range col {
			col[i] = rng.NormFloat64()
		}
		if c == 0 && pull > 0 {
			for i := range col {
				col[i] *= pull
			}
			col[0] = 1
		}
		for pass := 0; pass < 2; pass++ { // twice is enough (Kahan)
			for p := 0; p < c; p++ {
				prev := v.Col(p)
				d := matrix.Dot(col, prev)
				for i := range col {
					col[i] -= d * prev[i]
				}
			}
		}
		matrix.Normalize(col)
		for i, x := range col {
			v.Set(i, c, x)
		}
	}
	return v
}
