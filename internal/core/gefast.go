package core

import (
	"fmt"
	"math"

	"ratiorules/internal/linsolve"
	"ratiorules/internal/matrix"
)

// GEOptions is the options argument of GE1With. It has no fields: the
// closed form below needs no tuning, and the type stays so callers keep
// one signature should a knob return.
type GEOptions struct{}

// Closed-form limits. Outside them a column (looMinDenom) or the whole
// rule matrix (looOrthoTol) takes the plan path.
const (
	// looMinDenom is the smallest 1 − hⱼ the closed form divides by,
	// where hⱼ is attribute j's leverage (‖vⱼ‖² for orthonormal V). The
	// denominator's own round-off, ~1e-16, is magnified by 1/(1 − hⱼ),
	// so at 1e-3 it stays near 1e-13 relative. Columns this close to the
	// rule space (an attribute that is nearly a rule on its own) are
	// rare; the plan path's SVD pseudo-inverse needs no such division,
	// down to the exactly singular case where it returns the
	// minimum-norm answer.
	looMinDenom = 1e-3
	// looOrthoTol is the largest |(VᵀV − I)ᵢⱼ| accepted as orthonormal.
	// Mined rules sit near 1e-15; a model uploaded through PUT /v1/rules
	// can carry any V, and one further from orthonormal than this takes
	// the plan path throughout, so the closed form never inverts an
	// ill-conditioned VᵀV.
	looOrthoTol = 1e-6
)

// GE1With computes the same single-hole guessing error as GE1, built for
// the republish gate, which scores two models against the holdout
// reservoir on every republish.
//
// For a *Rules estimator with k < M, hiding cell j of a row is the
// over-specified case of Sec. 4.4: least squares on V with row j
// removed. Its normal matrix is VᵀV − vⱼvⱼᵀ (I − vⱼvⱼᵀ for the
// orthonormal rules mining produces), and Sherman–Morrison gives the
// fill error in closed form, the PRESS identity:
//
//	error(i, j) = (uⱼ·y − zⱼ) / (1 − hⱼ),  z = x − μ,  y = Vᵀz,
//	uⱼ = (VᵀV)⁻¹vⱼ,  hⱼ = uⱼ·vⱼ
//
// With VᵀV = I this is (vⱼ·y − zⱼ) / (1 − ‖vⱼ‖²); using the computed
// VᵀV instead of I keeps the rules' own round-off from being magnified
// by 1/(1 − hⱼ)². Each row costs one O(M·k) projection and each cell
// O(k), O(N·M·k) in all, where GE1 factorizes V′ for every one of the
// N·M cells. The result agrees with GE1 to round-off
// (TestGE1ClosedFormMatchesGE1 states the bound).
//
// The rest takes the plan path: the single-hole pseudo-inverse plans of
// the rule set's plan cache, shared with the batch engine, computed
// exactly as GE1 computes them. That is every column when k ≥ M (Case 3),
// when k = 0 (the plans then do no solve) or when V is not orthonormal
// within looOrthoTol, and any column whose 1 − hⱼ is below looMinDenom.
// Estimators other than *Rules use plain GE1.
func GE1With(est Estimator, test *matrix.Dense, _ GEOptions) (float64, error) {
	r, ok := est.(*Rules)
	if !ok {
		return GE1(est, test)
	}
	n, m := test.Dims()
	if m != r.M() {
		return 0, fmt.Errorf("core: GE1 on %d-wide matrix with %d-wide estimator: %w",
			m, r.M(), ErrWidth)
	}
	if n == 0 || m == 0 {
		return 0, nil
	}
	sum, err := r.ge1Rows(test)
	if err != nil {
		return 0, err
	}
	ge := math.Sqrt(sum / float64(n*m))
	recordGE("ge1", 1, ge)
	return ge, nil
}

// leaveOneOut is the row-independent part of the closed form, computed
// once per rule set.
type leaveOneOut struct {
	// u is the M×k matrix V·(VᵀV)⁻¹, row-major: row j is uⱼ. Nil sends
	// every column to the plan path: k ≥ M, V not orthonormal, or k = 0,
	// where every fill is the column mean and the plan does no solve.
	u []float64
	// denom[j] is 1 − hⱼ when column j takes the closed form and 0 when
	// it takes the plan path. Nil exactly when u is.
	denom []float64
}

// leaveOneOut returns the rule set's closed-form data, building it on
// first use.
func (r *Rules) leaveOneOut() *leaveOneOut {
	r.looOnce.Do(func() {
		m, k := r.M(), r.K()
		if k == 0 || k >= m {
			return
		}
		gram := matrix.MustMul(r.v.T(), r.v)
		if !matrix.EqualApprox(gram, matrix.Identity(k), looOrthoTol) {
			return
		}
		inv, err := linsolve.Inverse(gram)
		if err != nil {
			return
		}
		u := matrix.MustMul(r.v, inv)
		r.loo.u = u.RawData()
		r.loo.denom = make([]float64, m)
		for j := range r.loo.denom {
			if d := 1 - matrix.Dot(u.RawRow(j), r.v.RawRow(j)); d >= looMinDenom {
				r.loo.denom[j] = d
			}
		}
	})
	return &r.loo
}

// singleHolePlan returns the fill plan for hiding attribute j alone,
// fetching it from the rule set's plan cache or factorizing and caching
// it once.
func (r *Rules) singleHolePlan(j int) (*fillPlan, error) {
	hole := []int{j}
	key := patternKey(hole, SolvePseudoInverse)
	if p, ok := r.plans.get(key); ok {
		fillCacheHits.Inc()
		return p, nil
	}
	fillCacheMisses.Inc()
	p, err := r.buildPlan(hole, SolvePseudoInverse)
	if err != nil {
		return nil, fmt.Errorf("core: GE1 plan for hole %d: %w", j, err)
	}
	r.plans.put(key, p)
	return p, nil
}

// ge1Rows returns the sum of the squared single-hole reconstruction
// errors over every cell of test: the closed form on the columns
// leaveOneOut admits, the cached single-hole plans on the rest. The plan
// half inlines the hole's part of applyPlan (gather the centered knowns,
// solve, expand only the hole) and keeps GE1's arithmetic, so it is
// bit-identical to GE1 when every column takes it.
func (r *Rules) ge1Rows(test *matrix.Dense) (float64, error) {
	n, m := test.Dims()
	k := r.K()
	loo := r.leaveOneOut()
	plans := make([]*fillPlan, m)
	for j := range plans {
		if loo.u != nil && loo.denom[j] != 0 {
			continue
		}
		p, err := r.singleHolePlan(j)
		if err != nil {
			return 0, err
		}
		plans[j] = p
	}
	var v []float64
	if loo.u != nil {
		v = r.v.RawData()
	}
	z := make([]float64, m)
	y := make([]float64, k)
	bPrime := make([]float64, m)
	var sum float64
	for i := 0; i < n; i++ {
		row := test.RawRow(i)
		for j, x := range row {
			z[j] = x - r.means[j]
		}
		if loo.u != nil {
			clear(y)
			for j, zj := range z {
				for c, vc := range v[j*k : (j+1)*k] {
					y[c] += vc * zj
				}
			}
		}
		for j := 0; j < m; j++ {
			var d float64
			if p := plans[j]; p == nil {
				var s float64
				for c, uc := range loo.u[j*k : (j+1)*k] {
					s += uc * y[c]
				}
				d = (s - z[j]) / loo.denom[j]
			} else {
				filled := r.means[j]
				if !p.degenerate {
					copy(bPrime, z[:j])
					copy(bPrime[j:], z[j+1:])
					x, err := p.solve(bPrime[:p.known])
					if err != nil {
						return 0, fmt.Errorf("core: GE1 at cell (%d,%d): %w", i, j, err)
					}
					var s float64
					for c := 0; c < p.kEff; c++ {
						s += r.v.At(j, c) * x[c]
					}
					filled = s + r.means[j]
				}
				d = filled - row[j]
			}
			sum += d * d
		}
	}
	return sum, nil
}
