package core

import (
	"context"
	"fmt"
	"math"

	"ratiorules/internal/matrix"
	"ratiorules/internal/stats"
)

// StreamMiner maintains the single-pass covariance sums incrementally so
// rules can be (re-)derived at any point of an unbounded stream — an
// extension of the paper's one-pass algorithm to continuous operation.
// Push is O(M²); Rules costs one O(M³) eigensolve on the current sums and
// can be called as often as needed.
//
// An optional exponential decay geometrically down-weights old rows so
// the rules track drifting ratios; with decay 0 (the default) the stream
// miner is exactly equivalent to batch mining of all pushed rows: the
// accumulated sums are the same quantities Mine computes in its single
// pass, so Rules agrees with Mine on the same rows to floating-point
// round-off (within 1e-12 — pinned by TestStreamMinerBatchEquivalence).
//
// StreamMiner is not safe for concurrent use; wrap it in a mutex if
// multiple goroutines push (internal/online does exactly that).
type StreamMiner struct {
	miner *Miner
	width int
	decay float64

	// Decayed sufficient statistics. With decay λ, after pushing rows
	// x₁..xₙ the weight of xᵢ is (1−λ)^(n−i):
	//   weight  = Σ wᵢ
	//   sums[j] = Σ wᵢ·xᵢⱼ
	//   cross   = Σ wᵢ·xᵢ·xᵢᵗ (upper triangle)
	weight float64
	count  int
	sums   []float64
	cross  *matrix.Dense
}

// NewStreamMiner returns a stream miner for rows of the given width,
// configured by the same options as NewMiner, with exponential decay
// lambda in [0, 1): each new row multiplies all previous weights by
// (1−lambda).
func NewStreamMiner(width int, lambda float64, opts ...Option) (*StreamMiner, error) {
	if width <= 0 {
		return nil, fmt.Errorf("core: stream miner width %d: %w", width, ErrWidth)
	}
	if lambda < 0 || lambda >= 1 {
		return nil, fmt.Errorf("core: decay %v outside [0, 1)", lambda)
	}
	m, err := NewMiner(opts...)
	if err != nil {
		return nil, err
	}
	if m.attrs != nil && len(m.attrs) != width {
		return nil, fmt.Errorf("core: %d attribute names for width %d: %w", len(m.attrs), width, ErrWidth)
	}
	return &StreamMiner{
		miner: m,
		width: width,
		decay: lambda,
		sums:  make([]float64, width),
		cross: matrix.NewDense(width, width),
	}, nil
}

// Push folds one row into the decayed sums.
func (s *StreamMiner) Push(row []float64) error {
	if len(row) != s.width {
		return fmt.Errorf("core: stream row width %d, want %d: %w", len(row), s.width, ErrWidth)
	}
	for j, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: stream row column %d has value %v: %w", j, v, stats.ErrBadValue)
		}
	}
	if s.decay > 0 {
		keep := 1 - s.decay
		s.weight *= keep
		for j := range s.sums {
			s.sums[j] *= keep
		}
		for j := 0; j < s.width; j++ {
			r := s.cross.RawRow(j)
			for l := j; l < s.width; l++ {
				r[l] *= keep
			}
		}
	}
	s.weight++
	s.count++
	for j, v := range row {
		s.sums[j] += v
		if v == 0 {
			continue
		}
		r := s.cross.RawRow(j)
		for l := j; l < s.width; l++ {
			r[l] += v * row[l]
		}
	}
	return nil
}

// Clone returns a deep copy of the miner's sufficient statistics that
// shares only the (immutable) mining configuration, so the copy can be
// re-mined while the original keeps taking rows. It costs one O(M²)
// copy of the cross matrix.
func (s *StreamMiner) Clone() *StreamMiner {
	c := *s
	c.sums = append([]float64(nil), s.sums...)
	c.cross = s.cross.Clone()
	return &c
}

// Count reports how many rows have been pushed (undecayed).
func (s *StreamMiner) Count() int { return s.count }

// Width reports the row width M the miner accumulates.
func (s *StreamMiner) Width() int { return s.width }

// Decay reports the exponential decay lambda the miner was built with.
func (s *StreamMiner) Decay() float64 { return s.decay }

// Merge folds another accumulator's decayed sums into s, enabling
// sharded parallel ingest: split a stream across shards, Push into each
// concurrently, then Merge the shards into one. Both miners must have
// the same width and decay (ErrWidth / an error otherwise); other is
// left untouched. With decay 0 the merged miner is exactly equivalent
// to a single miner that saw every row of both shards, in any order.
// With decay > 0 each shard's rows keep the weights their own shard
// assigned them, so Merge sums two independently decayed histories —
// the right semantics for shards fed round-robin at similar rates.
func (s *StreamMiner) Merge(other *StreamMiner) error {
	if other.width != s.width {
		return fmt.Errorf("core: merging %d-wide stream into %d-wide: %w",
			other.width, s.width, ErrWidth)
	}
	if other.decay != s.decay {
		return fmt.Errorf("core: merging stream with decay %v into decay %v", other.decay, s.decay)
	}
	s.weight += other.weight
	s.count += other.count
	for j, v := range other.sums {
		s.sums[j] += v
	}
	for j := 0; j < s.width; j++ {
		dst, src := s.cross.RawRow(j), other.cross.RawRow(j)
		for l := j; l < s.width; l++ {
			dst[l] += src[l]
		}
	}
	return nil
}

// Rules derives the Ratio Rules from the current (decayed) sums. At least
// two rows must have been pushed.
func (s *StreamMiner) Rules() (*Rules, error) {
	if s.count < 2 {
		return nil, fmt.Errorf("core: stream mining needs at least 2 rows, got %d", s.count)
	}
	means := make([]float64, s.width)
	for j, v := range s.sums {
		means[j] = v / s.weight
	}
	scatter := matrix.NewDense(s.width, s.width)
	for j := 0; j < s.width; j++ {
		for l := j; l < s.width; l++ {
			v := s.cross.At(j, l) - s.weight*means[j]*means[l]
			scatter.Set(j, l, v)
			scatter.Set(l, j, v)
		}
	}
	return s.miner.rulesFromScatter(context.Background(), scatter, means, s.count)
}
