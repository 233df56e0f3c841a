package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"ratiorules/internal/obs/profile"
	"ratiorules/internal/online"
	"ratiorules/internal/server"
)

// ProfileResult quantifies what the always-on profiling ring costs the
// hot path: raw live-ingest Push throughput with the capture loop
// parked versus running at a duty cycle far above the production
// default, so the measured overhead is a conservative ceiling.
type ProfileResult struct {
	Rows  int
	Width int

	// The ring cadence the profiled passes ran under.
	Interval    time.Duration
	CPUDuration time.Duration

	BaselineRowsPerSecond float64
	ProfiledRowsPerSecond float64
	// OverheadFrac is the throughput lost with the ring on:
	// (baseline - profiled) / baseline. Negative means noise.
	OverheadFrac float64

	// Captures retained by the ring over the profiled passes, and their
	// summed pprof blob size.
	Captures     int
	CaptureBytes int64
}

// The bench cadence is deliberately aggressive: a 5ms CPU window every
// 250ms is a 2% profiling duty cycle, ~25x the rrserve defaults (50ms
// every minute, 0.08%) — whatever overhead shows up here bounds
// production from above.
const (
	profileBenchInterval = 250 * time.Millisecond
	profileBenchCPU      = 5 * time.Millisecond
)

// RunProfileOverhead pushes rows <= 0 ? 200000 : rows synthetic ratio
// rows of width <= 0 ? 32 : width through a live stream twice over in
// alternating passes — ring parked, ring running — and compares Push
// throughput. Passes interleave (off/on/off/on) so clock drift and
// cache warmth cancel rather than biasing one side; a warmup pass
// fills the reservoir first so every timed pass sees steady state.
func RunProfileOverhead(rows, width int) (*ProfileResult, error) {
	if rows <= 0 {
		rows = 400000
	}
	if width <= 0 {
		width = 32
	}

	mgr, err := online.NewManager(server.NewRegistry(), online.Config{
		// No republishing: the passes time pushes and nothing else.
		RepublishRows: 1 << 30,
		Seed:          SplitSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: profile manager: %w", err)
	}
	defer mgr.Close()
	stream, err := mgr.Stream("bench", 0, false)
	if err != nil {
		return nil, fmt.Errorf("experiments: profile stream: %w", err)
	}

	rng := rand.New(rand.NewSource(SplitSeed))
	latent := make([]float64, width)
	for j := range latent {
		latent[j] = 1 + rng.Float64()*4
	}
	data := make([][]float64, rows)
	for i := range data {
		scale := 1 + rng.Float64()*9
		row := make([]float64, width)
		for j := range row {
			row[j] = latent[j] * scale * (1 + 0.05*rng.NormFloat64())
		}
		data[i] = row
	}

	ctx := context.Background()
	push := func() (time.Duration, error) {
		t0 := time.Now()
		for _, row := range data {
			if _, err := stream.Push(ctx, row); err != nil {
				return 0, fmt.Errorf("experiments: profile push: %w", err)
			}
		}
		return time.Since(t0), nil
	}

	// Warmup: fill the reservoir so timed passes all run steady-state.
	if _, err := push(); err != nil {
		return nil, err
	}

	ring := profile.New(profile.Config{
		Interval:    profileBenchInterval,
		CPUDuration: profileBenchCPU,
	})
	ringCtx, stopRing := context.WithCancel(ctx)
	defer stopRing()
	ringRunning := false
	var base, profiled time.Duration
	const pairs = 3
	for i := 0; i < pairs; i++ {
		d, err := push()
		if err != nil {
			return nil, err
		}
		base += d
		if !ringRunning {
			go ring.Run(ringCtx)
			ringRunning = true
		}
		if d, err = push(); err != nil {
			return nil, err
		}
		profiled += d
	}
	stopRing()

	out := &ProfileResult{
		Rows:         rows,
		Width:        width,
		Interval:     profileBenchInterval,
		CPUDuration:  profileBenchCPU,
		Captures:     ring.Len(),
		CaptureBytes: ring.TotalBytes(),
	}
	total := float64(rows * pairs)
	if base > 0 {
		out.BaselineRowsPerSecond = total / base.Seconds()
	}
	if profiled > 0 {
		out.ProfiledRowsPerSecond = total / profiled.Seconds()
	}
	if out.BaselineRowsPerSecond > 0 {
		out.OverheadFrac = (out.BaselineRowsPerSecond - out.ProfiledRowsPerSecond) /
			out.BaselineRowsPerSecond
	}
	return out, nil
}

// String renders the ring-off/ring-on comparison.
func (r *ProfileResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Continuous profiling overhead (%d rows x %d cols per pass)\n", r.Rows, r.Width)
	fmt.Fprintf(&b, "  ring cadence            %v interval, %v cpu window (duty %.1f%%)\n",
		r.Interval, r.CPUDuration, 100*r.CPUDuration.Seconds()/r.Interval.Seconds())
	fmt.Fprintf(&b, "  ingest, ring parked     %.0f rows/s\n", r.BaselineRowsPerSecond)
	fmt.Fprintf(&b, "  ingest, ring running    %.0f rows/s\n", r.ProfiledRowsPerSecond)
	fmt.Fprintf(&b, "  throughput overhead     %.2f%%\n", 100*r.OverheadFrac)
	fmt.Fprintf(&b, "  captures retained       %d (%d bytes of pprof blobs)\n", r.Captures, r.CaptureBytes)
	return b.String()
}
