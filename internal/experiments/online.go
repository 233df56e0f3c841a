package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"ratiorules/internal/obs"
	"ratiorules/internal/online"
	"ratiorules/internal/server"
)

// OnlineResult measures the live-ingest subsystem off the HTTP path:
// raw Push throughput into a StreamMiner-backed stream, the latency of
// a republish (snapshot, re-mine, GE gate, publish), and how much of
// that latency the GE gate itself costs.
type OnlineResult struct {
	Rows          int
	Width         int
	ReservoirSize int

	PushTime      time.Duration // all rows, excluding republishes
	RowsPerSecond float64

	Republishes    int
	Promotions     int
	Rejections     int
	RepublishTotal time.Duration
	RepublishMean  time.Duration

	// GEGate figures come from the rr_online_ge_gate_seconds histogram;
	// OverheadFrac is gate time as a fraction of total republish time.
	GEGateTotal  time.Duration
	GEGateMean   time.Duration
	OverheadFrac float64
}

// onlineGateSeconds snapshots the online republish/gate histograms.
func onlineGateSeconds() (gateSum, gateCount, repSum float64) {
	for _, s := range obs.Default().Gather() {
		switch s.Name {
		case "rr_online_ge_gate_seconds_sum":
			gateSum = s.Value
		case "rr_online_ge_gate_seconds_count":
			gateCount = s.Value
		case "rr_online_republish_seconds_sum":
			repSum = s.Value
		}
	}
	return gateSum, gateCount, repSum
}

// RunOnline streams rows <= 0 ? 100000 : rows synthetic ratio rows of
// width <= 0 ? 32 : width through one live stream, republishing every
// rows/16 rows the way the row-count trigger would. Rows follow a fixed
// latent profile with mild multiplicative noise; successive candidates
// hover around the same tiny GE, so the run exercises both gate
// outcomes and the measured costs are the steady-state ones.
func RunOnline(rows, width int) (*OnlineResult, error) {
	if rows <= 0 {
		rows = 100000
	}
	if width <= 0 {
		width = 32
	}
	republishes := 16
	chunk := rows / republishes
	if chunk < 1 {
		chunk = 1
	}

	mgr, err := online.NewManager(server.NewRegistry(), online.Config{
		// Row-count triggering is driven manually below so the push
		// loop times only pushes.
		RepublishRows: rows + 1,
		Metrics:       obs.Default(),
		Seed:          SplitSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: online manager: %w", err)
	}
	defer mgr.Close()
	stream, err := mgr.Stream("bench", 0, false)
	if err != nil {
		return nil, fmt.Errorf("experiments: online stream: %w", err)
	}

	// A rank-1 latent profile: row = profile * scale * (1 + noise).
	rng := rand.New(rand.NewSource(SplitSeed))
	profile := make([]float64, width)
	for j := range profile {
		profile[j] = 1 + rng.Float64()*4
	}
	data := make([][]float64, rows)
	for i := range data {
		scale := 1 + rng.Float64()*9
		row := make([]float64, width)
		for j := range row {
			row[j] = profile[j] * scale * (1 + 0.05*rng.NormFloat64())
		}
		data[i] = row
	}

	out := &OnlineResult{Rows: rows, Width: width,
		ReservoirSize: online.DefaultReservoirSize}
	ctx := context.Background()
	gateSum0, gateCount0, repSum0 := onlineGateSeconds()

	var pushTime time.Duration
	for start := 0; start < rows; start += chunk {
		end := start + chunk
		if end > rows {
			end = rows
		}
		t0 := time.Now()
		for _, row := range data[start:end] {
			if _, err := stream.Push(ctx, row); err != nil {
				return nil, fmt.Errorf("experiments: online push: %w", err)
			}
		}
		pushTime += time.Since(t0)
		res, err := mgr.Republish(ctx, "bench")
		if err != nil {
			return nil, fmt.Errorf("experiments: online republish: %w", err)
		}
		out.Republishes++
		if res.Promoted {
			out.Promotions++
		} else {
			out.Rejections++
		}
	}

	gateSum1, gateCount1, repSum1 := onlineGateSeconds()
	out.PushTime = pushTime
	if pushTime > 0 {
		out.RowsPerSecond = float64(rows) / pushTime.Seconds()
	}
	out.RepublishTotal = time.Duration((repSum1 - repSum0) * float64(time.Second))
	if out.Republishes > 0 {
		out.RepublishMean = out.RepublishTotal / time.Duration(out.Republishes)
	}
	out.GEGateTotal = time.Duration((gateSum1 - gateSum0) * float64(time.Second))
	if n := gateCount1 - gateCount0; n > 0 {
		out.GEGateMean = time.Duration((gateSum1 - gateSum0) / n * float64(time.Second))
	}
	if rep := repSum1 - repSum0; rep > 0 {
		out.OverheadFrac = (gateSum1 - gateSum0) / rep
	}
	return out, nil
}

// String renders the ingest/republish/gate timings.
func (r *OnlineResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Online ingest: %d rows x %d cols, reservoir %d\n\n",
		r.Rows, r.Width, r.ReservoirSize)
	fmt.Fprintf(&b, "%-34s %12s\n", "push time (all rows)", r.PushTime.Round(time.Millisecond))
	fmt.Fprintf(&b, "%-34s %12.0f\n", "push throughput (rows/s)", r.RowsPerSecond)
	fmt.Fprintf(&b, "%-34s %12d (%d promoted, %d rejected)\n", "republishes",
		r.Republishes, r.Promotions, r.Rejections)
	fmt.Fprintf(&b, "%-34s %12s\n", "republish latency (mean)", r.RepublishMean.Round(time.Microsecond))
	fmt.Fprintf(&b, "%-34s %12s\n", "GE gate latency (mean)", r.GEGateMean.Round(time.Microsecond))
	fmt.Fprintf(&b, "\nGE gate is %.1f%% of republish time\n", 100*r.OverheadFrac)
	return b.String()
}
