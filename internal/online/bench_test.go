package online

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ratiorules/internal/obs"
)

// BenchmarkRepublish times one republish of a 2048-row stream of
// rank-4 latent rows (the shape perfbench's ingest workloads send) at
// M = 8 and M = 128, stage by stage: the snapshot taken under the
// stream lock, the candidate's eigensolve, and the GE₁ gate scoring
// the candidate and the served model on the 256-row holdout. The
// store write is left out; perfbench's store.put_ms measures it on a
// real WAL. Each stage is reported as ms/op next to the total ns/op.
func BenchmarkRepublish(b *testing.B) {
	for _, m := range []int{8, 128} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			mgr, err := NewManager(newTestStore(), Config{
				RepublishRows: 1 << 30, // republish only when the loop says so
				Metrics:       obs.NewRegistry(),
			})
			if err != nil {
				b.Fatal(err)
			}
			defer mgr.Close()
			ctx := context.Background()
			st, err := mgr.Stream("bench", 0, false)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			load := make([]float64, m)
			for j := range load {
				load[j] = 0.5 + rng.Float64()
			}
			row := make([]float64, m)
			z := make([]float64, 4)
			for i := 0; i < 2048; i++ {
				for f := range z {
					z[f] = 0.5 + 1.5*rng.Float64()
				}
				for j := range row {
					row[j] = 10 * load[j] * z[j%len(z)] * (1 + 0.05*rng.NormFloat64())
				}
				if _, err := st.Push(ctx, row); err != nil {
					b.Fatal(err)
				}
			}
			// The first publish seeds the served model the gate defends.
			if _, err := mgr.Republish(ctx, "bench"); err != nil {
				b.Fatal(err)
			}

			var snap, solve, gate time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				clone, holdout, err := st.snapshot()
				t1 := time.Now()
				if err != nil {
					b.Fatal(err)
				}
				candidate, err := clone.Rules()
				t2 := time.Now()
				if err != nil {
					b.Fatal(err)
				}
				res, err := mgr.geGate(ctx, "bench", candidate, holdout)
				t3 := time.Now()
				if err != nil || res.Reason != "ge_ok" {
					b.Fatalf("gate: %+v, %v", res, err)
				}
				snap += t1.Sub(t0)
				solve += t2.Sub(t1)
				gate += t3.Sub(t2)
			}
			perOp := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(b.N) }
			b.ReportMetric(perOp(snap), "snapshot-ms/op")
			b.ReportMetric(perOp(solve), "eigensolve-ms/op")
			b.ReportMetric(perOp(gate), "gate-ms/op")
		})
	}
}
