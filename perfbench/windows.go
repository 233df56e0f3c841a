package main

import (
	"time"
)

// The gated throughput, CPU and memory figures are medians over
// one-second windows of the measured interval, so a burst of
// interference from the shared machine moves one window, not the run's
// figure. Latency percentiles are not windowed: they are taken over the
// whole run, so a stall counts against every operation it delays.

// windowWidth is the width of one measurement window.
const windowWidth = time.Second

// tick is one sample of the server taken at a window boundary.
type tick struct {
	at    time.Time
	cpu   time.Duration
	rssMB float64
}

// sampleServer samples the server's CPU time and resident set at
// start + i*windowWidth for i = 0..n.
func sampleServer(p *proc, start time.Time, n int) ([]tick, error) {
	ticks := make([]tick, 0, n+1)
	for i := 0; i <= n; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * windowWidth)))
		cpu, err := p.cpu()
		if err != nil {
			return nil, err
		}
		rss, err := p.statusMB("VmRSS:")
		if err != nil {
			return nil, err
		}
		ticks = append(ticks, tick{time.Now(), cpu, rss})
	}
	return ticks, nil
}

// completion is one answered operation; primary marks the workload's
// primary operation, which ops_per_s counts, and ms is its latency.
type completion struct {
	at      time.Time
	primary bool
	ms      float64
}

// windowPct is the median over windows of each window's p-th
// percentile of the operations' latencies.
func windowPct(ticks []tick, lat []completion, p float64) float64 {
	var per []float64
	for i := 0; i+1 < len(ticks); i++ {
		var xs []float64
		for _, c := range lat {
			if !c.at.Before(ticks[i].at) && c.at.Before(ticks[i+1].at) {
				xs = append(xs, c.ms)
			}
		}
		if len(xs) > 0 {
			per = append(per, pct(xs, p))
		}
	}
	return median(per)
}

// windowed is the median over windows of each per-window figure.
type windowed struct {
	opsPerS, cpuPerOp, rssMB float64
	windows, primary, all    int
}

func windowStats(ticks []tick, ops []completion) windowed {
	var rate, cpu, rss []float64
	w := windowed{windows: len(ticks) - 1}
	for i := 0; i+1 < len(ticks); i++ {
		lo, hi := ticks[i].at, ticks[i+1].at
		primary, all := 0, 0
		for _, c := range ops {
			if c.at.Before(lo) || !c.at.Before(hi) {
				continue
			}
			all++
			if c.primary {
				primary++
			}
		}
		w.primary += primary
		w.all += all
		rate = append(rate, float64(primary)/hi.Sub(lo).Seconds())
		cpu = append(cpu, us(ticks[i+1].cpu-ticks[i].cpu)/float64(max(all, 1)))
		rss = append(rss, ticks[i+1].rssMB)
	}
	w.opsPerS, w.cpuPerOp, w.rssMB = median(rate), median(cpu), median(rss)
	return w
}
