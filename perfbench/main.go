// Command perfbench is the repository's benchmark: it starts the rrserve
// binary built from the working tree, drives it over HTTP from this one
// process with at most two connections, checks the answers, and prints
// end-to-end metrics (--trace 0) or a per-layer breakdown (--trace 1).
// run.sh builds both binaries and runs this one; README.md describes the
// workloads and what each metric is expected to move.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"ratiorules/internal/core"
	"ratiorules/internal/online"
)

// republishRows is the live stream's row-count republish trigger: the
// benchmark runs rrserve with its default -republish-rows (see topUp).
const republishRows = online.DefaultRepublishRows

// model is the name every workload mines, ingests into and reads.
const model = "m"

// setups is how many times a run starts rrserve and seeds it; setup_s
// is their median and the last server is the one measured.
const setups = 5

// tenantToken authenticates serve_mixed's reader and writer. Tenants
// scope model names, so both connections use one tenant to share the
// model; its limits sit far above the offered load, so nothing sheds.
const tenantToken = "bench-app-token"

const tenantsJSON = `{"tenants": [{"id": "app", "token": "` + tenantToken + `", "limits": {
  "requests_per_second": 1000000, "rows_per_second": 1000000,
  "batch_rows_per_second": 1000000, "max_in_flight": 64}}]}`

func main() {
	var (
		workload = flag.String("workload", "", "workload name: "+strings.Join(workloadNames, ", "))
		seed     = flag.Int64("seed", 1, "input generation seed")
		seconds  = flag.Int("seconds", 10, "measured seconds")
		traced   = flag.Int("trace", 0, "1 prints the per-layer breakdown instead of end-to-end metrics")
		bin      = flag.String("rrserve", "", "rrserve binary to benchmark")
		workDir  = flag.String("workdir", "", "directory for the server's data (removed afterwards)")
	)
	if len(os.Args) == 2 && os.Args[1] == keepAwakeFlag {
		if err := spinIdle(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	flag.Parse()
	sp, ok := specs[*workload]
	if !ok || *bin == "" || *workDir == "" || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 -rrserve BIN -workdir DIR")
		os.Exit(2)
	}
	if err := run(sp, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *bin, *workDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result collects one run's figures.
type result struct {
	values  map[string]float64
	samples map[string]int
	ops     map[string]*opCount
	checks  []error
}

func newResult() *result {
	return &result{values: map[string]float64{}, samples: map[string]int{}, ops: map[string]*opCount{}}
}

func (r *result) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

func (r *result) op(kind string, attempted, failed int) {
	c := r.ops[kind]
	if c == nil {
		c = &opCount{}
		r.ops[kind] = c
	}
	c.attempted += attempted
	c.failed += failed
}

func (r *result) check(err error) {
	if err != nil {
		r.checks = append(r.checks, err)
	}
}

func (r *result) totals() (attempted, failed int) {
	for _, c := range r.ops {
		attempted += c.attempted
		failed += c.failed
	}
	return attempted, failed
}

// e2e is what the end-to-end phase hands to the traced phase.
type e2e struct {
	before, after scrape
	wall          time.Duration // first timed request to the end of the run
	completedOps  int
	rows          int     // ingest rows acked
	reads         int     // fills + model GETs answered (all connections)
	fills         int     // single fills answered
	batchRows     int     // batch rows answered
	clientRowUS   float64 // wall µs per ingest row seen by the client
	serverCPU     time.Duration
	stealFrac     float64    // share of the machine's CPU time the host stole
	wakeUS        [2]float64 // wakeProbe before set-up and after the run
	hostSpeed     float64    // spinner loops per ms of their CPU time in the window
}

func run(sp spec, seed int64, window time.Duration, traced bool, bin, workDir string) error {
	ctx := context.Background()
	in := generate(sp, seed)
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	token := ""
	tenants := filepath.Join(dir, "tenants.json")
	if sp.tenants {
		if err := os.WriteFile(tenants, []byte(tenantsJSON), 0o600); err != nil {
			return err
		}
		token = tenantToken
	}
	// rrserve runs with its shipped defaults apart from these.
	serverArgs := func(dataDir string) []string {
		args := []string{"-addr", "127.0.0.1:0", "-data-dir", dataDir}
		if sp.tenants {
			args = append(args, "-tenants-file", tenants)
		}
		return args
	}

	spin, err := keepAwake()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: running without keeping the CPUs awake:", err)
	} else {
		defer spin.stop()
	}
	wake0 := wakeProbe()
	res := newResult()
	ctl := newClient()
	defer closeClient(ctl)
	var srv *proc
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return fmt.Errorf("stopping set-up server: %w", err)
			}
		}
		start := time.Now()
		srv, err = startRRServe(bin, serverArgs(filepath.Join(dir, fmt.Sprintf("data-%d", i))))
		if err != nil {
			return err
		}
		if err := setUp(ctx, ctl, srv, in, token); err != nil {
			_ = srv.stop()
			return err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		closeClient(ctl)
	}
	res.set("setup_s", median(setupTimes), len(setupTimes))

	ran, runErr := measure(ctx, ctl, srv, spin, sp, in, token, window, res)
	if stopErr := srv.stop(); runErr == nil && stopErr != nil {
		runErr = fmt.Errorf("stopping rrserve: %w", stopErr)
	}
	if runErr != nil {
		return fmt.Errorf("%w\nrrserve log tail:\n%s", runErr, srv.logTail())
	}
	ran.wakeUS = [2]float64{wake0, wakeProbe()}

	printConditions(srv.cmd.Args[1:], sp, seed, window, traced, spin != nil, ran)
	names := endToEndMetrics
	if traced {
		if err := layers(sp, in, dir, ran, res); err != nil {
			return err
		}
		names = perLayerMetrics
	}
	return printResult(res, names)
}

// setUp waits for /readyz and mines the seed model: the part of start-up
// every workload pays before its first timed request.
func setUp(ctx context.Context, cl *http.Client, srv *proc, in *inputs, token string) error {
	rctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := srv.waitReady(rctx, cl); err != nil {
		return err
	}
	req, _ := http.NewRequestWithContext(rctx, "POST", srv.base+"/v1/rules", bytes.NewReader(mineBody(model, in.seedRows)))
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := cl.Do(req)
	if err != nil {
		return fmt.Errorf("seeding model: %w", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("seeding model: %s: %s", resp.Status, body)
	}
	return nil
}

// getModel fetches and parses the served model.
func getModel(ctx context.Context, cl *http.Client, base, token string) (*core.Rules, error) {
	req, _ := http.NewRequestWithContext(ctx, "GET", base+"/v1/rules/"+model, nil)
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := cl.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET model answered %s", resp.Status)
	}
	return core.Load(resp.Body)
}

// driven is what runIngest, runMixed and runBatch hand back: the generator's
// lateness samples (ns), every answered operation, and the latencies
// (ms) of the workload's primary latency, which latency_p50_ms
// summarises.
type driven struct {
	late  []int64
	comps []completion
	lat   []completion
}

// measure runs the workload's timed window against srv and fills res
// with the end-to-end figures and output checks.
func measure(ctx context.Context, ctl *http.Client, srv *proc, spin *spinner, sp spec, in *inputs, token string,
	window time.Duration, res *result) (*e2e, error) {
	var batch *batchChecker
	if sp.name == "batch_fill" {
		rules, err := getModel(ctx, ctl, srv.base, token)
		if err != nil {
			return nil, err
		}
		if batch, err = newBatchChecker(rules, in); err != nil {
			return nil, err
		}
	}
	ran := &e2e{}
	var err error
	if ran.before, err = scrapeMetrics(ctx, ctl, srv.base); err != nil {
		return nil, err
	}
	closeClient(ctl)
	cpu0, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	var ru0 syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)
	total0, steal0, err := machineCPU()
	if err != nil {
		return nil, err
	}
	var loops0, spun0 int64
	if spin != nil {
		if loops0, spun0, err = spin.read(); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	stopAt := start.Add(window)
	nWindows := int(window / windowWidth)
	var ticks []tick
	var tickErr error
	var loops1, spun1 int64
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		ticks, tickErr = sampleServer(srv, start, nWindows)
		if spin != nil && tickErr == nil {
			loops1, spun1, tickErr = spin.read()
		}
	}()

	var d driven
	switch sp.name {
	case "ingest_narrow", "ingest_wide":
		d, err = runIngest(ctx, srv, sp, in, stopAt, ran, res)
	case "serve_mixed":
		d, err = runMixed(ctx, srv, sp, in, token, stopAt, ran, res)
	case "batch_fill":
		d, err = runBatch(ctx, srv, sp, in, stopAt, batch, ran, res)
	}
	<-sampled
	if err = errors.Join(err, tickErr); err != nil {
		return nil, err
	}
	ran.wall = time.Since(start)
	if spin != nil {
		ran.hostSpeed = float64(loops1-loops0) / (float64(spun1-spun0) / 1e6)
	}
	w := windowStats(ticks, d.comps)
	lats := millis(d.lat)
	p50 := pct(lats, 50)
	if sp.windowed {
		p50 = windowPct(ticks, d.lat, 50)
		res.set("latency_p99_ms", pct(lats, 99), len(lats))
	}
	res.set("ops_per_s_raw", w.opsPerS, w.primary)
	res.set("latency_p50_ms_raw", p50, len(lats))
	res.set("server_cpu_us_per_op_raw", w.cpuPerOp, w.all)
	// The gated figures are given at the reference host speed (see
	// refHostSpeed). A rate the generator offers does not depend on it.
	f := 1.0
	if ran.hostSpeed > 0 {
		f = ran.hostSpeed / refHostSpeed
	}
	ops := w.opsPerS / f
	if sp.readRate > 0 {
		ops = w.opsPerS
	}
	res.set("ops_per_s", ops, w.primary)
	res.set("latency_p50_ms", p50*f, len(lats))
	res.set("server_cpu_us_per_op", w.cpuPerOp*f, w.all)
	res.set("server_rss_mb", w.rssMB, w.windows)

	cpu1, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	var ru1 syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	ran.serverCPU = cpu1 - cpu0
	total1, steal1, err := machineCPU()
	if err != nil {
		return nil, err
	}
	ran.stealFrac = float64(steal1-steal0) / float64(max(total1-total0, 1))
	if ran.after, err = scrapeMetrics(ctx, ctl, srv.base); err != nil {
		return nil, err
	}
	peak, err := srv.statusMB("VmHWM:")
	if err != nil {
		return nil, err
	}
	if sp.name == "ingest_narrow" || sp.name == "ingest_wide" {
		served, err := getModel(ctx, ctl, srv.base, token)
		if err != nil {
			return nil, err
		}
		res.check(checkIngested(served, in, ran.rows))
	}
	closeClient(ctl)

	attempted, failed := res.totals()
	ran.completedOps = attempted - failed
	res.set("server_peak_rss_mb", peak, 1)
	res.set("ops_failed_frac", float64(failed)/float64(max(attempted, 1)), attempted)
	res.set("loadgen.cpu_s", tv(ru1.Utime)+tv(ru1.Stime)-tv(ru0.Utime)-tv(ru0.Stime), 1)
	res.set("loadgen.late_p99_ms", pct(nsToMS(d.late), 99), len(d.late))
	return ran, nil
}

// millis lists the operations' latencies in ms.
func millis(cs []completion) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = c.ms
	}
	return out
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

func nsToMS(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}

// pct is the p-th percentile by linear interpolation between ranks.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := p / 100 * float64(len(s)-1)
	lo := int(r)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (r-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return pct(xs, 50) }
