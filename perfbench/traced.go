package main

// The traced phase. No tracing lives inside the program yet, so the
// spans here are the benchmark's own, recorded around calls into each
// layer's public functions on the workload's generated inputs, in this
// process. A layer's self time is its per-call span time minus the
// per-call time of the layers it calls on the same inputs: nested spans
// where the call passes through a seam the benchmark can wrap (the
// online.ModelStore a republish publishes through), separate passes
// where it cannot (the handler's call into online.Stream.Push).
// The self times are then weighted by the end-to-end run's operation
// counts and set against the server CPU that run measured; what they do
// not cover is reported as `unaccounted`, never dropped.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"ratiorules/internal/admission"
	"ratiorules/internal/core"
	"ratiorules/internal/matrix"
	"ratiorules/internal/obs"
	"ratiorules/internal/obs/trace"
	"ratiorules/internal/online"
	"ratiorules/internal/server"
	"ratiorules/internal/store"
)

// span is one timed call. parent is the index of the enclosing span, or
// -1 for a root.
type span struct {
	name       string
	parent     int
	start, end time.Duration
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.t0)})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].end = time.Since(t.t0) }

// medianUS is the median duration in µs of the spans named name.
func (t *tracer) medianUS(name string) float64 {
	var xs []float64
	for _, s := range t.spans {
		if s.name == name {
			xs = append(xs, us(s.end-s.start))
		}
	}
	return median(xs)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// overhead accumulates traced and untraced time over the per-call passes.
type overhead struct{ traced, plain time.Duration }

// perCall runs op(0..n-1) once to warm up, then in alternating rounds: an untraced round with
// one clock read around it, then a traced round with a span around every
// call. The traced rounds' spans stay in t; both totals feed ov. It
// returns the median over traced rounds of the mean µs per call, which
// keeps one round disturbed by the shared machine out of the figure.
func (t *tracer) perCall(ov *overhead, name string, n int, op func(i int)) float64 {
	const rounds = 5
	for i := 0; i < n; i++ { // warm-up: caches, branch predictors, clocks
		op(i)
	}
	var perRound []float64
	for r := 0; r < rounds; r++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		ov.plain += time.Since(start)
		start = time.Now()
		for i := 0; i < n; i++ {
			id := t.begin(name, -1)
			op(i)
			t.end(id)
		}
		d := time.Since(start)
		ov.traced += d
		perRound = append(perRound, us(d)/float64(n))
	}
	return median(perRound)
}

// timedStore is the online.ModelStore the traced republish goes through.
// A republish reads the served model right before its GE gate and
// publishes right after it, so spans around those two calls, nested
// under the republish span, mark the republish's phases in place:
// snapshot and eigensolve, gate, publish, bookkeeping. parent is -1
// outside a traced republish.
type timedStore struct {
	*server.Registry
	t      *tracer
	parent *int
}

func (s timedStore) GetWithVersion(name string) (*core.Rules, int, bool) {
	if *s.parent >= 0 {
		defer s.t.end(s.t.begin("online.ModelStore.GetWithVersion", *s.parent))
	}
	return s.Registry.GetWithVersion(name)
}

func (s timedStore) Put(ctx context.Context, name string, rules *core.Rules) (int, error) {
	if *s.parent >= 0 {
		defer s.t.end(s.t.begin("online.ModelStore.Put", *s.parent))
	}
	return s.Registry.Put(ctx, name, rules)
}

// republishPhases splits each traced republish at its nested store
// calls and returns the median of each phase in ms: from the start to
// the served-model read (snapshot and eigensolve), from there to the
// publish (the GE gate), the publish, and the rest (online bookkeeping).
func (t *tracer) republishPhases() (mine, gate, publish, rest float64) {
	var a, b, c, d []float64
	for i, r := range t.spans {
		if r.name != "online.Manager.Republish" {
			continue
		}
		var get, put *span
		for j := i + 1; j < len(t.spans); j++ {
			if c := &t.spans[j]; c.parent == i {
				switch c.name {
				case "online.ModelStore.GetWithVersion":
					get = c
				case "online.ModelStore.Put":
					put = c
				}
			}
		}
		if get == nil || put == nil {
			continue // rejected by the gate: nothing published
		}
		a = append(a, us(get.start-r.start)/1e3)
		b = append(b, us(put.start-get.start)/1e3)
		c = append(c, us(put.end-put.start)/1e3)
		d = append(d, us(r.end-put.end)/1e3)
	}
	return median(a), median(b), median(c), median(d)
}

// stack is the in-process server, wired the way rrserve wires it with
// its default flags.
type stack struct {
	st      *store.Store
	reg     *server.Registry
	mgr     *online.Manager
	ctrl    *admission.Controller
	handler http.Handler
}

func newStack(dir string, sp spec, ms func(*server.Registry) online.ModelStore, republish int) (*stack, error) {
	logger := obs.NopLogger()
	// 64 and 32 copy rrserve's -snapshot-every and -max-versions
	// defaults, which it defines only as flag defaults.
	st, err := store.Open(filepath.Join(dir, "store"), store.WithLogger(logger),
		store.WithSnapshotEvery(64), store.WithMaxVersions(32), store.WithReplicationLog(store.DefaultReplicationLog))
	if err != nil {
		return nil, err
	}
	s := &stack{st: st, reg: server.NewRegistryWithStore(st)}
	tr := trace.New(trace.Config{Slow: time.Second, Logger: logger, Dropped: obs.SpanDropCounter(obs.Default())})
	var model online.ModelStore = s.reg
	if ms != nil {
		model = ms(s.reg)
	}
	s.mgr, err = online.NewManager(model, online.Config{
		RepublishRows: republish, GESlack: online.DefaultGESlack,
		CheckpointDir: filepath.Join(dir, "online"), Logger: logger, Tracer: tr,
	})
	if err != nil {
		return nil, errors.Join(err, st.Close())
	}
	opts := []server.HandlerOption{server.WithLogger(logger), server.WithTracer(tr), server.WithOnline(s.mgr)}
	if sp.tenants {
		tf := filepath.Join(dir, "tenants.json")
		if err := os.WriteFile(tf, []byte(tenantsJSON), 0o600); err != nil {
			return nil, errors.Join(err, s.close())
		}
		s.ctrl, err = admission.New(admission.Config{TenantsFile: tf, Logger: logger})
		if err != nil {
			return nil, errors.Join(err, s.close())
		}
		opts = append(opts, server.WithAdmission(s.ctrl))
	}
	s.handler = server.Handler(s.reg, opts...)
	return s, nil
}

func (s *stack) close() error {
	return errors.Join(s.mgr.Close(), s.st.Close())
}

// serve runs one request through the in-process handler.
func (s *stack) serve(sp spec, method, target string, body []byte, hdr ...string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	if sp.tenants {
		req.Header.Set("Authorization", "Bearer "+tenantToken)
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	rec := httptest.NewRecorder()
	s.handler.ServeHTTP(rec, req)
	return rec
}

// layerTimes are the per-call costs the traced passes measured, in µs
// unless named otherwise.
type layerTimes struct {
	corePush, onlinePush, handlerRow float64
	snapshotMS, rulesMS, gateMS      float64
	republishMS, putMS               float64
	// The republish's phases, timed in place (see timedStore).
	mineMS, gateInMS, publishMS, bookkeepingMS float64
	getRaw, fill, batchRow                     float64
	fillHandler, getHandler, batchHandler      float64
	check, rowTake                             float64
}

// layers runs the traced passes on the workload's inputs and sets every
// per-layer metric, then prints the self-time table.
func layers(sp spec, in *inputs, dir string, ran *e2e, res *result) (err error) {
	ctx := context.Background()
	t := newTracer()
	var ov overhead
	var lt layerTimes
	rows := in.pool
	n := len(rows)

	// core: covariance push, snapshot, eigensolve, GE gate, fill, batch.
	sm, err := core.NewStreamMiner(sp.m, 0)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if err := sm.Push(r); err != nil {
			return err
		}
	}
	seedRules, err := mineSeed(in)
	if err != nil {
		return err
	}
	holdout, err := matrix.FromRows(rows[:256])
	if err != nil {
		return err
	}
	for r := 0; r < 5; r++ {
		var buf bytes.Buffer
		id := t.begin("core.StreamMiner.Save+LoadStreamMiner", -1)
		if err := sm.Save(&buf); err != nil {
			return err
		}
		clone, err := core.LoadStreamMiner(&buf)
		t.end(id)
		if err != nil {
			return err
		}
		id = t.begin("core.StreamMiner.Rules", -1)
		cand, err := clone.Rules()
		t.end(id)
		if err != nil {
			return err
		}
		id = t.begin("core.GE1With", -1)
		_, err1 := core.GE1With(cand, holdout, core.GEOptions{})
		_, err2 := core.GE1With(seedRules, holdout, core.GEOptions{})
		t.end(id)
		if err := errors.Join(err1, err2); err != nil {
			return err
		}
	}
	lt.snapshotMS = t.medianUS("core.StreamMiner.Save+LoadStreamMiner") / 1e3
	lt.rulesMS = t.medianUS("core.StreamMiner.Rules") / 1e3
	lt.gateMS = t.medianUS("core.GE1With") / 1e3

	recs := make([][]float64, n)
	holes := make([][]int, n)
	for i, r := range rows {
		holes[i] = in.patterns[i%len(in.patterns)]
		recs[i] = withHoles(r, holes[i])
	}
	lt.fill = t.perCall(&ov, "core.Rules.FillRow", n, func(i int) { _, _ = seedRules.FillRow(recs[i], holes[i]) })
	for r := 0; r < 3; r++ {
		id := t.begin("core.Rules.BatchFillSlice", -1)
		_ = seedRules.BatchFillSlice(recs, holes, core.BatchOptions{})
		t.end(id)
	}
	lt.batchRow = t.medianUS("core.Rules.BatchFillSlice") / float64(n)

	// online: Stream.Push with the republish trigger out of reach, then
	// Manager.Republish publishing through the timed store wrapper.
	republishSpan := -1
	s, err := newStack(filepath.Join(dir, "traced"), sp, func(reg *server.Registry) online.ModelStore {
		return timedStore{Registry: reg, t: t, parent: &republishSpan}
	}, 1<<30)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, s.close()) }()
	if rec := s.serve(sp, "POST", "/v1/rules", mineBody(model, in.seedRows)); rec.Code != http.StatusCreated {
		return fmt.Errorf("in-process mine answered %d: %s", rec.Code, rec.Body.Bytes())
	}
	key := model
	var tenant *admission.Tenant
	if s.ctrl != nil {
		if tenant, err = s.ctrl.Authenticate(tenantToken); err != nil {
			return err
		}
		key = tenant.ScopedName(model)
	}
	stream, err := s.mgr.Stream(key, 0, false)
	if err != nil {
		return err
	}
	// The two push passes run back to back so that machine drift between
	// them does not leak into online's self time.
	lt.corePush = t.perCall(&ov, "core.StreamMiner.Push", n, func(i int) { _ = sm.Push(rows[i]) })
	lt.onlinePush = t.perCall(&ov, "online.Stream.Push", n, func(i int) { _, _ = stream.Push(ctx, rows[i]) })
	for r := 0; r < 5; r++ {
		republishSpan = t.begin("online.Manager.Republish", -1)
		_, err := s.mgr.Republish(ctx, key)
		t.end(republishSpan)
		republishSpan = -1
		if err != nil {
			return err
		}
	}
	lt.republishMS = t.medianUS("online.Manager.Republish") / 1e3
	lt.mineMS, lt.gateInMS, lt.publishMS, lt.bookkeepingMS = t.republishPhases()

	// store: durable Put (WAL append + fsync) and GetRaw.
	for r := 0; r < 5; r++ {
		id := t.begin("store.Store.PutContext", -1)
		_, err := s.st.PutContext(ctx, "put-probe", seedRules)
		t.end(id)
		if err != nil {
			return err
		}
	}
	lt.putMS = t.medianUS("store.Store.PutContext") / 1e3
	lt.getRaw = t.perCall(&ov, "store.Store.GetRaw", n, func(int) { _, _, _ = s.st.GetRaw(key) })

	// admission: the request gauntlet and the per-row gate. Without a
	// tenants file rrserve runs a nil controller, which these calls time.
	calls := min(n, 2000)
	failed := false
	lt.check = t.perCall(&ov, "admission.Authenticate+AdmitRequest", calls, func(int) {
		tn, err := s.ctrl.Authenticate(tokenFor(sp))
		if err != nil {
			failed = true
			return
		}
		release, err := s.ctrl.AdmitRequest(ctx, tn, false)
		if err != nil {
			failed = true
			return
		}
		release()
	})
	gate := s.ctrl.RowGate(tenant, false)
	lt.rowTake = t.perCall(&ov, "admission.RowGate.Take", calls, func(int) {
		if gate.Take(ctx) != nil {
			failed = true
		}
	})
	gate.Close()

	// server: the handler in process, on the same bodies the generator
	// sends over HTTP. Ingest joins the live stream (no republish fires:
	// the trigger is out of reach); fills and GETs hit the seeded model.
	body := bytes.Join(in.ingestLines, nil)
	batchBody := bytes.Join(in.batchLines, nil)
	for r := 0; r < 3; r++ {
		id := t.begin("server.Handler.ServeHTTP ingest", -1)
		rec := s.serve(sp, "POST", "/v1/rules/"+model+"/ingest", body, "Content-Type", "application/x-ndjson")
		t.end(id)
		if rec.Code != http.StatusOK || bytes.Contains(rec.Body.Bytes(), []byte(`"error"`)) {
			return fmt.Errorf("in-process ingest answered %d: %.300s", rec.Code, rec.Body.Bytes())
		}
		id = t.begin("server.Handler.ServeHTTP batch/fill", -1)
		rec = s.serve(sp, "POST", "/v1/rules/"+model+"/batch/fill", batchBody, "Content-Type", "application/x-ndjson")
		t.end(id)
		if rec.Code != http.StatusOK || bytes.Contains(rec.Body.Bytes(), []byte(`"error"`)) {
			return fmt.Errorf("in-process batch answered %d: %.300s", rec.Code, rec.Body.Bytes())
		}
	}
	lt.handlerRow = t.medianUS("server.Handler.ServeHTTP ingest") / float64(n)
	lt.batchHandler = t.medianUS("server.Handler.ServeHTTP batch/fill") / float64(n)
	lt.fillHandler = t.perCall(&ov, "server.Handler.ServeHTTP fill", calls, func(i int) {
		if s.serve(sp, "POST", "/v1/rules/"+model+"/fill", in.fillBodies[i]).Code != http.StatusOK {
			failed = true
		}
	})
	_, version, _ := s.st.GetRaw(key)
	etag := `"v` + strconv.Itoa(version) + `"`
	lt.getHandler = t.perCall(&ov, "server.Handler.ServeHTTP get", calls, func(int) {
		if s.serve(sp, "GET", "/v1/rules/"+model, nil, "If-None-Match", etag).Code != http.StatusNotModified {
			failed = true
		}
	})
	if failed {
		return fmt.Errorf("an in-process admission check, fill or GET failed")
	}

	setLayerMetrics(sp, ran, lt, t, ov, res)
	return nil
}

func tokenFor(sp spec) string {
	if sp.tenants {
		return tenantToken
	}
	return ""
}

// mineSeed mines the seed rows in process, as POST /v1/rules does.
func mineSeed(in *inputs) (*core.Rules, error) {
	x, err := matrix.FromRows(in.seedRows)
	if err != nil {
		return nil, err
	}
	m, err := core.NewMiner()
	if err != nil {
		return nil, err
	}
	return m.MineMatrix(x)
}

// setLayerMetrics derives every per-layer metric and prints the
// self-time table for this workload.
func setLayerMetrics(sp spec, ran *e2e, lt layerTimes, t *tracer, ov overhead, res *result) {
	b, a := ran.before, ran.after
	wall := ran.wall.Seconds()
	republishes := delta(b, a, "rr_online_republish_seconds_count")
	promotions := delta(b, a, "rr_online_promotions_total")
	hits := delta(b, a, "rr_fill_cache_hits_total")
	lookups := hits + delta(b, a, "rr_fill_cache_misses_total")
	appends := delta(b, a, "rr_store_wal_appends_total")
	sheds := delta(b, a, "rr_admission_requests_total") - delta(b, a, "rr_admission_requests_total", `decision="allowed"`) +
		delta(b, a, "rr_admission_rows_total", `decision="shed"`) + delta(b, a, "rr_admission_ingest_queue_sheds_total")

	ingestSelf := lt.handlerRow - lt.onlinePush
	batchSelf := lt.batchHandler - lt.batchRow
	fillSelf := lt.fillHandler - lt.fill - lt.check
	getSelf := lt.getHandler - lt.getRaw - lt.check

	// The transport share: client wall time per primary op minus the
	// in-process handler time for the same op.
	transport := ran.clientRowUS - lt.handlerRow
	switch sp.name {
	case "batch_fill":
		transport = 1e6/res.values["batch_fill_rows_per_s"] - lt.batchHandler
	case "serve_mixed":
		transport = res.values["fill_p50_ms"]*1e3 - lt.fillHandler
	}

	res.set("server.http_requests", delta(b, a, "rr_http_requests_total"), 1)
	res.set("server.ingest_self_us_per_row", ingestSelf, 1)
	res.set("server.transport_us_per_row", transport, 1)
	res.set("server.batch_self_us_per_row", batchSelf, 1)
	res.set("server.fill_self_us", fillSelf, 1)
	res.set("server.get_us", lt.getHandler, 1)
	res.set("admission.check_us", lt.check, 1)
	res.set("admission.row_take_us", lt.rowTake, 1)
	res.set("admission.sheds", sheds, 1)
	res.set("online.push_us", lt.onlinePush, 1)
	res.set("online.self_push_us", lt.onlinePush-lt.corePush, 1)
	res.set("online.republishes", republishes, 1)
	res.set("online.republish_per_s", republishes/wall, 1)
	res.set("online.republish_busy_frac", delta(b, a, "rr_online_republish_seconds_sum")/wall, 1)
	res.set("online.promotions", promotions, 1)
	res.set("online.rejections", delta(b, a, "rr_online_ge_gate_rejections_total"), 1)
	res.set("online.republish_ms", lt.republishMS, 1)
	res.set("online.snapshot_ms", lt.snapshotMS, 1)
	res.set("online.gate_frac", lt.gateMS/lt.republishMS, 1)
	res.set("core.push_us", lt.corePush, 1)
	res.set("core.rules_ms", lt.rulesMS, 1)
	res.set("core.gate_ms", lt.gateMS, 1)
	res.set("core.fill_us", lt.fill, 1)
	res.set("core.batch_fill_us_per_row", lt.batchRow, 1)
	res.set("core.fill_cache_hit_frac", ratio(hits, lookups), int(lookups))
	res.set("store.put_ms", lt.putMS, 1)
	res.set("store.fsyncs", delta(b, a, "rr_store_fsyncs_total"), 1)
	res.set("store.wal_bytes_per_publish", ratio(delta(b, a, "rr_store_wal_written_bytes_total"), appends), int(appends))
	res.set("store.snapshots", delta(b, a, "rr_store_snapshots_total"), 1)
	res.set("store.get_raw_us", lt.getRaw, 1)
	res.set("runtime.gc_pause_s", delta(b, a, "rr_go_gc_pause_seconds"), 1)
	res.set("runtime.heap_mb", a.sum("rr_go_heap_bytes")/(1<<20), 1)

	// Weight each layer's self time by the end-to-end operation mix.
	rows, batchRows := float64(ran.rows), float64(ran.batchRows)
	reads := float64(ran.reads)
	fills := float64(ran.fills)
	gets := reads - fills
	self := []struct {
		layer string
		total float64 // µs over the end-to-end run
	}{
		{"server", rows*ingestSelf + batchRows*batchSelf + fills*fillSelf + gets*getSelf},
		{"admission", (rows+batchRows)*lt.rowTake + reads*lt.check},
		{"online", rows*(lt.onlinePush-lt.corePush) + republishes*lt.bookkeepingMS*1e3},
		{"core", rows*lt.corePush + batchRows*lt.batchRow + fills*lt.fill +
			republishes*(lt.mineMS+lt.gateInMS)*1e3},
		{"store", promotions*lt.publishMS*1e3 + gets*lt.getRaw},
		{"runtime", delta(b, a, "rr_go_gc_pause_seconds") * 1e6}, // stop-the-world pauses only
	}
	ops := float64(max(ran.completedOps, 1))
	cpuPerOp := us(ran.serverCPU) / ops
	accounted := 0.0
	fmt.Printf("self-time table: %s, µs of server CPU per completed op (%d ops, server CPU %.4g µs/op)\n",
		sp.name, ran.completedOps, cpuPerOp)
	fmt.Printf("  %-12s %12s %8s\n", "layer", "us/op", "share")
	for _, l := range self {
		v := l.total / ops
		accounted += v
		res.set("self."+l.layer+"_us_per_op", v, ran.completedOps)
		fmt.Printf("  %-12s %12.4g %7.1f%%\n", l.layer, v, 100*v/cpuPerOp)
	}
	gap := cpuPerOp - accounted
	res.set("self.unaccounted_us_per_op", gap, ran.completedOps)
	res.set("self.unaccounted_frac", gap/cpuPerOp, ran.completedOps)
	fmt.Printf("  %-12s %12.4g %7.1f%%\n", "unaccounted", gap, 100*gap/cpuPerOp)
	fmt.Printf("  the layers account for %.1f%% of the server CPU per op and %.1f%% is unaccounted (the aim is\n"+
		"  at most about 15%%): kernel, net/http transport, scheduler and whatever else no span reaches\n",
		100*accounted/cpuPerOp, 100*gap/cpuPerOp)
	fmt.Printf("  not in server CPU: loadgen %.4g s CPU; server.transport %.4g µs wall per primary op\n",
		res.values["loadgen.cpu_s"], transport)
	oh := float64(ov.traced-ov.plain) / float64(ov.plain)
	res.set("trace.overhead_frac", oh, len(t.spans))
	fmt.Printf("tracing overhead: per-call passes took %.4g s traced vs %.4g s untraced (%+.1f%%), %d spans\n",
		ov.traced.Seconds(), ov.plain.Seconds(), 100*oh, len(t.spans))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
