package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"
)

// runIngest drives one windowed NDJSON ingest stream plus the freshness
// watcher, anonymously. Acked rows are the primary operation; the
// primary latency is the publish lag, because in a closed loop the
// row's own ack latency only restates the throughput.
func runIngest(ctx context.Context, srv *proc, sp spec, in *inputs, stopAt time.Time, ran *e2e, res *result) (driven, error) {
	cl, wcl := newClient(), newClient()
	defer closeClient(cl)
	defer closeClient(wcl)
	var want atomic.Int64
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wres *watchResult
	wdone := make(chan struct{})
	go func() {
		defer close(wdone)
		wres = watch(wctx, wcl, srv.base+"/v1/rules/"+model, 2*time.Millisecond, &want)
	}()
	url := srv.base + "/v1/rules/" + model + "/ingest"
	sres, err := stream(ctx, cl, url, "", in.ingestLines, sp.window, 0, before(stopAt), nil)
	if err != nil {
		cancel()
		<-wdone
		return driven{}, err
	}
	res.check(checkDone(sres))
	rows := len(sres.ackAt) - sres.errLines
	rate := float64(rows) / time.Duration(sres.endAt-sres.firstAt).Seconds()
	ran.clientRowUS = 1e6 / rate
	res.set("ingest_rows_per_s", rate, rows)
	lat := latencies(sres)
	res.set("ingest_ack_p99_ms", pct(lat, 99), len(lat))
	comps := streamCompletions(sres, true)

	if err := topUp(ctx, cl, srv.base, sp, in, sres, res); err != nil {
		cancel()
		<-wdone
		return driven{}, err
	}
	want.Store(int64(sres.sent))
	select {
	case <-wdone:
	case <-time.After(60 * time.Second):
		cancel()
		<-wdone
		res.check(fmt.Errorf("watcher never saw a version trained on all %d rows", sres.sent))
	}
	ran.rows = len(sres.ackAt) - sres.errLines
	ran.reads = wres.gets.attempted - wres.gets.failed
	res.op("ingest_row", sres.sent, sres.sent-ran.rows)
	res.op("model_get", wres.gets.attempted, wres.gets.failed)

	var lags []completion
	for _, s := range wres.sightings {
		if s.version > 1 && s.trainedRows > 0 && s.trainedRows <= len(sres.ackAt) {
			acked := sres.t0.Add(time.Duration(sres.ackAt[s.trainedRows-1]))
			lags = append(lags, completion{at: s.at, ms: ms(s.at.Sub(acked))})
		}
	}
	res.set("publish_lag_p50_ms", pct(millis(lags), 50), len(lags))
	res.set("publish_lag_p90_ms", pct(millis(lags), 90), len(lags))
	for _, at := range wres.doneAt {
		comps = append(comps, completion{at: at})
	}
	return driven{append(sres.late, wres.late...), comps, lags}, nil
}

func before(t time.Time) func(int) bool {
	return func(int) bool { return time.Now().Before(t) }
}

// topUp makes the last row sent also the last row of a republish, so
// the served model can be checked against every row sent. A republish
// snapshots all rows pending at that moment, and the row-count trigger
// fires once republishRows rows are pending again, so rows sent after
// the last snapshot stay unpublished until more arrive. Once the stream
// is quiet, topUp sends just enough rows to fire the trigger in a new
// ingest request, appending their answers to sres; it repeats if a
// queued republish raced the top-up.
func topUp(ctx context.Context, cl *http.Client, base string, sp spec, in *inputs, sres *streamResult, res *result) error {
	for attempt := 0; attempt < 5; attempt++ {
		pending, err := quietPending(ctx, cl, base)
		if err != nil || pending == 0 {
			return err
		}
		extra := republishRows - pending%republishRows
		more, err := stream(ctx, cl, base+"/v1/rules/"+model+"/ingest", "", rotate(in.ingestLines, sres.sent), sp.window, 0,
			func(i int) bool { return i < extra }, nil)
		if err != nil {
			return err
		}
		res.check(checkDone(more))
		sres.extend(more)
	}
	return fmt.Errorf("ingest stream still has unpublished rows after 5 top-ups")
}

// rotate returns lines starting at line from (mod len(lines)), so a
// follow-up stream continues the row sequence where the last one ended.
func rotate(lines [][]byte, from int) [][]byte {
	n := len(lines)
	return append(append([][]byte(nil), lines[from%n:]...), lines[:from%n]...)
}

// extend appends a follow-up stream's rows to r, on r's clock.
func (r *streamResult) extend(more *streamResult) {
	off := int64(more.t0.Sub(r.t0))
	r.sent += more.sent
	r.errLines += more.errLines
	for _, a := range more.ackAt {
		r.ackAt = append(r.ackAt, a+off)
	}
	for _, w := range more.sentAt {
		r.sentAt = append(r.sentAt, w+off)
	}
}

// quietPending waits until the live stream's status holds still for
// 300ms — no republish in progress — and returns its pending rows.
func quietPending(ctx context.Context, cl *http.Client, base string) (int, error) {
	var last []byte
	for i := 0; i < 200; i++ {
		req, _ := http.NewRequestWithContext(ctx, "GET", base+"/v1/rules/"+model+"/stream", nil)
		resp, err := cl.Do(req)
		if err != nil {
			return 0, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("GET stream status: %s %v", resp.Status, err)
		}
		if bytes.Equal(body, last) {
			var st struct{ Pending int }
			return st.Pending, json.Unmarshal(body, &st)
		}
		last = body
		time.Sleep(300 * time.Millisecond)
	}
	return 0, fmt.Errorf("live stream never went quiet")
}

// checkDone checks an ingest stream's done line against what was sent.
func checkDone(sres *streamResult) error {
	var d struct {
		Done struct{ Rows, Accepted, Errors int } `json:"done"`
	}
	if err := json.Unmarshal(sres.done, &d); err != nil {
		return fmt.Errorf("ingest done line %q: %v", sres.done, err)
	}
	if d.Done.Rows != sres.sent || d.Done.Accepted != sres.sent-sres.errLines {
		return fmt.Errorf("ingest done line %s after %d rows sent", sres.done, sres.sent)
	}
	return nil
}

// runMixed drives serve_mixed: an open-loop reader on one connection and
// a paced ingest writer on the other, both as the benchmark tenant.
// Reads are the primary operation, timed from when they were due.
func runMixed(ctx context.Context, srv *proc, sp spec, in *inputs, token string, stopAt time.Time, ran *e2e, res *result) (driven, error) {
	rcl, wcl := newClient(), newClient()
	defer closeClient(rcl)
	defer closeClient(wcl)
	var sres *streamResult
	var werr error
	wdone := make(chan struct{})
	go func() {
		defer close(wdone)
		sres, werr = stream(ctx, wcl, srv.base+"/v1/rules/"+model+"/ingest", token, in.ingestLines,
			0, sp.ingestRate, before(stopAt), nil)
	}()
	rres := readLoop(ctx, rcl, srv.base, model, token, in, sp.readRate, stopAt)
	<-wdone
	if werr != nil {
		return driven{}, werr
	}
	res.check(checkDone(sres))
	res.check(checkPinned(rres, in))

	rows := len(sres.ackAt) - sres.errLines
	ran.rows = rows
	ran.fills = rres.fills.attempted - rres.fills.failed
	ran.reads = ran.fills + rres.gets.attempted - rres.gets.failed
	res.op("ingest_row", sres.sent, sres.sent-rows)
	res.op("fill", rres.fills.attempted, rres.fills.failed)
	res.op("model_get", rres.gets.attempted, rres.gets.failed)
	sent := rres.fills.attempted + rres.gets.attempted
	elapsed := time.Duration(sres.endAt - sres.firstAt)
	res.set("ingest_rows_per_s", float64(rows)/elapsed.Seconds(), rows)
	ack := latencies(sres)
	res.set("ingest_ack_p99_ms", pct(ack, 99), len(ack))
	res.set("fill_p50_ms", pct(rres.fillLat, 50), len(rres.fillLat))
	res.set("fill_p99_ms", pct(rres.fillLat, 99), len(rres.fillLat))
	res.set("get_p99_ms", pct(rres.getLat, 99), len(rres.getLat))
	res.set("read_within_slo_frac", float64(rres.withinSLO)/float64(max(sent, 1)), sent)
	comps := streamCompletions(sres, false)
	lat := make([]completion, 0, len(rres.reads))
	for _, r := range rres.reads {
		comps = append(comps, completion{at: r.at, primary: true})
		lat = append(lat, completion{at: r.at, ms: r.lat})
	}
	return driven{append(sres.late, rres.late...), comps, lat}, nil
}

// runBatch drives one windowed /batch/fill NDJSON stream, checking every
// answer line against FillRow. Filled rows are the primary operation,
// timed from written to answered.
func runBatch(ctx context.Context, srv *proc, sp spec, in *inputs, stopAt time.Time, chk *batchChecker, ran *e2e, res *result) (driven, error) {
	cl := newClient()
	defer closeClient(cl)
	sres, err := stream(ctx, cl, srv.base+"/v1/rules/"+model+"/batch/fill", "", in.batchLines,
		sp.window, 0, before(stopAt), chk.line)
	if err != nil {
		return driven{}, err
	}
	if chk.bad > 0 {
		res.check(fmt.Errorf("%d of %d batch lines differ from FillRow, first: %s", chk.bad, len(sres.ackAt), chk.first))
	}
	rows := len(sres.ackAt) - sres.errLines
	ran.batchRows = rows
	res.op("batch_row", sres.sent, sres.sent-rows)
	elapsed := time.Duration(sres.endAt - sres.firstAt)
	rate := float64(rows) / elapsed.Seconds()
	res.set("batch_fill_rows_per_s", rate, rows)
	comps := streamCompletions(sres, true)
	return driven{sres.late, comps, comps}, nil
}

// latencies returns each row's time from written (paced rows: from due)
// to answered, in ms.
func latencies(sres *streamResult) []float64 {
	out := make([]float64, len(sres.ackAt))
	for i, a := range sres.ackAt {
		out[i] = float64(a-sres.sentAt[i]) / 1e6
	}
	return out
}

// streamCompletions lists a stream's answered rows.
func streamCompletions(sres *streamResult, primary bool) []completion {
	out := make([]completion, len(sres.ackAt))
	for i, a := range sres.ackAt {
		out[i] = completion{sres.t0.Add(time.Duration(a)), primary, float64(a-sres.sentAt[i]) / 1e6}
	}
	return out
}
