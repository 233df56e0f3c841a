package server

// Coordinator-mode contract tests: the public ingest surface must be
// byte-shape identical whether rows fold locally or fan out across a
// sharded cluster — per-row NDJSON acks and error lines in input order,
// a done summary, the same 409 on decay conflicts — and the cluster
// admin routes and /readyz cluster block must behave as documented.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ratiorules/internal/cluster"
	"ratiorules/internal/obs"
	"ratiorules/internal/online"
)

// clusterTestServer is a coordinator-mode API server over n in-process
// worker nodes.
type clusterTestServer struct {
	ts      *httptest.Server
	coord   *cluster.Coordinator
	mgr     *online.Manager
	metrics *obs.Registry // the coordinator's rr_cluster_* series
}

// newClusterTestServer starts the coordinator's API server with opts
// added to its handler options.
func newClusterTestServer(t *testing.T, n int, opts ...HandlerOption) *clusterTestServer {
	t.Helper()
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		w := cluster.NewWorker()
		ws := httptest.NewServer(w.Handler())
		t.Cleanup(func() { closeWithin(t, ws) })
		urls[i] = ws.URL
	}
	reg := NewRegistry()
	mgr, err := online.NewManager(reg, online.Config{
		Seed: 7,
		// Merges are driven explicitly via the republish route; park the
		// row-count trigger.
		RepublishRows: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	metrics := obs.NewRegistry()
	coord, err := cluster.New(cluster.Config{
		Workers:   urls,
		Manager:   mgr,
		ChunkRows: 16,
		Metrics:   metrics,
		// Background loops parked: tests drive merges synchronously.
		PullEvery:     time.Hour,
		HealthEvery:   time.Hour,
		RepublishRows: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	coord.Start()
	t.Cleanup(func() { _ = coord.Close(context.Background()) })
	opts = append([]HandlerOption{WithObs(obs.NewRegistry()), WithOnline(mgr), WithCluster(coord)}, opts...)
	ts := httptest.NewServer(Handler(reg, opts...))
	t.Cleanup(func() { closeWithin(t, ts) })
	return &clusterTestServer{ts: ts, coord: coord, mgr: mgr, metrics: metrics}
}

// closeWithin closes srv, failing t rather than hanging the package
// when a handler never returns: httptest's Close waits for every
// active connection.
func closeWithin(t *testing.T, srv *httptest.Server) {
	t.Helper()
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Errorf("closing %s: a handler never returned", srv.URL)
	}
}

// clusterIngestLine is the union shape of one clustered ingest response line.
type clusterIngestLine struct {
	Index *int        `json:"index"`
	Count *int        `json:"count"`
	Error *errorInfo  `json:"error"`
	Done  *ingestDone `json:"done"`
}

func TestClusterIngestContract(t *testing.T) {
	cs := newClusterTestServer(t, 3)

	// 100 good rows with two bad rows interleaved: a non-array line at
	// slot 40 and a wrong-width row at slot 70.
	var b strings.Builder
	for i := 0; i < 102; i++ {
		switch i {
		case 40:
			b.WriteString("{\"nope\":true}\n")
		case 70:
			b.WriteString("[1,2,3]\n")
		default:
			fmt.Fprintf(&b, "[%d,%d]\n", i, 2*i)
		}
	}
	resp := doRaw(t, "POST", cs.ts.URL+"/v1/rules/m/ingest", ndjsonContentType, b.String())
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ndjsonContentType {
		t.Fatalf("Content-Type = %q", ct)
	}

	sc := bufio.NewScanner(resp.Body)
	var lines []clusterIngestLine
	for sc.Scan() {
		var ln clusterIngestLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			t.Fatalf("line %d not JSON: %v: %s", len(lines), err, sc.Text())
		}
		lines = append(lines, ln)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 103 {
		t.Fatalf("got %d lines, want 102 rows + done", len(lines))
	}

	// Per-row lines must land in input order with the right shapes:
	// error lines in slots 40 and 70, acks with strictly increasing
	// counts everywhere else.
	wantCount := 0
	for i, ln := range lines[:102] {
		if ln.Index == nil || *ln.Index != i {
			t.Fatalf("line %d: index = %v, want %d", i, ln.Index, i)
		}
		if i == 40 || i == 70 {
			if ln.Error == nil || ln.Error.Code != CodeBadRequest {
				t.Fatalf("line %d: want bad_request error, got %+v", i, ln)
			}
			continue
		}
		wantCount++
		if ln.Count == nil || *ln.Count != wantCount {
			t.Fatalf("line %d: count = %v, want %d", i, ln.Count, wantCount)
		}
	}
	done := lines[102].Done
	if done == nil {
		t.Fatalf("last line is not the done summary: %+v", lines[102])
	}
	if done.Rows != 102 || done.Accepted != 100 || done.Errors != 2 || done.Count != 100 {
		t.Fatalf("done = %+v", *done)
	}

	// Force the merge-republish cycle and check the model came out the
	// single publish path with a version.
	var sum modelSummary
	status := doJSON(t, "POST", cs.ts.URL+"/v1/cluster/republish/m", nil, &sum)
	if status != http.StatusOK {
		t.Fatalf("republish status = %d", status)
	}
	if sum.TrainedRows != 100 || sum.Version < 1 {
		t.Fatalf("republished summary = %+v", sum)
	}

	// The decay-conflict contract carries over: the stream above runs
	// decay 0, an explicit different decay must 409.
	resp2 := doRaw(t, "POST", cs.ts.URL+"/v1/rules/m/ingest?decay=0.5", ndjsonContentType, "[1,2]\n")
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting decay status = %d", resp2.StatusCode)
	}
	if code := decodeEnvelope(t, "decay conflict", resp2.Body); code != CodeConflict {
		t.Fatalf("decay conflict code = %q", code)
	}
}

// TestClusterIngestClientDisconnect is the fan-out leak regression: a
// client that pipelines rows, never reads an ack and then resets its
// connection must still end its session. The handler keeps draining
// (and discarding) the session's acks until they close, so the session
// gauge returns to 0 and the server can shut down.
func TestClusterIngestClientDisconnect(t *testing.T) {
	cs := newClusterTestServer(t, 2)
	sessions := func() float64 { return cs.metrics.Snapshot()["rr_cluster_sessions"] }
	rowsOK := func() float64 { return cs.metrics.Snapshot()[`rr_cluster_rows_total{result="ok"}`] }

	var body bytes.Buffer
	for i := 0; i < 200_000; i++ {
		fmt.Fprintf(&body, "[%d,%d]\n", i, 2*i)
	}
	conn, err := net.Dial("tcp", cs.ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	tcp := conn.(*net.TCPConn)
	// A small receive window makes the server's ack writes block early.
	_ = tcp.SetReadBuffer(4 << 10)
	go func() {
		fmt.Fprintf(tcp, "POST /v1/rules/gone/ingest HTTP/1.1\r\nHost: contract-test\r\n"+
			"Content-Type: %s\r\nContent-Length: %d\r\n\r\n", ndjsonContentType, body.Len())
		_, _ = tcp.Write(body.Bytes())
	}()
	// Reset once the fan-out has stalled behind the unread acks (no row
	// is acked for a while), so the session has acks queued at the reset.
	waitUntil(t, "fan-out stalled", func() bool {
		before := rowsOK()
		time.Sleep(50 * time.Millisecond)
		return before > 0 && rowsOK() == before
	})
	_ = tcp.SetLinger(0) // close with a reset, not a graceful FIN
	tcp.Close()

	waitUntil(t, "fan-out session closed", func() bool { return sessions() == 0 })
	closeWithin(t, cs.ts)
}

func TestClusterStatusJoinAndReadyz(t *testing.T) {
	cs := newClusterTestServer(t, 2)

	var st cluster.Status
	if status := doJSON(t, "GET", cs.ts.URL+"/v1/cluster/status", nil, &st); status != http.StatusOK {
		t.Fatalf("status route = %d", status)
	}
	if len(st.Members) != 2 || st.Healthy != 2 || st.Degraded {
		t.Fatalf("cluster status = %+v", st)
	}

	// A healthy cluster reports ready with a cluster block.
	var rz readyzResponse
	if status := doJSON(t, "GET", cs.ts.URL+"/readyz", nil, &rz); status != http.StatusOK {
		t.Fatalf("readyz = %d", status)
	}
	if rz.Status != "ready" || rz.Cluster == nil || rz.Cluster.Healthy != 2 || rz.Cluster.Degraded {
		t.Fatalf("readyz body = %+v", rz)
	}

	// Joining a third worker grows membership.
	w := cluster.NewWorker()
	ws := httptest.NewServer(w.Handler())
	t.Cleanup(ws.Close)
	if status := doJSON(t, "POST", cs.ts.URL+"/v1/cluster/join",
		clusterJoinRequest{URL: ws.URL}, &st); status != http.StatusOK {
		t.Fatalf("join = %d", status)
	}
	if len(st.Members) != 3 || st.Healthy != 3 {
		t.Fatalf("post-join status = %+v", st)
	}

	// Joining an unreachable worker answers 502 cluster_join.
	resp := doRaw(t, "POST", cs.ts.URL+"/v1/cluster/join", "application/json",
		`{"url":"http://127.0.0.1:1"}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("bad join status = %d", resp.StatusCode)
	}
	if code := decodeEnvelope(t, "bad join", resp.Body); code != CodeClusterJoin {
		t.Fatalf("bad join code = %q", code)
	}

	// Kill one worker: the next readyz must flag degradation once the
	// coordinator notices (probe it via a failed status... the health
	// loop is parked, so drive membership with a join re-probe of a dead
	// URL is not possible — instead assert the absent-cluster server
	// keeps its old shape below).
	if status := doJSON(t, "POST", cs.ts.URL+"/v1/cluster/republish/absent", nil, nil); status != http.StatusNotFound {
		t.Fatalf("republish absent = %d", status)
	}

	// A plain (non-cluster) server must not expose the admin routes or
	// the readyz cluster block.
	plain := newTestServer(t)
	resp2 := doRaw(t, "GET", plain.URL+"/v1/cluster/status", "", "")
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("plain server cluster status = %d", resp2.StatusCode)
	}
	var rz2 readyzResponse
	if status := doJSON(t, "GET", plain.URL+"/readyz", nil, &rz2); status != http.StatusOK {
		t.Fatalf("plain readyz = %d", status)
	}
	if rz2.Cluster != nil {
		t.Fatalf("plain readyz grew a cluster block: %+v", rz2)
	}
}
