package cluster

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"ratiorules/internal/obs"
	"ratiorules/internal/obs/trace"
	"ratiorules/internal/online"
)

// TestCrossNodeTracePropagation drives one traced ingest through a
// coordinator and two HTTP workers and asserts the whole pipeline
// shares a single trace ID: the coordinator's flight recorder holds the
// cluster.fanout span with remote-child references to both workers, and
// each worker's recorder holds a cluster.fold_stream subtree — under
// the SAME trace ID — with an unresolved remote parent pointing back at
// the coordinator.
func TestCrossNodeTracePropagation(t *testing.T) {
	coordTracer := trace.New(trace.Config{})
	workerTracers := make([]*trace.Tracer, 2)
	urls := make([]string, 2)
	for i := range workerTracers {
		wt := trace.New(trace.Config{})
		workerTracers[i] = wt
		w := NewWorker(WithWorkerTracer(wt))
		srv := httptest.NewServer(w.Handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	mgr, err := online.NewManager(newModelStore(), online.Config{Seed: 42, RepublishRows: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{
		Workers:       urls,
		Manager:       mgr,
		Metrics:       obs.NewRegistry(),
		Tracer:        coordTracer,
		ChunkRows:     32, // small chunks so both workers see several
		PullEvery:     time.Hour,
		HealthEvery:   time.Hour,
		RepublishRows: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(func() {
		_ = c.Close(context.Background())
		_ = mgr.Close()
	})

	// Root a span the way the HTTP layer does for POST ingest — without
	// an active trace in ctx the session opens no fanout span at all.
	ctx, root := coordTracer.StartRoot(context.Background(), "POST /v1/rules/{name}/ingest", trace.SpanContext{})
	sess, err := c.Ingest(ctx, "traced", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	accepted, rejected := pushAll(t, sess, testRows(2048, 6, 7))
	if rejected != 0 || accepted != 2048 {
		t.Fatalf("accepted=%d rejected=%d, want 2048/0", accepted, rejected)
	}
	root.End()
	traceID := root.TraceID()

	// Coordinator side: the sealed trace must hold the fanout span with
	// a remote-child reference per worker that received chunks.
	td, ok := coordTracer.Recorder().Get(traceID)
	if !ok {
		t.Fatalf("coordinator recorder has no trace %s", traceID)
	}
	var fanout *trace.SpanData
	for i := range td.Spans {
		if td.Spans[i].Name == "cluster.fanout" {
			fanout = &td.Spans[i]
		}
	}
	if fanout == nil {
		t.Fatalf("no cluster.fanout span in coordinator trace: %+v", td.Spans)
	}
	childNodes := map[string]bool{}
	for _, ref := range trace.RemoteRefs(td.Spans) {
		if ref.Kind == "child" {
			childNodes[ref.Node] = true
		}
	}
	for _, u := range urls {
		if !childNodes[u] {
			t.Errorf("coordinator trace missing remote-child ref for worker %s (got %v)", u, childNodes)
		}
	}

	// Worker side: each node seals its fold_stream root when the fan-out
	// stream closes, slightly after Session.Close returns — poll. The
	// trace ID must match the coordinator's, and the subtree must carry
	// an unresolved remote parent (the fanout span lives elsewhere).
	for i, wt := range workerTracers {
		var wtd trace.TraceData
		deadline := time.Now().Add(2 * time.Second)
		for {
			if wtd, ok = wt.Recorder().Get(traceID); ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("worker %d never sealed a trace under coordinator trace ID %s", i, traceID)
			}
			time.Sleep(5 * time.Millisecond)
		}
		var foldStream, fold bool
		for _, sp := range wtd.Spans {
			switch sp.Name {
			case "cluster.fold_stream":
				foldStream = true
			case "cluster.fold":
				fold = true
			}
		}
		if !foldStream || !fold {
			t.Errorf("worker %d trace: fold_stream=%v fold=%v, want both", i, foldStream, fold)
		}
		var remoteParent bool
		for _, ref := range trace.RemoteRefs(wtd.Spans) {
			if ref.Kind == "parent" && ref.SpanID == fanout.SpanID {
				remoteParent = true
			}
		}
		if !remoteParent {
			t.Errorf("worker %d trace has no remote-parent ref to the coordinator fanout span %s: %+v",
				i, fanout.SpanID, trace.RemoteRefs(wtd.Spans))
		}
	}
}

// TestUntracedIngestOpensNoWorkerTrace pins the negative space: without
// an active trace on the coordinator context, chunks go out as plain
// RRC1 frames and workers root nothing.
func TestUntracedIngestOpensNoWorkerTrace(t *testing.T) {
	wt := trace.New(trace.Config{})
	w := NewWorker(WithWorkerTracer(wt))
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(srv.Close)

	mgr, err := online.NewManager(newModelStore(), online.Config{Seed: 1, RepublishRows: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{
		Workers:       []string{srv.URL},
		Manager:       mgr,
		Metrics:       obs.NewRegistry(),
		ChunkRows:     64,
		PullEvery:     time.Hour,
		HealthEvery:   time.Hour,
		RepublishRows: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(func() {
		_ = c.Close(context.Background())
		_ = mgr.Close()
	})

	sess, err := c.Ingest(context.Background(), "plain", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	pushAll(t, sess, testRows(256, 4, 3))
	// Give any stray stream-close span a moment to land, then require
	// the worker recorder stayed empty.
	time.Sleep(50 * time.Millisecond)
	if n := wt.Recorder().Len(); n != 0 {
		t.Fatalf("worker recorded %d traces for an untraced ingest, want 0", n)
	}
}
