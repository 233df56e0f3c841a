package main

import (
	"context"
	"net/http/httptest"
	"testing"
)

// TestTopUpPublishesEveryRow drives the in-process server through the
// ingest path the benchmark checks, both with the republisher running
// in the background, as rrserve runs it, and without it, when a
// republish runs inside the push that fires it. After any first top-up
// every row is published; 44 more rows then stay pending, below the
// trigger, and topUp must send exactly the 212 that fire the next
// republish, so the served model is trained on every row sent.
func TestTopUpPublishesEveryRow(t *testing.T) {
	for _, background := range []bool{true, false} {
		sp := specs["ingest_narrow"]
		in := generate(sp, 1)
		s, err := newStack(t.TempDir(), sp, nil, republishRows)
		if err != nil {
			t.Fatal(err)
		}
		if background {
			s.mgr.Start()
		}
		srv := httptest.NewServer(s.handler)
		cl := newClient()
		ctx := context.Background()
		url := srv.URL + "/v1/rules/" + model + "/ingest"
		send := func(from, n int) *streamResult {
			sres, err := stream(ctx, cl, url, "", rotate(in.ingestLines, from), sp.window, 0,
				func(i int) bool { return i < n }, nil)
			if err != nil {
				t.Fatal(err)
			}
			return sres
		}
		res := newResult()
		sres := send(0, 300)
		if err := topUp(ctx, cl, srv.URL, sp, in, sres, res); err != nil {
			t.Fatal(err)
		}
		sres.extend(send(sres.sent, 44))
		before := sres.sent
		if err := topUp(ctx, cl, srv.URL, sp, in, sres, res); err != nil {
			t.Fatal(err)
		}
		for _, err := range res.checks {
			t.Error(err)
		}
		if got := sres.sent - before; got != republishRows-44 || len(sres.ackAt) != sres.sent {
			t.Errorf("background=%v: top-up sent %d rows (%d answers for %d sent), want %d",
				background, got, len(sres.ackAt), sres.sent, republishRows-44)
		}
		served, _, ok := s.reg.GetWithVersion(model)
		if !ok {
			t.Fatal("no model served")
		}
		if err := checkIngested(served, in, sres.sent); err != nil {
			t.Errorf("background=%v: %v", background, err)
		}
		closeClient(cl)
		srv.Close()
		if err := s.close(); err != nil {
			t.Error(err)
		}
	}
}
