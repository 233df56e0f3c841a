package server

// Probe and model-health surface tests: the liveness/readiness split,
// the wedged-store 503, and the ETag contract on the per-model health
// endpoint. The happy-path status codes are covered by the contract
// walk in contract_test.go; these tests pin the bodies.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"ratiorules/internal/obs"
	"ratiorules/internal/obs/alert"
	"ratiorules/internal/online"
	"ratiorules/internal/store"
)

// TestReadyzWedgedStore: a wedged store turns /readyz into a 503 with
// the v1 error envelope, while /healthz keeps answering 200 — a wedged
// store must drain traffic, not restart the process.
func TestReadyzWedgedStore(t *testing.T) {
	reg := NewRegistry()
	mgr, err := online.NewManager(reg, online.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	s := &service{
		reg:    reg,
		online: mgr,
		failed: func() error { return store.ErrFailed },
	}

	rec := httptest.NewRecorder()
	s.readyz(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz on wedged store = %d, want 503", rec.Code)
	}
	var env errorBody
	if err := json.NewDecoder(rec.Body).Decode(&env); err != nil {
		t.Fatalf("503 body is not the error envelope: %v", err)
	}
	if env.Error.Code != CodeStoreFailed {
		t.Fatalf("envelope code = %q, want %q", env.Error.Code, CodeStoreFailed)
	}

	// Liveness is unaffected by the wedge.
	rec = httptest.NewRecorder()
	s.health(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz on wedged store = %d, want 200", rec.Code)
	}
}

// TestModelHealthETag: the health endpoint mirrors the model GET's
// version pinning and If-None-Match handling.
func TestModelHealthETag(t *testing.T) {
	ts := contractServer(t) // "m" at version 2 with version 1 retained

	resp := doRaw(t, "GET", ts.URL+"/v1/rules/m/health", "", "")
	var head struct {
		Name           string  `json:"name"`
		Status         string  `json:"status"`
		Version        int     `json:"version"`
		ServingVersion int     `json:"serving_version"`
		Alerts         []any   `json:"alerts"`
		Samples        int     `json:"samples"`
		CurrentGE      float64 `json:"current_ge"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&head); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("ETag"); got != `"v2"` {
		t.Fatalf("head health ETag %q, want %q", got, `"v2"`)
	}
	if head.Name != "m" || head.Status != "ok" || head.Version != 2 || head.ServingVersion != 2 {
		t.Fatalf("head health = %+v", head)
	}
	if head.Alerts == nil {
		t.Fatal("alerts must serialize as [], not null")
	}

	resp = doRaw(t, "GET", ts.URL+"/v1/rules/m/health?version=1", "", "")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("ETag"); got != `"v1"` {
		t.Fatalf("pinned health ETag %q, want %q", got, `"v1"`)
	}

	req, _ := http.NewRequest("GET", ts.URL+"/v1/rules/m/health", nil)
	req.Header.Set("If-None-Match", `"v2"`)
	got, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, got.Body)
	got.Body.Close()
	if got.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional health GET: status %d, want 304", got.StatusCode)
	}
}

// TestDebugAlertsShape: /debug/alerts always answers with rules and
// states arrays (never null) plus the firing count.
func TestDebugAlertsShape(t *testing.T) {
	ts := newTestServer(t)
	resp := doRaw(t, "GET", ts.URL+"/debug/alerts", "", "")
	defer resp.Body.Close()
	var out struct {
		Firing int               `json:"firing"`
		Rules  []json.RawMessage `json:"rules"`
		States []json.RawMessage `json:"states"`
	}
	body, _ := io.ReadAll(resp.Body)
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("debug/alerts body %s: %v", body, err)
	}
	if out.Firing != 0 {
		t.Fatalf("fresh server firing = %d", out.Firing)
	}
	// The default engine ships rules; states start empty but present.
	if len(out.Rules) == 0 {
		t.Fatalf("default rules missing: %s", body)
	}
	if out.States == nil {
		t.Fatalf("states must serialize as [], not null: %s", body)
	}
}

// TestVersionGESurvivesRestart: the online monitor's per-version GE
// annotations live on the store's revisions and are checkpointed with
// the stream, so after a restart over the same data directory the
// versions listing and the health endpoint still show the GE of
// versions measured before it, and auto-rollback can still restore one
// of them.
func TestVersionGESurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	type node struct {
		st  *store.Store
		reg *Registry
		mgr *online.Manager
		ts  *httptest.Server
	}
	boot := func() *node {
		st, err := store.Open(filepath.Join(dir, "store"), store.WithObs(obs.NewRegistry()))
		if err != nil {
			t.Fatal(err)
		}
		reg := NewRegistryWithStore(st)
		metrics := obs.NewRegistry()
		eng, err := alert.NewEngine(alert.Config{
			Rules:   []alert.Rule{{Name: "ge_regression", Kind: alert.KindRegression, Ratio: 2, Baseline: 3, Recent: 2}},
			Metrics: metrics,
		})
		if err != nil {
			t.Fatal(err)
		}
		mgr, err := online.NewManager(reg, online.Config{
			RepublishRows:    1 << 30,
			ReservoirSize:    512,
			GESlack:          1e12, // force-promote the drift burst below
			CheckpointDir:    filepath.Join(dir, "online"),
			Metrics:          metrics,
			Alerts:           eng,
			AutoRollback:     true,
			RollbackCooldown: time.Nanosecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return &node{st: st, reg: reg, mgr: mgr, ts: httptest.NewServer(Handler(reg, WithOnline(mgr)))}
	}
	shutdown := func(n *node) {
		n.ts.Close()
		if err := n.mgr.Close(); err != nil {
			t.Fatal(err)
		}
		if err := n.st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	push := func(n *node, rows int, slope float64) {
		st, err := n.mgr.Stream("m", 0.9, true)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			x := 1 + float64(i%17)/4
			if _, err := st.Push(ctx, []float64{x, slope * x}); err != nil {
				t.Fatal(err)
			}
		}
	}
	republish := func(n *node, want string) online.RepublishResult {
		res, err := n.mgr.Republish(ctx, "m")
		if err != nil || !res.Promoted || res.Reason != want {
			t.Fatalf("republish: %+v, %v; want promoted %s", res, err, want)
		}
		return res
	}
	annotatedGE := func(n *node) map[int]float64 {
		var body struct {
			Versions []struct {
				Version int      `json:"version"`
				GE      *float64 `json:"ge"`
			} `json:"versions"`
		}
		if code := doJSON(t, "GET", n.ts.URL+"/v1/rules/m/versions", nil, &body); code != http.StatusOK {
			t.Fatalf("GET versions: status %d", code)
		}
		out := make(map[int]float64)
		for _, v := range body.Versions {
			if v.GE != nil {
				out[v.Version] = *v.GE
			}
		}
		return out
	}

	n := boot()
	push(n, 400, 2)
	republish(n, "first_publish") // v1: no baseline, so no GE
	push(n, 50, 2)
	republish(n, "ge_ok") // v2
	push(n, 50, 2)
	republish(n, "ge_ok") // v3
	if _, err := n.mgr.EvalGE(ctx, "m"); err != nil {
		t.Fatal(err)
	}
	before := annotatedGE(n)
	if _, ok2 := before[2]; !ok2 || len(before) != 2 {
		t.Fatalf("GE before restart = %v, want versions 2 and 3", before)
	}
	shutdown(n)

	n = boot()
	defer shutdown(n)
	if after := annotatedGE(n); !reflect.DeepEqual(after, before) {
		t.Fatalf("GE after restart = %v, want %v", after, before)
	}
	var health struct {
		VersionGE *float64 `json:"version_ge"`
	}
	if code := doJSON(t, "GET", n.ts.URL+"/v1/rules/m/health?version=2", nil, &health); code != http.StatusOK ||
		health.VersionGE == nil || *health.VersionGE != before[2] {
		t.Fatalf("health?version=2 after restart: status %d, version_ge %v, want %v", code, health.VersionGE, before[2])
	}

	// A drift burst is force-promoted as v4; its gate sample fires the
	// regression rule, and the only versions auto-rollback can pick are
	// the ones scored before the restart.
	push(n, 100, -2)
	republish(n, "ge_ok")
	if _, err := n.mgr.EvalGE(ctx, "m"); err != nil {
		t.Fatal(err)
	}
	h, _ := n.mgr.Health("m")
	if h.AutoRollbacks != 1 {
		t.Fatalf("auto-rollbacks after drift = %d, want 1", h.AutoRollbacks)
	}
	headRaw, head, _ := n.reg.GetRaw("m")
	restored := 0
	for v := range before {
		if raw, ok := n.reg.GetVersionRaw("m", v); ok && bytes.Equal(raw, headRaw) {
			restored = v
		}
	}
	if head != 5 || restored == 0 {
		t.Fatalf("head v%d restores version %d, want v5 restoring a version scored before the restart", head, restored)
	}
}
