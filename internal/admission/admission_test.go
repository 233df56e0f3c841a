package admission

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ratiorules/internal/obs"
)

func writeTenants(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func newTestController(t *testing.T, cfg Config) *Controller {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

const tenantsJSON = `{
  "anonymous": "acme",
  "defaults": {"requests_per_second": 100, "max_in_flight": 8},
  "tenants": [
    {"id": "acme", "token": "tok-acme"},
    {"id": "globex", "token": "tok-globex", "priority": 2,
     "limits": {"requests_per_second": 5, "request_burst": 5}},
    {"id": "initech", "token": "tok-initech", "priority": 0, "disabled": true}
  ]
}`

func TestControllerAuthenticate(t *testing.T) {
	c := newTestController(t, Config{TenantsFile: writeTenants(t, tenantsJSON)})

	anon, err := c.Authenticate("")
	if err != nil || anon.ID != "acme" {
		t.Fatalf("anonymous auth = (%v, %v), want acme", anon, err)
	}
	if anon.Scope != "" {
		t.Fatalf("anonymous tenant scope = %q, want root", anon.Scope)
	}
	gx, err := c.Authenticate("tok-globex")
	if err != nil || gx.ID != "globex" {
		t.Fatalf("globex auth = (%v, %v)", gx, err)
	}
	if gx.Scope != "globex/" || gx.Priority != PriorityHigh {
		t.Fatalf("globex scope/priority = %q/%d", gx.Scope, gx.Priority)
	}
	if gx.ScopedName("m1") != "globex/m1" {
		t.Fatalf("ScopedName = %q", gx.ScopedName("m1"))
	}
	if _, err := c.Authenticate("nope"); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("unknown token err = %v, want ErrUnauthorized", err)
	}
	if _, err := c.Authenticate("tok-initech"); !errors.Is(err, ErrForbidden) {
		t.Fatalf("disabled tenant err = %v, want ErrForbidden", err)
	}
}

func TestControllerNilAdmitsEverything(t *testing.T) {
	var c *Controller
	tn, err := c.Authenticate("whatever")
	if tn != nil || err != nil {
		t.Fatalf("nil controller auth = (%v, %v)", tn, err)
	}
	release, err := c.AdmitRequest(context.Background(), nil, false)
	if err != nil {
		t.Fatalf("nil controller admit: %v", err)
	}
	release()
	if err := c.RowGate(nil, false).Take(context.Background()); err != nil {
		t.Fatalf("nil controller row gate: %v", err)
	}
}

func TestControllerSingleTenantMode(t *testing.T) {
	c := newTestController(t, Config{Defaults: Limits{RequestsPerSecond: 2, RequestBurst: 2}})
	tn, err := c.Authenticate("")
	if err != nil || tn.ID != AnonymousID || tn.Scope != "" {
		t.Fatalf("single-tenant auth = (%+v, %v)", tn, err)
	}
	// Tokens are ignored (no registry): still anonymous? No — unknown
	// tokens must still 401 so a typo'd token is not silently anonymous.
	if _, err := c.Authenticate("bogus"); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("unknown token in single-tenant mode = %v, want ErrUnauthorized", err)
	}
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		release, err := c.AdmitRequest(ctx, tn, false)
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		release()
	}
	_, err = c.AdmitRequest(ctx, tn, false)
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("third admit = %v, want ErrRateLimited", err)
	}
	if RetryAfterOf(err) <= 0 {
		t.Fatal("rate-limit error carries no Retry-After")
	}
}

func TestControllerQuotaAndRelease(t *testing.T) {
	c := newTestController(t, Config{
		TenantsFile: writeTenants(t, `{"tenants":[
			{"id":"a","token":"ta","limits":{"max_in_flight":1,"max_wait_ms":-1}}]}`),
	})
	tn, err := c.Authenticate("ta")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	release, err := c.AdmitRequest(ctx, tn, false)
	if err != nil {
		t.Fatalf("first admit: %v", err)
	}
	if _, err := c.AdmitRequest(ctx, tn, false); !errors.Is(err, ErrOverQuota) {
		t.Fatalf("second admit = %v, want ErrOverQuota", err)
	}
	release()
	release2, err := c.AdmitRequest(ctx, tn, false)
	if err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	release2()
}

func TestControllerStreamSkipsRequestBucket(t *testing.T) {
	c := newTestController(t, Config{Defaults: Limits{RequestsPerSecond: 1, RequestBurst: 1}})
	tn, _ := c.Authenticate("")
	ctx := context.Background()
	// Streams bypass the request bucket; many admits must succeed.
	for i := 0; i < 10; i++ {
		release, err := c.AdmitRequest(ctx, tn, true)
		if err != nil {
			t.Fatalf("stream admit %d: %v", i, err)
		}
		release()
	}
}

func TestGlobalCeilingShedsLowPriorityFirst(t *testing.T) {
	c := newTestController(t, Config{
		GlobalInFlight: 10,
		TenantsFile: writeTenants(t, `{"tenants":[
			{"id":"low","token":"tl","priority":0},
			{"id":"high","token":"th","priority":2}]}`),
	})
	low, _ := c.Authenticate("tl")
	high, _ := c.Authenticate("th")
	ctx := context.Background()

	var releases []func()
	for i := 0; i < 6; i++ { // fill to 60% of ceiling
		r, err := c.AdmitRequest(ctx, high, false)
		if err != nil {
			t.Fatalf("high admit %d: %v", i, err)
		}
		releases = append(releases, r)
	}
	// Low priority sheds at >= 60% of the ceiling...
	if _, err := c.AdmitRequest(ctx, low, false); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("low-priority admit at 60%% = %v, want ErrOverloaded", err)
	}
	// ...while high priority still gets the remaining headroom.
	for i := 0; i < 4; i++ {
		r, err := c.AdmitRequest(ctx, high, false)
		if err != nil {
			t.Fatalf("high admit at %d/10: %v", 6+i, err)
		}
		releases = append(releases, r)
	}
	if _, err := c.AdmitRequest(ctx, high, false); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("high-priority admit at ceiling = %v, want ErrOverloaded", err)
	}
	for _, r := range releases {
		r()
	}
	if r, err := c.AdmitRequest(ctx, low, false); err != nil {
		t.Fatalf("low-priority admit after drain: %v", err)
	} else {
		r()
	}
}

// TestGlobalInflightGaugeReturnsToZero pins the metric bookkeeping:
// the rr_admission_global_in_flight gauge must track releases, not
// just admits — it once stuck at the last admit's count forever.
func TestGlobalInflightGaugeReturnsToZero(t *testing.T) {
	metrics := obs.NewRegistry()
	c := newTestController(t, Config{GlobalInFlight: 4, Metrics: metrics})
	gauge := func() float64 {
		for _, s := range metrics.Gather() {
			if s.Name == "rr_admission_global_in_flight" {
				return s.Value
			}
		}
		return -1
	}
	ctx := context.Background()
	r1, err := c.AdmitRequest(ctx, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.AdmitRequest(ctx, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if g := gauge(); g != 2 {
		t.Fatalf("gauge after 2 admits = %v, want 2", g)
	}
	r1()
	if g := gauge(); g != 1 {
		t.Fatalf("gauge after 1 release = %v, want 1", g)
	}
	r2()
	if g := gauge(); g != 0 {
		t.Fatalf("gauge after all releases = %v, want 0", g)
	}
}

func TestRowGateShedsAndRefunds(t *testing.T) {
	c := newTestController(t, Config{
		MaxWait:  time.Millisecond,
		Defaults: Limits{RowsPerSecond: 50, RowBurst: 50},
	})
	tn, _ := c.Authenticate("")
	g := c.RowGate(tn, false)
	ctx := context.Background()
	admitted := 0
	var shedErr error
	for i := 0; i < 200; i++ {
		if err := g.Take(ctx); err != nil {
			shedErr = err
			break
		}
		admitted++
	}
	if shedErr == nil {
		t.Fatal("row gate never shed at 50 rows/s burst 50 over 200 rows")
	}
	if !errors.Is(shedErr, ErrRateLimited) {
		t.Fatalf("shed error = %v, want ErrRateLimited", shedErr)
	}
	if RetryAfterOf(shedErr) <= 0 {
		t.Fatal("row shed carries no Retry-After")
	}
	if admitted < 50 {
		t.Fatalf("admitted %d rows, want >= burst 50", admitted)
	}
	g.Close()
}

func TestRowGateBatchBucketIsSeparate(t *testing.T) {
	c := newTestController(t, Config{
		MaxWait:  time.Millisecond,
		Defaults: Limits{RowsPerSecond: 10, RowBurst: 10, BatchRowsPerSecond: 1000, BatchRowBurst: 1000},
	})
	tn, _ := c.Authenticate("")
	ctx := context.Background()
	ig := c.RowGate(tn, false)
	for { // drain the ingest bucket
		if err := ig.Take(ctx); err != nil {
			break
		}
	}
	ig.Close()
	bg := c.RowGate(tn, true)
	defer bg.Close()
	for i := 0; i < 100; i++ {
		if err := bg.Take(ctx); err != nil {
			t.Fatalf("batch row %d blocked by drained ingest bucket: %v", i, err)
		}
	}
}

func TestIngestSlotQueueBounds(t *testing.T) {
	c := newTestController(t, Config{IngestQueue: 1, MaxWait: 20 * time.Millisecond})
	ctx := context.Background()
	release, err := c.IngestSlot(ctx, nil, "m", nil)
	if err != nil {
		t.Fatalf("first slot: %v", err)
	}
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			r, err := c.IngestSlot(ctx, nil, "m", nil)
			if err == nil {
				r()
			}
			errs <- err
		}()
	}
	// One waiter queues (and sheds after MaxWait since the slot is
	// held); the overflow waiter sheds immediately. Both end OverQuota.
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, ErrOverQuota) {
			t.Fatalf("queued ingest err = %v, want ErrOverQuota", err)
		}
	}
	release()
	r2, err := c.IngestSlot(ctx, nil, "m", nil)
	if err != nil {
		t.Fatalf("slot after release: %v", err)
	}
	r2()
	c.DropIngestQueue("m")
}

// TestWaitHooksRunBeforeBlocking: a row gate out of tokens and a
// contended ingest queue run the caller's hook before they park (the
// streaming handlers flush their buffered lines there), and the
// uncontended fast paths never run it.
func TestWaitHooksRunBeforeBlocking(t *testing.T) {
	c := newTestController(t, Config{
		MaxWait:     time.Second,
		IngestQueue: 1,
		Defaults:    Limits{RowsPerSecond: 20, RowBurst: 20},
	})
	tn, _ := c.Authenticate("")
	ctx := context.Background()
	waits := 0
	g := c.RowGate(tn, false)
	g.OnWait(func() { waits++ })
	if err := g.Take(ctx); err != nil || waits != 0 {
		t.Fatalf("row within the burst: err %v, hook ran %d times", err, waits)
	}
	for i := 0; i < 64 && waits == 0; i++ { // past the burst each row waits ~50ms
		if err := g.Take(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if waits == 0 {
		t.Fatal("rows waited for tokens without running the hook")
	}
	g.Close()

	release, err := c.IngestSlot(ctx, tn, "m", func() { t.Error("uncontended slot ran its wait hook") })
	if err != nil {
		t.Fatal(err)
	}
	queued := make(chan struct{})
	got := make(chan error)
	go func() {
		r, err := c.IngestSlot(ctx, tn, "m", func() { close(queued) })
		if err == nil {
			r()
		}
		got <- err
	}()
	<-queued // the hook ran with the slot still held
	release()
	if err := <-got; err != nil {
		t.Fatalf("queued slot: %v", err)
	}
}

func TestReloadKeepsStateAndLastGood(t *testing.T) {
	path := writeTenants(t, `{"tenants":[
		{"id":"a","token":"ta","limits":{"requests_per_second":10,"request_burst":100}}]}`)
	c := newTestController(t, Config{TenantsFile: path})
	tn, _ := c.Authenticate("ta")
	// Spend most of the burst.
	for i := 0; i < 90; i++ {
		if r, err := c.AdmitRequest(context.Background(), tn, false); err == nil {
			r()
		}
	}
	// Reload with a smaller burst: balance must clamp, not refill.
	if err := os.WriteFile(path, []byte(`{"tenants":[
		{"id":"a","token":"ta","limits":{"requests_per_second":10,"request_burst":20}}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.Reload(); err != nil {
		t.Fatalf("reload: %v", err)
	}
	tn2, err := c.Authenticate("ta")
	if err != nil {
		t.Fatal(err)
	}
	if tn2.state != tn.state {
		t.Fatal("reload rebuilt tenant state instead of preserving it")
	}
	if bal := tn2.state.requests.available(); bal > 21 {
		t.Fatalf("reload minted tokens: balance %v > new burst 20", bal)
	}

	// A broken file keeps the last-good registry serving.
	if err := os.WriteFile(path, []byte(`{broken`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.Reload(); err == nil {
		t.Fatal("reload of a broken file should error")
	}
	if _, err := c.Authenticate("ta"); err != nil {
		t.Fatalf("last-good registry stopped serving after failed reload: %v", err)
	}
	h := c.Health()
	if h.ReloadError == "" {
		t.Fatal("failed reload not surfaced in Health")
	}
}

func TestRunPollsFileChanges(t *testing.T) {
	path := writeTenants(t, `{"tenants":[{"id":"a","token":"ta"}]}`)
	c := newTestController(t, Config{TenantsFile: path, PollInterval: 10 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go c.Run(ctx)

	if _, err := c.Authenticate("tb"); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("pre-reload auth = %v", err)
	}
	// Rewrite with a new tenant and a bumped mtime.
	if err := os.WriteFile(path, []byte(`{"tenants":[
		{"id":"a","token":"ta"},{"id":"b","token":"tb"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	future := time.Now().Add(time.Second)
	_ = os.Chtimes(path, future, future)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := c.Authenticate("tb"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("poll loop never picked up the rewritten tenants file")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestParseTenantsFileValidation(t *testing.T) {
	cases := []struct{ name, body string }{
		{"empty tenants", `{"tenants":[]}`},
		{"missing id", `{"tenants":[{"token":"t"}]}`},
		{"slash in id", `{"tenants":[{"id":"a/b","token":"t"}]}`},
		{"duplicate id", `{"tenants":[{"id":"a","token":"t1"},{"id":"a","token":"t2"}]}`},
		{"duplicate token", `{"tenants":[{"id":"a","token":"t"},{"id":"b","token":"t"}]}`},
		{"missing token", `{"tenants":[{"id":"a"}]}`},
		{"bad priority", `{"tenants":[{"id":"a","token":"t","priority":9}]}`},
		{"anonymous not listed", `{"anonymous":"ghost","tenants":[{"id":"a","token":"t"}]}`},
		{"unknown field", `{"tenants":[{"id":"a","token":"t","typo_field":1}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := parseTenantsFile(writeTenants(t, tc.body)); err == nil {
				t.Fatalf("parse accepted invalid file: %s", tc.body)
			}
		})
	}
	// And the happy path with an anonymous tenant omitting its token.
	f, err := parseTenantsFile(writeTenants(t, `{"anonymous":"pub","tenants":[{"id":"pub"}]}`))
	if err != nil {
		t.Fatalf("valid file rejected: %v", err)
	}
	if f.Anonymous != "pub" {
		t.Fatalf("anonymous = %q", f.Anonymous)
	}
}

func TestSnapshotShape(t *testing.T) {
	c := newTestController(t, Config{
		TenantsFile:    writeTenants(t, tenantsJSON),
		GlobalInFlight: 32,
	})
	tn, _ := c.Authenticate("tok-globex")
	release, err := c.AdmitRequest(context.Background(), tn, false)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	s := c.Snapshot()
	if len(s.Tenants) != 3 {
		t.Fatalf("snapshot tenants = %d, want 3", len(s.Tenants))
	}
	// Sorted: acme, globex, initech.
	if s.Tenants[0].ID != "acme" || !s.Tenants[0].Anonymous {
		t.Fatalf("first snapshot tenant = %+v", s.Tenants[0])
	}
	gx := s.Tenants[1]
	if gx.ID != "globex" || gx.InFlight != 1 {
		t.Fatalf("globex snapshot = %+v", gx)
	}
	if gx.RequestTokens == nil || *gx.RequestTokens > 5 {
		t.Fatalf("globex request tokens = %v, want <= burst 5", gx.RequestTokens)
	}
	if !s.Tenants[2].Disabled {
		t.Fatal("initech not marked disabled in snapshot")
	}
	if s.GlobalCeiling != 32 || s.GlobalInFlight != 1 {
		t.Fatalf("global snapshot = %d/%d", s.GlobalInFlight, s.GlobalCeiling)
	}
}
