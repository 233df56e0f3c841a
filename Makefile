GO ?= go
FUZZTIME ?= 10s
# Pinned staticcheck build for `make lint`; used via `go run` only when
# no staticcheck binary is on PATH (needs network for the first run).
STATICCHECK_VERSION ?= 2025.1

.PHONY: all build vet fmtcheck test race lint verify verify-api verify-store verify-trace verify-online verify-alert verify-cluster verify-replica verify-fleet verify-admission fuzz bench clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmtcheck fails when gofmt would reformat any Go file in the tree.
fmtcheck:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "fmtcheck: gofmt -l lists:"; echo "$$unformatted"; exit 1; \
	fi

test:
	$(GO) test ./...

# race runs the race detector over the whole module; the obs registry and
# the server model registry additionally have dedicated concurrent-scrape
# stress tests (see internal/obs/race_test.go, internal/server).
race:
	$(GO) test -race ./...

# lint runs staticcheck: the PATH binary when present, else the pinned
# version via `go run` (which downloads it — CI does this; offline
# machines without the binary get a skip, not a failure, which is why
# lint is a CI step and not part of the offline `make verify` gate).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) -version >/dev/null 2>&1; then \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	else \
		echo "lint: staticcheck unavailable (offline?); skipping"; \
	fi

# verify-store hammers the durable model store: race detector plus
# -count=3 so every run re-exercises open/recover/compact on fresh
# temp dirs (WAL truncation tests are offset-exhaustive and cheap).
verify-store:
	$(GO) test -race -count=3 ./internal/store

# verify-api checks the v1 HTTP contract (docs/api.md): the route-walking
# contract test plus vet and the race detector over the server and the
# core batch engine it fronts.
verify-api:
	$(GO) vet ./internal/server ./internal/core
	$(GO) test -run 'TestV1Contract' -count=1 ./internal/server
	$(GO) test -race ./internal/server ./internal/core

# verify-trace checks the request-tracing layer (docs/observability.md):
# vet plus the race detector over the span tracer, the obs wiring and
# the server middleware/debug endpoints that publish the traces.
verify-trace:
	$(GO) vet ./internal/obs/... ./internal/server
	$(GO) test -race ./internal/obs/... ./internal/server

# verify-online checks the live-ingest subsystem (docs/online.md): the
# manager/stream/gate/checkpoint suite under the race detector twice
# (republish scheduling is timing-sensitive), plus the HTTP ingest
# contract and the rrserve end-to-end lifecycle test.
verify-online:
	$(GO) vet ./internal/online ./internal/server ./cmd/rrserve
	$(GO) test -race -count=2 ./internal/online/...
	$(GO) test -run 'TestIngest|TestStreamLifecycle|TestV1Contract' -count=1 ./internal/server
	$(GO) test -race -run 'TestOnlineIngestEndToEnd' -count=1 ./cmd/rrserve

# verify-alert checks the model-quality monitor (docs/observability.md,
# "Model-quality alerts"): the alert engine's state machines, the GE
# monitor/auto-rollback path under the race detector, the health/alert
# HTTP surface, and the rrserve drift-to-rollback end-to-end pair.
verify-alert:
	$(GO) vet ./internal/obs/alert ./internal/online ./cmd/rrserve
	$(GO) test -race -count=2 ./internal/obs/alert
	$(GO) test -race -run 'TestGateDecisions|TestEvalGE|TestGEHistory|TestRegressionAlert|TestAutoRollback|TestCheckpointResumeGEHistory|TestGEEvalTick' -count=1 ./internal/online
	$(GO) test -run 'TestV1Contract|TestModelHealth|TestReadyz|TestDebugAlerts' -count=1 ./internal/server
	$(GO) test -race -run 'TestDrift' -count=1 ./cmd/rrserve

# verify-cluster checks the sharded ingest/mining cluster
# (docs/cluster.md): the wire framing, shard-merge exactness, failover,
# and local-transport suites under the race detector twice (fan-out
# teardown ordering is timing-sensitive), the coordinator-mode HTTP
# contract, and the multi-node rrserve end-to-end test.
verify-cluster:
	$(GO) vet ./internal/cluster ./internal/server ./cmd/rrserve
	$(GO) test -race -count=2 ./internal/cluster
	$(GO) test -run 'TestCluster' -count=1 ./internal/server
	$(GO) test -race -run 'TestClusterEndToEnd' -count=1 ./cmd/rrserve

# verify-replica checks WAL-shipped follower replication
# (docs/replication.md): the wire framing, follower loop and store
# replication surface under the race detector twice (reconnect/stall
# paths are timing-sensitive), the role-gated HTTP contract, and the
# rrserve leader/follower end-to-end test (kill/restart both sides,
# byte-identical reads, checkpointed resume with no duplicate replay).
verify-replica:
	$(GO) vet ./internal/replica ./internal/store ./internal/server ./cmd/rrserve
	$(GO) test -race -count=2 ./internal/replica
	$(GO) test -race -run 'TestEventsSince|TestChangedWakesTailers|TestApplyEvent|TestRestoreSnapshot' -count=1 ./internal/store
	$(GO) test -run 'TestV1Contract|TestFollower|TestReplicateRouteOnLeader' -count=1 ./internal/server
	$(GO) test -race -run 'TestFollower' -count=1 ./cmd/rrserve

# verify-fleet checks the fleet-wide observability layer
# (docs/observability.md, "Fleet observability"): the federated fleet
# collector and the continuous-profiling ring under the race detector
# twice (scrape fan-out and ring eviction are concurrency-sensitive),
# plus the cross-node trace propagation suites (coordinator→worker over
# the RRC2 wire, leader→follower over replication stamps) and the
# fleet/profile HTTP surface.
verify-fleet:
	$(GO) vet ./internal/obs/fleet ./internal/obs/profile ./internal/cluster ./internal/replica ./internal/server
	$(GO) test -race -count=2 ./internal/obs/fleet ./internal/obs/profile
	$(GO) test -race -run 'TestCrossNodeTracePropagation|TestUntracedIngestOpensNoWorkerTrace|TestChunkTrace' -count=1 ./internal/cluster
	$(GO) test -race -run 'TestFollowerContinuesLeaderTrace|TestUntracedCommitAppliesQuietly' -count=1 ./internal/replica
	$(GO) test -run 'TestV1Contract|TestFleetRoutes|TestProfileRoutes|TestMetricsServesBuildInfo' -count=1 ./internal/server

# verify-admission checks admission control & multi-tenancy
# (docs/api.md "Authentication and multi-tenancy", docs/runbook.md):
# the tenant registry / bucket / quota / shed suites under the race
# detector twice (bounded-wait and reload paths are timing-sensitive),
# the auth/rate-limit/isolation/shed HTTP contract, and the rrserve
# end-to-end pair (tenants-file boot + SIGHUP rotation, flags-only
# anonymous admission).
verify-admission:
	$(GO) vet ./internal/admission ./internal/server ./cmd/rrserve
	$(GO) test -race -count=2 ./internal/admission
	$(GO) test -run 'TestV1Contract' -count=1 ./internal/server
	$(GO) test -race -run 'TestAdmission' -count=1 ./cmd/rrserve

# verify is the gate for every change: gofmt, vet (of this module and of
# perfbench, a separate module that root builds never compile, so an API
# change it depends on fails here rather than when the benchmark runs),
# a full build, the race detector across all packages, then the store
# persistence gauntlet,
# the HTTP API contract, the tracing layer, the live-ingest loop, the
# model-quality alert path, the sharded cluster, follower replication,
# the fleet observability layer and admission control. It also runs
# BenchmarkRepublish once per width as a smoke test of the stage timers.
# (Lint is a separate CI step — it may need the network to fetch
# staticcheck.)
verify: fmtcheck
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) test -run '^$$' -bench '^BenchmarkRepublish$$' -benchtime 1x ./internal/online
	$(MAKE) verify-store
	$(MAKE) verify-api
	$(MAKE) verify-trace
	$(MAKE) verify-online
	$(MAKE) verify-alert
	$(MAKE) verify-cluster
	$(MAKE) verify-replica
	$(MAKE) verify-fleet
	$(MAKE) verify-admission

# fuzz runs every fuzz target in the module for FUZZTIME (default 10s).
# Go allows one -fuzz pattern per invocation, hence the separate runs.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzFillRow$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzWhatIf$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzGE1LeaveOneOut$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzWALDecode$$' -fuzztime=$(FUZZTIME) ./internal/store
	$(GO) test -run='^$$' -fuzz='^FuzzLoadStreamMiner$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzReadCSV$$' -fuzztime=$(FUZZTIME) ./internal/dataset
	$(GO) test -run='^$$' -fuzz='^FuzzCSVSource$$' -fuzztime=$(FUZZTIME) ./internal/dataset
	$(GO) test -run='^$$' -fuzz='^FuzzRowCodec$$' -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run='^$$' -fuzz='^FuzzReplicaFrame$$' -fuzztime=$(FUZZTIME) ./internal/replica
	$(GO) test -run='^$$' -fuzz='^FuzzClusterWire$$' -fuzztime=$(FUZZTIME) ./internal/cluster

bench:
	$(GO) run ./cmd/rrbench -experiment all

clean:
	$(GO) clean ./...
