GO ?= go
SIM_SEED ?= 7
# GO_TAGS vets/builds alternative tag sets when the repo grows any.
GO_TAGS ?=

.PHONY: build test race bench bench-harness fmt fmt-check vet staticcheck ci cores sim examples cover fuzz-smoke e2e loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

# bench-harness vets and tests the wire benchmark in benchmark/, a
# separate module that `./...` does not reach but that compiles against
# api/client, api/server and internal/core — so a signature it uses
# cannot change unnoticed.
bench-harness:
	cd benchmark && $(GO) vet . && $(GO) test -cpu 1,2 .

fmt:
	gofmt -l -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet -tags '$(GO_TAGS)' ./...

# staticcheck runs when the binary is installed (CI installs it; local
# runs skip gracefully so the toolchain stays dependency-free).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# sim runs every fault campaign twice and verifies byte-identical replay.
sim:
	$(GO) run ./cmd/genio-sim -campaign all -seed $(SIM_SEED) > /tmp/genio-sim-a.json
	$(GO) run ./cmd/genio-sim -campaign all -seed $(SIM_SEED) > /tmp/genio-sim-b.json
	cmp /tmp/genio-sim-a.json /tmp/genio-sim-b.json
	$(GO) run ./cmd/genio-sim -campaign all -seed $(SIM_SEED) -summary

examples:
	for d in examples/*/; do echo "=== $$d"; $(GO) run "./$$d" || exit 1; done

# e2e boots a real geniod and drives genioctl against it over the wire:
# deploy (placed + typed rejection), SSE watch, cordon/drain, nodes,
# then SIGTERM and a clean-shutdown assertion.
e2e:
	sh scripts/e2e.sh

cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

fuzz-smoke:
	$(GO) test -fuzz=FuzzONUDeliver -fuzztime=15s ./internal/pon/
	$(GO) test -fuzz=FuzzWorkloadSpecToOrchestrator -fuzztime=15s ./api/
	$(GO) test -fuzz=FuzzVerify -fuzztime=15s ./api/
	$(GO) test -fuzz=FuzzDecodeWireError -fuzztime=15s ./api/
	$(GO) test -fuzz=FuzzWireCodec -fuzztime=15s ./api/
	$(GO) test -fuzz=FuzzWALRecover -fuzztime=15s ./internal/persist/
	$(GO) test -fuzz=FuzzWALCodec -fuzztime=15s ./internal/persist/
	$(GO) test -fuzz=FuzzReplayMatchesReference -fuzztime=15s ./internal/persist/
	$(GO) test -fuzz=FuzzDecoderMatchesEncodingJSON -fuzztime=15s ./internal/jsoncodec/
	$(GO) test -fuzz=FuzzSASTPrefilter -fuzztime=15s ./internal/sast/
	$(GO) test -fuzz=FuzzMalwarePrefilter -fuzztime=15s ./internal/malware/

# loc prints the number each simplicity round is judged on: tracked
# non-test Go outside the benchmark module, comments and blank lines
# included. Tracked, not found: benchmark/run.sh and the pair driver
# leave whole checkouts under the git-ignored .bench_build/.
loc:
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^benchmark/' | xargs cat | wc -l

# cores mirrors the cores job of .github/workflows/ci.yml: the tests,
# the replay gate, the federation, onboarding, scan-once, verdict-cache,
# watch, incident-ledger and candidate-table storms, the WAL committer and
# snapshot races, the simulator's wire campaigns under -race and the
# bench smoke at GOMAXPROCS 1, 2 and 4, so a gate that only holds on
# one core cannot pass.
cores:
	for n in 1 2 4; do \
		echo "=== GOMAXPROCS=$$n"; \
		GOMAXPROCS=$$n $(GO) test -count=1 ./... && \
		GOMAXPROCS=$$n $(MAKE) sim && \
		GOMAXPROCS=$$n $(GO) test -race -count=20 -run 'Evacuate|Remove|Storm' ./internal/federation && \
		GOMAXPROCS=$$n $(GO) test -race -count=5 -run 'Onboard|NodeProvisioning' ./internal/core && \
		GOMAXPROCS=$$n $(GO) test -race -count=5 -run 'ScanOnce|FederatedVerdict' ./internal/core && \
		GOMAXPROCS=$$n $(GO) test -race -count=5 -run 'Admission|Verdict|PeerShares' ./internal/orchestrator && \
		GOMAXPROCS=$$n $(GO) test -race -count=10 -run 'Watch|EventLog|Incident' ./internal/core ./api/server && \
		GOMAXPROCS=$$n $(GO) test -race -count=5 -run 'CandidateTable|AccountingBalanced|CommitRace' ./internal/orchestrator && \
		GOMAXPROCS=$$n $(GO) test -race -count=5 -run 'WALConcurrentAppendSnapshot|WALGroupCommit|SnapshotWhileDeploying|CrashRecoveryExactState' ./internal/persist ./internal/core && \
		GOMAXPROCS=$$n $(GO) test -race -count=2 -run 'CrossTheWire|Deterministic' ./internal/sim && \
		GOMAXPROCS=$$n $(GO) test -bench=. -benchtime=1x -run='^$$' ./... || exit 1; \
	done
	$(GO) test -count=3 -cpu 1,2,4 -run TestCampaignsDeterministic ./internal/sim

# ci mirrors the checks and cores jobs of .github/workflows/ci.yml for
# local runs (the workflow's separate e2e, examples and coverage jobs
# have their own targets: `make e2e`, `make examples`, `make cover`).
ci: build vet staticcheck fmt-check race bench-harness fuzz-smoke cores
