# Build / verify targets. `make ci` is what every PR must keep green:
# the race detector covers the campaign runner's worker pool, and the
# smoke artifacts are gated against the committed rolling baselines in
# baselines/ — a scheduler-model change that shifts any scenario's
# metrics fails the smoke targets with a per-scenario diff. The
# underlying CLIs exit 3 on regression (vs 2 usage, 1 IO/runtime);
# make itself folds any recipe failure into its own exit code, so
# scripts that need the distinction invoke the CLIs directly or check
# for a non-empty *-diff.txt (what .github/workflows/ci.yml does).

GO ?= go

# Recipes pipe `go test` through tee (bench-out.txt); without pipefail a
# benchmark build failure or panic would exit 0 through tee and CI would
# gate on truncated output.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c

.PHONY: all build vet lint test race bench bench-out.txt bench-json \
	bench-baseline-refresh profile campaign bisect tourney bisect-smoke \
	campaign-smoke paper-smoke tourney-smoke explain-smoke trace-smoke dist-smoke fuzz \
	bisect-nightly campaign-nightly baseline-refresh ci nightly

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt must be clean and vet quiet.
lint:
	@drift="$$(gofmt -l .)"; if [ -n "$$drift" ]; then \
		echo "gofmt drift in:"; echo "$$drift"; exit 1; fi
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One pass over every benchmark at minimal iterations; full runs use
# `go test -bench=. -benchtime=...` directly.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x .

# The pinned perf-trajectory suite: the campaign throughput benchmark
# (events/s + scenarios/s) plus the engine microbenchmarks, parsed into
# a machine-readable report and gated against the committed allocation
# baseline (allocs/op only — wall clock is not comparable across
# machines). Exit 3 from benchjson = an allocation regression. The
# -max-allocs-per-event bound additionally asserts that obs-disabled
# campaign runs stay at or under one allocation per simulation event,
# so the observability hooks keep compiling down to a nil-check.
BENCH_PKG_ARGS  = -run '^$$' -bench 'BenchmarkCampaign|BenchmarkSimulatorThroughput' -benchmem -benchtime 5x .
BENCH_SIM_ARGS  = -run '^$$' -bench 'BenchmarkEngine|BenchmarkEvent' -benchmem -benchtime 1s ./internal/sim

bench-out.txt:
	@rm -f $@
	$(GO) test $(BENCH_PKG_ARGS) | tee -a $@
	$(GO) test $(BENCH_SIM_ARGS) | tee -a $@

bench-json: bench-out.txt
	$(GO) run ./cmd/benchjson -in bench-out.txt -out BENCH_campaign.json \
		-baseline baselines/bench-smoke.json -max-allocs-per-event 1

# Re-pin the allocation baseline after an intentional change (commit the
# result, like the campaign/bisect baselines).
bench-baseline-refresh: bench-out.txt
	$(GO) run ./cmd/benchjson -in bench-out.txt -out baselines/bench-smoke.json

# Capture CPU + allocation profiles of the campaign hot path. Explore
# with `go tool pprof -http=:8080 cpu.prof` (View > Flame Graph), or
# `go tool pprof -top cpu.prof` in a terminal.
profile:
	$(GO) test -run '^$$' -bench 'BenchmarkCampaign/workers=1$$' -benchtime 5x \
		-cpuprofile cpu.prof -memprofile mem.prof .
	@echo "profiles written: cpu.prof mem.prof"
	@echo "flamegraph: go tool pprof -http=:8080 cpu.prof"

# The standard 30-scenario campaign at a fast scale, artifact to
# campaign.json. Shard it with `-shard i/n` + `-merge`, or re-run
# incrementally with `-incremental campaign.json`.
campaign:
	$(GO) run ./cmd/campaign -matrix default -scale 0.25 -out campaign.json

# The full 128-cell fix-set bisection, artifact to bisect.json.
bisect:
	$(GO) run ./cmd/bisect -preset default -out bisect.json

# The 54-scenario policy tournament (both paper machines x three
# workloads x the nine-policy lineup), artifact to tourney.json.
tourney:
	$(GO) run ./cmd/tourney -preset default -out tourney.json

# The CI lattice: 48 scenarios under the race detector, gated against
# the committed rolling baseline ("exit status 3" in the output = a
# per-scenario regression, written to bisect-smoke-diff.txt). The second
# run repeats the sweep through the sequential runner and cmp asserts
# the forked runner's artifact is byte-identical to it — the
# checkpoint/fork equivalence contract, enforced on every push.
bisect-smoke:
	$(GO) run -race ./cmd/bisect -preset smoke -q -out bisect-smoke.json \
		-baseline baselines/bisect-smoke.json -diff-out bisect-smoke-diff.txt
	$(GO) run -race ./cmd/bisect -preset smoke -q -no-fork -out bisect-smoke-nofork.json
	cmp bisect-smoke.json bisect-smoke-nofork.json

# The CI campaign: the 8-scenario smoke matrix, gated the same way.
campaign-smoke:
	$(GO) run ./cmd/campaign -matrix smoke -q -out campaign-smoke.json \
		-baseline baselines/campaign-smoke.json -diff-out campaign-smoke-diff.txt

# The CI paper gate: the 76-scenario sweep behind wastedcores' Tables 1,
# 3 and 4 (bulldozer8 x the NAS suite pinned and after a hotplug cycle,
# plus lu+4R, x {bugs, fix-gi, fix-gc, fix-md}) at paper scale, gated
# the same way — so the paper's headline speedups are baseline-gated.
paper-smoke:
	$(GO) run ./cmd/campaign -matrix paper -q -out paper-smoke.json \
		-baseline baselines/campaign-paper.json -diff-out paper-smoke-diff.txt

# The CI tournament: 18 scenarios (bulldozer8 x {make2r, nas-pin:lu} x
# nine policies), gated on two levels against the committed rolling
# baseline: raw campaign metrics (like the other smoke gates) and the
# per-cell policy verdicts — "exit status 3" here means a policy's
# winner circle changed, written to tourney-smoke-diff.txt.
tourney-smoke:
	$(GO) run ./cmd/tourney -preset smoke -q -out tourney-smoke.json \
		-baseline baselines/tourney-smoke.json -diff-out tourney-smoke-diff.txt

# The CI causal-observability gate: the smoke lattice with decision
# provenance and counterfactual episode replay (-explain), distilled by
# cmd/explain into just the explain data and gated against the
# committed rolling baseline — "exit status 3" here means an episode's
# counterfactual attribution or a cell's minimal-set cross-check
# changed, written to explain-smoke-diff.txt. The second run repeats the
# sweep on one worker and cmp asserts the artifact is byte-identical:
# episode replay must not depend on the worker count. The third run
# repeats it through the sequential runner and cmp asserts the forked
# runner's explain artifact is byte-identical to it, as bisect-smoke
# does without explain.
explain-smoke:
	$(GO) run ./cmd/bisect -preset smoke -explain -q -out explain-bisect.json
	$(GO) run ./cmd/explain -in explain-bisect.json -q -out explain-smoke.json \
		-baseline baselines/explain-smoke.json -diff-out explain-smoke-diff.txt
	$(GO) run ./cmd/bisect -preset smoke -explain -q -workers 1 -out explain-bisect-w1.json
	cmp explain-bisect.json explain-bisect-w1.json
	$(GO) run ./cmd/bisect -preset smoke -explain -q -no-fork -out explain-bisect-nofork.json
	cmp explain-bisect.json explain-bisect-nofork.json

# The CI distributed-campaign gate: coordinator + two local workers
# under the race detector, with injected faults (worker killed
# mid-shard, straggler shard stolen, corrupted check-in). Each case's
# merged artifact must be byte-identical (cmp) to the single-process
# smoke artifact and clean against baselines/campaign-smoke.json; the
# script also asserts the -shard usage contract (bad specs exit 2).
dist-smoke:
	./scripts/dist-smoke.sh

# Bounded fuzzing of the parsers behind the trust boundaries: the dist
# fault-plan and shard-spec parsers (accepted input must round-trip
# through String) and the binary trace reader (never panics). Each
# target runs for 10s on top of its committed seed corpus in
# testdata/fuzz; a failing input lands there too, ready to commit as a
# regression case.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParseFaultPlan$$' -fuzztime 10s ./internal/dist
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 10s ./internal/shard
	$(GO) test -run '^$$' -fuzz '^FuzzReadBinary$$' -fuzztime 10s ./internal/trace

# Export a Perfetto/Chrome trace of the smoke matrix's lead scenario
# (a side run — artifact bytes are unaffected). Open trace-smoke.json
# at https://ui.perfetto.dev; CI uploads it as a workflow artifact.
trace-smoke:
	$(GO) run ./cmd/campaign -matrix smoke -q -out /dev/null \
		-trace-out trace-smoke.json

# The nightly gates: the default-scale sweeps (too slow for every push)
# against their committed baselines. Run by .github/workflows/nightly.yml
# on a schedule and on demand.
bisect-nightly:
	$(GO) run ./cmd/bisect -preset default -q -out bisect-default.json \
		-baseline baselines/bisect-default.json -diff-out bisect-default-diff.txt

campaign-nightly:
	$(GO) run ./cmd/campaign -matrix default -scale 0.25 -q -out campaign-default.json \
		-baseline baselines/campaign-default.json -diff-out campaign-default-diff.txt

# Run both gates even when the first regresses (a same-night campaign
# regression must not be masked by a bisect one, and CI uploads both
# artifacts either way); fail if either did.
nightly:
	@rc=0; \
	$(MAKE) bisect-nightly || rc=1; \
	$(MAKE) campaign-nightly || rc=1; \
	exit $$rc

# Regenerate the committed rolling baselines after an *intentional*
# scheduler-model change (commit the result; CI diffs against these).
# Covers both the per-push smoke baselines (the paper gate's included)
# and the nightly default-scale ones, so additive artifact fields land
# in all of them at once.
baseline-refresh:
	$(GO) run ./cmd/bisect -preset smoke -q -out baselines/bisect-smoke.json
	$(GO) run ./cmd/campaign -matrix smoke -q -out baselines/campaign-smoke.json
	$(GO) run ./cmd/campaign -matrix paper -q -out baselines/campaign-paper.json
	$(GO) run ./cmd/tourney -preset smoke -q -out baselines/tourney-smoke.json
	$(GO) run ./cmd/bisect -preset smoke -explain -q -out explain-bisect.json
	$(GO) run ./cmd/explain -in explain-bisect.json -q -out baselines/explain-smoke.json
	$(GO) run ./cmd/bisect -preset default -q -out baselines/bisect-default.json
	$(GO) run ./cmd/campaign -matrix default -scale 0.25 -q -out baselines/campaign-default.json

ci: lint build race bisect-smoke campaign-smoke paper-smoke tourney-smoke explain-smoke dist-smoke fuzz
