GO ?= go

.PHONY: ci lint vet fetchphilint lint-gate build test perf race fuzz trace-smoke explore-smoke fleet-smoke telemetry-smoke stress-smoke abort-smoke claims claims-smoke seeds seed-sweep bench sweep report baseline baseline-claims baseline-lint baseline-seeds baseline-stress gate clean

# ci is the full tier-1 pipeline: static checks (vet + the repo's own
# analysis suite, gated against the checked-in lint baseline), build,
# tests, the race detector over the genuinely concurrent packages, the
# trace-pipeline smoke test, the sharded model-checker smoke, the
# distributed-fleet + telemetry smokes, the native-stress smoke, the
# abortable-pipeline smoke, the claims-conformance gate + smoke, the
# per-claim seed-family gate, and the host-cost benchmark's own vet and
# tests, and a short fuzz of the artifact readers. It runs the targets
# in this order, prints each one's wall time as it finishes and stops at
# the first that fails, so a new gate's cost shows in the log.
CI_TARGETS = lint-gate build test perf race fuzz trace-smoke explore-smoke fleet-smoke telemetry-smoke stress-smoke abort-smoke claims claims-smoke seeds

ci:
	@begin=$$(date +%s); \
	for t in $(CI_TARGETS); do \
		start=$$(date +%s); \
		$(MAKE) --no-print-directory $$t || { echo "ci: $$t failed after $$(( $$(date +%s) - start ))s"; exit 1; }; \
		echo "ci: $$t took $$(( $$(date +%s) - start ))s"; \
	done; \
	echo "ci: all targets passed in $$(( $$(date +%s) - begin ))s"

# lint runs go vet plus cmd/fetchphilint — the per-package analyzers
# (awaitwatch, memsimpurity, determinism, phasebalance), the
# interprocedural certifiers (localspin, rmrbound), and the
# ignoreaudit sweep — recording the fetchphi.lint/v1 artifact.
lint: vet fetchphilint

# vet also fails when any file is not gofmt-clean, naming the files.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

fetchphilint:
	$(GO) run ./cmd/fetchphilint -json bench/current/LINT.json ./...

# lint-gate compares the fresh lint artifact against the checked-in
# baseline: new findings, locality-verdict regressions, lost RMR
# bounds, changed op counts and baseline algorithms no longer analyzed
# fail; grandfathered findings do not.
lint-gate: vet
	$(GO) run ./cmd/fetchphilint -json bench/current/LINT.json -baseline bench/baseline/LINT.json ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# perf vets and tests the host-cost benchmark (bench/perf). It is a
# module of its own, so the root build, vet and test targets do not
# reach it; this target keeps a change to the internal packages it
# builds against from breaking it or staling its RMR digests unnoticed.
# It also runs the engine's per-step and per-schedule explorer
# benchmarks, the fleet's whole-check benchmark, the flight recorder's
# per-event benchmark and the two-process mutex's per-acquisition
# benchmark once, so they keep compiling and running.
perf:
	cd bench/perf && $(GO) vet ./... && $(GO) test ./...
	$(GO) test -run '^$$' -bench 'Step|ExploreRange|FleetCheck|Recorder|MutexRounds' -benchtime 1x ./internal/memsim ./internal/fleet ./internal/trace ./internal/twoproc

# race covers the packages that use real goroutines: the native spin
# locks (including the starvation smokes), the stress harness that
# drives them, the sharded explorer in memsim, the parallel sweep
# engine and sharded checker in harness (abortable sweeps included),
# the obs artifact layer they record into, the coordinator/worker
# fleet, the telemetry registry every fleet component observes into
# concurrently, and the claims evaluator. The experiments package is
# restricted to its two concurrent paths: the parallel-sweep tests and
# E5's per-primitive rank-checker fan-out (phi.Survey). The exhaustive
# conformance runs there are single-worker model checks where the race
# detector adds minutes and finds nothing. A flight recorder of a cell
# on the default scheduler is filled by replaying the cell on whichever
# goroutine first reads it (cmd/report's experiment goroutine for a
# failed cell, its main goroutine for a gate regression), on a machine
# from the pool the sweep workers share; a cell with its own scheduler
# records on its sweep worker. So the trace package and report's
# flight-recorder and gate tests run under it too.
race:
	$(GO) test -race ./internal/nativelock/... ./internal/stress/... ./internal/memsim/... ./internal/harness/... ./internal/obs/... ./internal/fleet/... ./internal/telemetry/... ./internal/claims/... ./internal/trace/...
	$(GO) test -race -run 'TestE10|TestSweep|TestE5' ./internal/experiments/...
	$(GO) test -race -run 'Flight|Gate' ./cmd/report

# fuzz feeds mutated artifact files, seeded with the checked-in
# baselines, to every artifact reader for 5 s: a truncated or hostile
# file must yield an error, never a panic. It feeds the same seeds,
# mutated, to the artifact writer for 5 s: whatever value they decode
# to, WriteJSON must write json.MarshalIndent's bytes. It then fuzzes
# the memory- and fit-model name decoders for 5 s each: neither may
# panic, and every name they accept must spell back unchanged. Then
# it posts mutated lease and report bodies to a fleet coordinator with
# an active wave for 5 s: every answer must be 200 or 4xx. Last, it
# serves mutated lease bodies to a fleet worker for 5 s: the worker
# must return, with an error or without, and never panic.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzReadArtifacts$$' -fuzztime 5s ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzWriteJSON$$' -fuzztime 5s ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzParseModel$$' -fuzztime 5s ./internal/memsim
	$(GO) test -run '^$$' -fuzz '^FuzzParseModel$$' -fuzztime 5s ./internal/fit
	$(GO) test -run '^$$' -fuzz '^FuzzCoordinatorHandlers$$' -fuzztime 5s ./internal/fleet
	$(GO) test -run '^$$' -fuzz '^FuzzWorkerLease$$' -fuzztime 5s ./internal/fleet

# trace-smoke exercises the whole trace pipeline on a real workload:
# record a 4-process G-DSM run as a fetchphi.trace/v1 artifact,
# validate it against the schema, and round-trip it through the
# Perfetto (Chrome trace-event) converter. It then records CLH, whose
# queue nodes share one label, through a wrapping 8-span window and
# validates that. Last, it ranks G-DSM's hot variables with tracectl
# hotspots.
trace-smoke:
	$(GO) run ./cmd/tracectl record -alg g-dsm -model DSM -n 4 -entries 3 -out bench/current/traces/TRACE_smoke.json
	$(GO) run ./cmd/tracectl validate -in bench/current/traces/TRACE_smoke.json
	$(GO) run ./cmd/tracectl convert -in bench/current/traces/TRACE_smoke.json -out bench/current/traces/TRACE_smoke.chrome.json
	$(GO) run ./cmd/tracectl record -alg clh -model CC -n 4 -entries 3 -limit 8 -out bench/current/traces/TRACE_smoke_clh.json
	$(GO) run ./cmd/tracectl validate -in bench/current/traces/TRACE_smoke_clh.json
	$(GO) run ./cmd/tracectl hotspots -alg g-dsm -model DSM -n 4 -entries 3

# explore-smoke gates CI on the sharded model checker: exhaustive
# preemption-bounded checks (K=2) of the paper's DSM algorithm and one
# arbitration-tree construction, sharded across ≥4 workers, with the
# coverage recorded as fetchphi.explore/v3 artifacts. -require-exhausted
# turns a capped (and therefore inconclusive) exploration into a CI
# failure.
explore-smoke:
	$(GO) run ./cmd/explore -alg g-dsm -n 2 -entries 2 -preemptions 2 -workers 4 -require-exhausted -out bench/current/explore/EXPLORE_g-dsm.json
	$(GO) run ./cmd/explore -alg tree4 -n 2 -entries 2 -preemptions 2 -workers 4 -require-exhausted -out bench/current/explore/EXPLORE_tree4.json

# fleet-smoke stands up a real (in-process) model-checking fleet — a
# coordinator plus two workers over loopback HTTP — and exhausts the
# paper's DSM algorithm at N=2, K=2 from a fresh checkpoint, recording
# the wall-clock-free campaign artifact. It then reruns the campaign
# from the now-complete checkpoint, which must resume without
# re-exploring and write a byte-identical artifact: the command-line
# resume gate. The verdict must match explore-smoke's g-dsm run bit for
# bit; the in-repo equivalence tests enforce that invariant.
fleet-smoke:
	rm -f bench/current/explore/CKPT_fleet_g-dsm.json
	$(GO) run ./cmd/fleet run -alg g-dsm -n 2 -entries 2 -preemptions 2 -workers 2 -checkpoint bench/current/explore/CKPT_fleet_g-dsm.json -out bench/current/explore/EXPLORE_fleet_g-dsm.json
	$(GO) run ./cmd/fleet run -alg g-dsm -n 2 -entries 2 -preemptions 2 -workers 2 -checkpoint bench/current/explore/CKPT_fleet_g-dsm.json -out bench/current/explore/EXPLORE_fleet_g-dsm.resumed.json
	cmp bench/current/explore/EXPLORE_fleet_g-dsm.json bench/current/explore/EXPLORE_fleet_g-dsm.resumed.json

# telemetry-smoke gates CI on the observability layer: a loopback fleet
# run must leave behind a valid, Complete fetchphi.capacity/v2 artifact
# with nonzero schedule/lease/throughput numbers, and /v1/metrics must
# answer 200 with counters that agree with the artifact.
telemetry-smoke:
	$(GO) run ./cmd/fleet smoke -alg g-dsm -n 2 -entries 2 -preemptions 2 -workers 2 -capacity bench/current/explore/CAPACITY_g-dsm.json

# stress-smoke gates CI on the native-load observability path: a small
# closed-loop sweep over four locks must leave behind a schema-valid
# fetchphi.stress/v1 artifact with non-empty latency and fairness
# numbers, and the artifact must clear the regression gate replayed
# against itself (-in skips re-running; the gate logic still executes).
# Numbers are wall-clock, so CI does not gate them against the
# checked-in baseline — that comparison is for like-host runs via
# `lockstress -baseline bench/baseline/STRESS.json`.
stress-smoke:
	$(GO) run ./cmd/lockstress -lock mutex,ticket,clh,mcs -workers 4 -iters 5000 -window 2000 -out bench/current/STRESS_smoke.json
	$(GO) run ./cmd/lockstress -in bench/current/STRESS_smoke.json -baseline bench/current/STRESS_smoke.json

# abort-smoke gates CI on the abortable pipeline end to end: a quick
# live E10 sweep (pinned abort schedules, every abortable algorithm,
# both memory models) must produce abort-accounted cells, and the
# claims engine must reproduce the O(1)-amortized verdict from the
# fresh artifact — cmd/claims exits nonzero on any NOT-reproduced
# verdict, so this is a live reproduction, not a replay; the E1–E9
# claims are merely inconclusive here and do not gate.
abort-smoke:
	$(GO) run ./cmd/report -experiments E10 -quick -out bench/current/abort-smoke
	$(GO) run ./cmd/claims -bench bench/current/abort-smoke -out bench/current/abort-smoke/CLAIMS.json

# claims evaluates the paper-claims registry over the checked-in
# bench/baseline artifacts (so it works on a fresh clone, with no
# sweep) and gates against the checked-in verdicts: CI fails, naming
# the claim, if any verdict flips from reproduced.
claims:
	$(GO) run ./cmd/claims -bench bench/baseline -out bench/current/CLAIMS.json -html bench/current/claims.html -baseline bench/baseline/CLAIMS.json

# claims-smoke runs the full sweep → claims pipeline end to end on a
# small live sweep (E1+E2; cmd/report evaluates claims over the output
# automatically), then exercises the markdown table generator.
claims-smoke:
	$(GO) run ./cmd/report -experiments E1,E2 -quick -out bench/current/claims-smoke
	$(GO) run ./cmd/claims -bench bench/current/claims-smoke -markdown > /dev/null

# seeds gates CI on how many seed families reproduce each claim: it
# runs the quick sweep once per family S = 1…40 (about 15 s) and fails,
# naming the claim, if any claim is reproduced in fewer families than
# the checked-in bench/baseline/SEEDS.json records. A family whose
# claims do not all reproduce makes cmd/report exit 1; that is the
# measurement, not a failure, so only the tally is gated.
seeds: seed-sweep
	$(GO) run ./cmd/seeds -baseline bench/baseline/SEEDS.json -out bench/current/SEEDS.json bench/current/seeds/*/CLAIMS.json

# seed-sweep writes each seed family's quick-sweep artifacts and claims
# into bench/current/seeds/<S>, with report's default flags otherwise,
# flight recorders included.
seed-sweep:
	rm -rf bench/current/seeds
	$(GO) build -o bench/current/seeds/report ./cmd/report
	for s in $$(seq 1 40); do bench/current/seeds/report -quick -seed $$s -out bench/current/seeds/$$s > /dev/null 2>&1 || true; done

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# sweep (alias: report) runs every experiment through the parallel
# sweep engine and writes BENCH_<experiment>.json artifacts — plus the
# claims artifact and HTML report — into bench/current.
sweep: report

report:
	$(GO) run ./cmd/report -quick -out bench/current

# baseline regenerates the checked-in gate baselines (bench artifacts
# and claims verdicts). Run it (and commit the result) only after a
# deliberate performance or conclusion change.
baseline:
	$(GO) run ./cmd/report -quick -out bench/baseline -claims=false
	$(MAKE) baseline-claims

# baseline-claims regenerates only bench/baseline/CLAIMS.json from the
# checked-in bench artifacts.
baseline-claims:
	$(GO) run ./cmd/claims -bench bench/baseline -out bench/baseline/CLAIMS.json

# baseline-lint regenerates the checked-in lint baseline. Run it (and
# commit the result) only after deliberately accepting a new finding
# or verdict change.
baseline-lint:
	$(GO) run ./cmd/fetchphilint -json bench/baseline/LINT.json ./...

# baseline-seeds regenerates the checked-in per-claim seed-family
# tally. Run it (and commit the result) only after a deliberate change
# to what the sweep measures or to a claim's criterion.
baseline-seeds: seed-sweep
	$(GO) run ./cmd/seeds -out bench/baseline/SEEDS.json bench/current/seeds/*/CLAIMS.json

# baseline-stress regenerates the checked-in native-stress baseline.
# The numbers are wall-clock and host-specific: regenerate (and
# commit) on the reference machine after a deliberate lock change, and
# compare against it only on like hosts.
baseline-stress:
	$(GO) run ./cmd/lockstress -workers 4 -iters 20000 -slim -out bench/baseline/STRESS.json

# gate re-runs the experiments and fails on any RMR regression against
# the checked-in artifacts in bench/baseline — works out of the box on
# a fresh clone.
gate:
	$(GO) run ./cmd/report -quick -out bench/current -baseline bench/baseline

# clean empties bench/current but keeps the directory (and its
# self-ignoring .gitignore) in place.
clean:
	rm -rf bench/current/*
