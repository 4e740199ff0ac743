#!/bin/sh
# Full local gate: compile everything, vet, and run the whole test suite
# under the race detector. The simulator is single-goroutine by design but
# the experiment harness fans runs across goroutines, so -race guards both
# the chaos harness/shadow runs and the worker pool against hidden sharing.
#
# Performance is measured by perfbench (BENCHMARK.json, perfbench/README.md);
# this script only keeps it compiling, tested, and correct.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...
# Formatting gate for both modules (gofmt -l lists files that need it).
test -z "$(gofmt -l . perfbench)"
# The no-shared-state rule the parallel harness relies on, checked first for
# fast failure, then the full suite.
go test -race -run TestConcurrentSystemsShareNothing ./internal/core/
go test -race ./...
# Fast-path legs. The differential suite under -race: the fuzz oracle runs
# the slow path against the fast path (every superblock compiled on first
# use, so chains are resident everywhere, including across a mid-run
# PatchImm), and the fast-path and sentinel suites cover compilation,
# quarantine, and restore. Then the same contract at the binary boundary:
# the default engine must report byte-identically to the reference loop.
go test -race -run 'TestFastPath|TestSentinel|FuzzFastPathDifferential' ./internal/core/
go test -race -run 'TestEngineReportIdentity|TestKillResumeDeterminism' ./cmd/tridentsim/
go run ./cmd/tridentsim -bench swim,mcf,art -scale small -instrs 400000 > /tmp/fast.out
go run ./cmd/tridentsim -bench swim,mcf,art -scale small -instrs 400000 -slowpath | diff /tmp/fast.out -
# The same contract at full scale, where the fast path launches compiled
# chains mid-block (after stops at loads, horizons and hooks) millions of
# times; the small-scale smokes above rarely resume inside a block.
go run ./cmd/experiments -fig fig5 -instrs 1000000 > /tmp/fig5fast.out
go run ./cmd/experiments -fig fig5 -instrs 1000000 -slowpath | diff /tmp/fig5fast.out -
# Reproduction freshness: every full-scale table, regenerated, must match the
# checked-in experiments_full.txt byte for byte (~1 min at -j 2 on two CPUs),
# so a change that moves any reported number has to update the archive too.
go run ./cmd/experiments -j 2 | diff experiments_full.txt -
# Golden-trace conformance, twice in one process: -count=2 re-runs every
# workload against the checked-in streams, so a run that mutates shared
# state (and would only diverge on the second pass) still fails.
go test -run Golden -count=2 ./internal/exp/
# Coverage floor for the telemetry spine: the tracer is the repo's
# conformance oracle, so its own package stays thoroughly tested.
go test -coverprofile=/tmp/telemetry.cover ./internal/telemetry/
go tool cover -func=/tmp/telemetry.cover | awk '
	/^total:/ {
		pct = $3 + 0
		printf "internal/telemetry coverage: %.1f%% (floor 70%%)\n", pct
		if (pct < 70) exit 1
	}'
# Checkpoint torture: truncation at every byte boundary, bit flips at every
# position, and kill-mid-write must all fail loudly, never load garbage.
go test -run 'TestFileTorture|TestFileKillMidWrite' -count=2 ./internal/checkpoint/
# Parallel window scheduler race leg (DESIGN §15): the producer/worker/
# reconciler pipeline and the singleflight ROI cache are the repo's only
# intentionally concurrent simulator internals, so their byte-identity and
# resume tests run under -race explicitly (fast failure; go test -race ./...
# above covers them again in the full sweep).
go test -race -run 'TestParallelMatchesSerial|TestSampledResumeDeterminism|TestROILoadOrBuildSingleflight' ./internal/sampling/
# Sampled-mode smoke (DESIGN §14, §15): one workload under interval sampling
# with an ROI cache, checkpointed; then the same schedule fanned across 8
# window workers, and finally a resume from the serial run's checkpoint at
# jobs=8 (-sample-jobs is excluded from checkpoint identity). All three
# reports must be byte-identical — cache and speculation logistics go to
# stderr precisely so these diffs hold.
smokedir=$(mktemp -d)
go run ./cmd/tridentsim -bench mcf -scale small -instrs 2000000 -sample \
	-sample-interval 500000 -sample-startup 500000 -roi-cache "$smokedir/roi" \
	-checkpoint-every 400000 -checkpoint-dir "$smokedir/ckpt" > "$smokedir/sampled.out"
go run ./cmd/tridentsim -bench mcf -scale small -instrs 2000000 -sample \
	-sample-interval 500000 -sample-startup 500000 -roi-cache "$smokedir/roi" \
	-sample-jobs 8 | diff "$smokedir/sampled.out" -
go run ./cmd/tridentsim -bench mcf -scale small -instrs 2000000 -sample \
	-sample-interval 500000 -sample-startup 500000 -roi-cache "$smokedir/roi" \
	-sample-jobs 8 -restore "$smokedir/ckpt/mcf.ckpt" | diff "$smokedir/sampled.out" -
rm -rf "$smokedir"
# perfbench is its own module, so the root go test ./... above does not
# build it: vet and test it here so the benchmark keeps compiling and its
# own arithmetic stays tested.
(cd perfbench && go vet ./... && go test ./...)
# perfbench correctness smoke: a short exact-long run compares every
# simulated chunk against the reference one-step engine. perfbench exits 0
# even when ops fail, so the result record (the last stdout line) is
# checked here. The first run in a checkout also computes the reference
# outputs under .bench_build/.
benchout=$(bash perfbench/run.sh --workload exact-long --seed 1 --seconds 3 --trace 0 | tail -n 1)
echo "$benchout"
echo "$benchout" | grep -q '"correct":true'
echo "$benchout" | grep -q '"failed":0[,}]'
# Prefetch arsenal legs (DESIGN §16): the conformance suite and the selector
# determinism oracle under -race (the selector sits on the memsys hot path
# the parallel harnesses all share), then fast-vs-slowpath byte-identity
# smokes at the binary boundary for both a static arsenal backend and the
# online selector — the contract that epoch switch points derive from the
# committed load stream, not the execution engine.
go test -race ./internal/hwpref/
go test -race -run 'FuzzSelectorDeterminism|TestRestoreRejectsMismatchedArsenal|TestArsenalFlagValidation' \
	./internal/core/ ./cmd/tridentsim/
go run ./cmd/tridentsim -bench swim,mcf,art -scale small -instrs 400000 -hw stride > /tmp/hwstride.out
go run ./cmd/tridentsim -bench swim,mcf,art -scale small -instrs 400000 -hw stride -slowpath | diff /tmp/hwstride.out -
go run ./cmd/tridentsim -bench swim,mcf,art -scale small -instrs 400000 -hw selector > /tmp/hwsel.out
go run ./cmd/tridentsim -bench swim,mcf,art -scale small -instrs 400000 -hw selector -slowpath | diff /tmp/hwsel.out -
