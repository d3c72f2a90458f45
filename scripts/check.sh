#!/bin/sh
# The full pre-merge check, in the order of the final echo:
#   - gofmt and vet over the whole module;
#   - the race-detection tier for the packages that carry production
#     concurrency (the parallel execution layer and everything threaded
#     through it, the metrics registry, the HTTP service with hot model
#     reload, the continuous-batching decode engine and concurrent
#     Model.Generate on a model whose serving caches are still unbuilt
#     (internal/core's TestConcurrentGenerate), the checkpoint
#     store, the request-trace ring, and the workload spec/record
#     layer);
#   - the end-to-end determinism and crash-recovery regression tests
#     (REPRO_PROCS=1 vs 8, observability on/off, kill-and-resume);
#   - the sharded-decode tier at GOMAXPROCS=4;
#   - the allocation pins (decode round, fleet step at both element
#     types at 1, 2 and 8 rows, training window of every BPTT fit, par
#     snapshot, Table 4 sweep), which run without -race;
#   - a short-budget fuzz tier over the untrusted decode surfaces and
#     the packed, row-sum, activation and cell kernels;
#   - the repo benchmark's -quick smoke on each workload (the frozen
#     harness exits non-zero when an output digest no longer matches),
#     and one -quick pair of scripts/pairs.sh against HEAD;
#   - the line-count ratchet over internal/{core,nn,mat}
#     (scripts/loc.sh fails when the tree outgrows its recorded ceiling),
#     and the rule that the paper's comparators stay out of the serving
#     packages: the ablation models (the PMF lifetime head, the joint EOP
#     model, and the Transformer should it return) out of internal/core
#     and internal/nn, the baselines, a GRU fit and the evaluation-only
#     helpers out of internal/core; the rule that internal/nn has one
#     recurrent cell (no GRU type, Recurrent interface or cell flag);
#     the rule that decode has one weight layout (no
#     row-major fleet GEMM, f32 row-major kernel or nil-panels branch in
#     internal/{core,nn,mat}); the rule that training transposes a
#     weight once per window (no mat.MulABT call in internal/{core,nn});
#     and the rule that the decode engine takes its shape from the host
#     (no shard-count or stream-cap field on core.EngineSpec or
#     server.Server, no such flag in cmd/traced); and the rule that
#     internal/workload's presets are the one scenario definition (no
#     synth.AzureLike/HuaweiLike, no -workload-spec or -flavors flag, no
#     internal/core import in internal/workload); and the rule that
#     internal/trace has one trace encoder (no csv.NewWriter or
#     json.NewEncoder in its non-test files); and the rule that a what-if
#     has one mechanism, core.Tilted's fold into the weights (no RateScale
#     or Tilt field on core.Model, no run-time WhatIf.apply, no
#     examples/modelrelease); and the rule that a training fit keeps one
#     arena per running shard (internal/nn/shard.go never calls the
#     workspace-flipping LSTM.Forward); and the rule that there are
#     three commands (cmd/ holds experiments, traced and tracegen);
#   - the caller-less export gate (scripts/deadcode fails on an exported
#     name nothing outside its package's tests refers to, unless
#     scripts/deadcode/allow.txt, which may only shrink, lists it).
# The -race legs run concurrency, not arithmetic: the detector finds
# races, not wrong bits. The decode contract (internal/core's
# contract_test.go, DESIGN.md §5) runs only its concurrent rows there,
# the serving engine on the tiny model, and skips the rest; no -race leg
# fits internal/core's trained fixture (getFixture skips), because the
# fit's concurrency is raced by internal/nn's sharded-trainer tests and
# the root package's TestDeterminismAcrossWorkerCounts. Every row and
# every skipped test runs without -race in `go test ./...`, on both
# kernel tiers.
# There is no kernel-tier leg: the suites iterate the assembly and the
# portable kernels in-process (mat.SetPortable, mattest.BothTiers), so
# every `go test` below — the -race ones included, where the portable
# kernels of internal/mat and internal/nn are what the detector sees —
# proves asm = portable, and internal/mat re-executes itself under
# REPRO_NOASM to prove the escape hatch.
# Run from the repository root: scripts/check.sh
set -eu

test -z "$(gofmt -l .)" || { echo "check.sh: gofmt -l . lists:"; gofmt -l .; exit 1; }
go vet ./...
go test -race ./internal/par ./internal/mat ./internal/nn ./internal/obs \
	./internal/server ./internal/core ./internal/ckpt ./internal/rng \
	./internal/rtrace ./internal/workload
go test -race -run 'TestDeterminism|TestObservability|TestKillAndResume' .

# Sharded decode tier (DESIGN.md §6.2): the determinism, placement and
# hot-reload guarantees must hold when the per-core schedulers genuinely
# step on multiple cores, so force GOMAXPROCS=4 regardless of the host
# default. The sharded trainer's arena free list, which its running
# shards share, and the client-disconnect drill run here too.
GOMAXPROCS=4 go test -race \
	-run 'TestEngineConcurrent|TestShardedEngine|TestEngineF32Concurrent|TestPrecisionRegistryMatrix|TestTracedDecode|TestRouterBalancesInFlight|TestFleetConcurrentShards|TestShardedScratchPerWorker' \
	./internal/core ./internal/nn
GOMAXPROCS=4 go test -race \
	-run 'TestHotReloadUnderLoad|TestReloadWithEveryShardBusy|TestMetricsShardGauges|TestShardedServerMatchesOneStreamDecode|TestClientDisconnectMidDecode' \
	./internal/server

# Memory-discipline pins: the fleet round path, the fleet step kernel at
# both element types and at one, two and eight rows (one generic body;
# its per-type dispatches must not escape), the LSTM's Forward/Backward at
# the training shape, and the par Snapshot poll must stay allocation-free
# in steady state, a sharded training window must open one parallel
# region and allocate only its fan-out,
# every BPTT fit's training window must allocate no more than the
# flavor LSTM's, and the Table4 survival-MSE sweep must hold its
# pooled-curve allocation budget (AllocsPerRun pins run without -race;
# the race runtime's instrumentation allocates).
go test -run 'TestTracingDisabledRoundAllocs|TestTrainingWindowSteadyStateAllocs' ./internal/core
go test -run 'TestFleetStepAllocFree|TestFleet32StepAllocFree|TestFleetPackedStepAllocFree|TestForwardBackwardSteadyStateAllocs|TestShardedRunWindowSteadyStateAllocs|TestRunWindowIsOneRegion' ./internal/nn
go test -run 'TestSnapshotZeroAlloc' ./internal/par
go test -run 'TestTable4SurvivalAllocs|TestTrainingWindowSteadyStateAllocs' ./internal/experiments

# Short-budget fuzz tier: each target gets a few seconds of coverage-
# guided input on top of its checked-in seed corpus. Skipped cleanly on
# toolchains without native fuzzing support.
if go help testflag 2>/dev/null | grep -q -- '-fuzz '; then
	go test -run '^$' -fuzz 'FuzzSnapshotDecode$' -fuzztime 10s ./internal/core
	go test -run '^$' -fuzz 'FuzzSnapshotDecodeF32$' -fuzztime 10s ./internal/core
	go test -run '^$' -fuzz FuzzGenerateRequest -fuzztime 10s ./internal/server
	go test -run '^$' -fuzz FuzzMulAddPacked -fuzztime 10s ./internal/mat
	go test -run '^$' -fuzz FuzzMulAddSparse -fuzztime 10s ./internal/mat
	go test -run '^$' -fuzz FuzzGateActivations -fuzztime 10s ./internal/mat
	go test -run '^$' -fuzz FuzzLSTMCell -fuzztime 10s ./internal/mat
	go test -run '^$' -fuzz 'FuzzWorkloadSpec$' -fuzztime 10s ./internal/workload
	go test -run '^$' -fuzz 'FuzzTraceReplay$' -fuzztime 10s ./internal/workload
else
	echo "check.sh: go toolchain lacks -fuzz; skipping fuzz tier"
fi

# Repo-benchmark smoke: bench/ is frozen between benchmark PRs and calls
# exported names across internal/*, so a PR that changes an API or a
# byte it digests should learn so here, not from the pipeline. -quick
# runs each workload once (< 1 s) and exits non-zero on `correct: false`.
for w in serve_day serve_open_mixed bulk_mc64 train_fit; do
	go run ./bench -workload "$w" -quick >/dev/null
done

# The paired-measurement tool on one -quick pair (a few seconds): HEAD
# against the working tree, which also fails when an uncommitted change
# moved the workload's output digest. Skipped outside a git checkout.
if git rev-parse -q --verify HEAD >/dev/null 2>&1; then
	sh scripts/pairs.sh HEAD bulk_mc64 1 1 -quick >/dev/null
fi

sh scripts/loc.sh
# The paper's comparators live in internal/experiments (DESIGN.md
# §6.3.1): no non-test file of the serving packages may declare an
# ablation model again, nor one of internal/core a baseline, the GRU fit
# or an arrival-coverage or teacher-forcing evaluation helper.
if grep -nE '^(type|func) .*([Tt]ransformer|TWindow|tCache|PMF|[Pp]mf|Joint|\bjoint)' \
	$(find internal/core internal/nn -maxdepth 1 -name '*.go' ! -name '*_test.go'); then
	echo "check.sh: an ablation model is declared in internal/core or internal/nn" >&2
	exit 1
fi
if grep -niE '^(type|func) .*(naive|simplebatch|(uniform|multinomial|repeat)flavor|coinflip|kmlifetime|repeatlifetime|gruflavor|flavorgru|arrivalcoverage|teacherforced)' \
	$(find internal/core -maxdepth 1 -name '*.go' ! -name '*_test.go'); then
	echo "check.sh: a baseline, the GRU fit or an evaluation-only helper is declared in internal/core" >&2
	exit 1
fi
# One recurrent cell (DESIGN.md §6.3.1): the network is the paper's LSTM,
# so no non-test file of internal/nn may declare a GRU again, nor the
# Recurrent interface or the cell flag that let a second cell share the
# layer stack.
if grep -nE '^type GRU\b|^type Recurrent interface|\bcell[[:space:]]+bool\b' \
	$(find internal/nn -maxdepth 1 -name '*.go' ! -name '*_test.go'); then
	echo "check.sh: internal/nn declares a second recurrent cell or a seam for one" >&2
	exit 1
fi
# One decode weight layout (DESIGN.md §6.5): fleets step on packed
# panels only, so no non-test file of the serving packages may bring
# back the row-major decode GEMM, its f32 kernel or a nil-panels branch.
if grep -nE 'MulAddBatched|gemm32AVX2|panels == nil' \
	$(find internal/core internal/nn internal/mat -maxdepth 1 \( -name '*.go' -o -name '*.s' \) ! -name '*_test.go'); then
	echo "check.sh: the row-major decode fleet tier is back in internal/{core,nn,mat}" >&2
	exit 1
fi
# One weight transpose per training window (DESIGN.md §6.3): Backward
# multiplies by the window's hoisted transposes through MulAdd, so no
# non-test file of internal/{core,nn} may call MulABT, whose per-call
# transpose the shards would each pay again.
if grep -n 'mat\.MulABT(' \
	$(find internal/core internal/nn -maxdepth 1 -name '*.go' ! -name '*_test.go'); then
	echo "check.sh: internal/{core,nn} calls mat.MulABT; multiply by a hoisted transpose instead" >&2
	exit 1
fi
# One decode shape (DESIGN.md §6.2): the shard count is par.Procs()
# (REPRO_PROCS, the one worker-count switch) and the stream cap is 64,
# because neither changes an output byte. So no non-test file may give
# core.EngineSpec a Shards field, server.Server a DecodeShards or
# MaxBatch field, or cmd/traced a -decode-shards or -max-batch flag.
if grep -nE '^[[:space:]]+Shards[[:space:]]+int\b' \
	$(find internal/core -maxdepth 1 -name '*.go' ! -name '*_test.go') ||
	grep -nE '^[[:space:]]+(DecodeShards|MaxBatch)[[:space:]]+int\b' \
		$(find internal/server -maxdepth 1 -name '*.go' ! -name '*_test.go') ||
	grep -nE '"(decode-shards|max-batch)"' \
		$(find cmd/traced -maxdepth 1 -name '*.go' ! -name '*_test.go'); then
	echo "check.sh: a decode shard-count or stream-cap knob is back; the engine takes its shape from par.Procs()" >&2
	exit 1
fi
# One scenario definition (DESIGN.md §9): internal/workload's presets
# are the only definition of the two clouds and -cloud is the one flag
# that picks a scenario, so internal/synth may not declare the
# AzureLike/HuaweiLike constructors again, none of the three commands
# (experiments, traced, tracegen) may declare a -workload-spec or
# -flavors flag, on the flag package or a FlagSet (cmd/traced's
# "flavors" journal key is not a flag), and no non-test file of
# internal/workload may import internal/core (whose tests build their
# histories from the presets).
if grep -nE '^func (AzureLike|HuaweiLike)\(' $(find internal/synth -name '*.go') ||
	grep -nE '\.[A-Z][A-Za-z0-9]*\((&[^,]+,[[:space:]]*)?"(workload-spec|flavors)"' $(find cmd -name '*.go') ||
	grep -n '"repro/internal/core"' $(find internal/workload -maxdepth 1 -name '*.go' ! -name '*_test.go'); then
	echo "check.sh: a second scenario definition or selector is back; the workload presets and -cloud are the only ones" >&2
	exit 1
fi
# One trace encoder (DESIGN.md §7): WriteCSV and WriteJSON append into
# one fixed 32 KiB chunk, so no non-test file of internal/trace may
# encode a trace through encoding/csv's writer or encoding/json's
# encoder, which build a string per field or the whole document.
if grep -nE 'csv\.NewWriter|json\.NewEncoder' \
	$(find internal/trace -maxdepth 1 -name '*.go' ! -name '*_test.go'); then
	echo "check.sh: internal/trace encodes through csv.NewWriter or json.NewEncoder; append into the chunk writer instead" >&2
	exit 1
fi
# One what-if mechanism (DESIGN.md §5): core.Tilted folds a what-if
# into a copy's weights, so a released snapshot is the whole artifact and
# decode's one run-time knob is the per-request rate scale. So
# core.Model may not carry a RateScale or Tilt field again, no non-test
# file of internal/core may declare the run-time WhatIf.apply, and
# examples/modelrelease, which had to hand its consumer the knobs, stays
# deleted (its workflow is TestModelReleaseCarriesWhatIf).
if awk '/^type Model struct/,/^}/' $(find internal/core -maxdepth 1 -name '*.go' ! -name '*_test.go') |
	grep -nE '^[[:space:]]+(RateScale|Tilt)[[:space:]]' ||
	grep -n 'func (w WhatIf) apply' $(find internal/core -maxdepth 1 -name '*.go' ! -name '*_test.go') ||
	[ -d examples/modelrelease ]; then
	echo "check.sh: a run-time what-if knob is back; fold the what-if into the weights with core.Tilted" >&2
	exit 1
fi
# One arena per running shard (DESIGN.md §6.1): a shard runs forward on
# an arena it borrows from the trainer's free list, so a fit holds at
# most par.Procs() arenas. LSTM.Forward flips the network's own
# two-arena Workspace, which on the shadows would put two arenas on
# every shard again, so internal/nn/shard.go may not call it.
if grep -n '\.Forward(' internal/nn/shard.go; then
	echo "check.sh: internal/nn/shard.go calls LSTM.Forward; run the shard on a borrowed arena with forward" >&2
	exit 1
fi
# Three commands (DESIGN.md §1): tracegen generates, reads, characterizes
# and renders traces, experiments runs every table, figure and the §4.2
# grids, and traced serves. A view over a trace or a fitted cloud is a
# -report of tracegen or an -exp section, not a fourth command.
cmds=$(find cmd -mindepth 1 -maxdepth 1 -type d | LC_ALL=C sort | tr '\n' ' ')
if [ "$cmds" != "cmd/experiments cmd/traced cmd/tracegen " ]; then
	echo "check.sh: cmd/ holds $cmds; want exactly experiments, traced and tracegen" >&2
	exit 1
fi
go run ./scripts/deadcode >/dev/null
echo "check.sh: gofmt + vet + race + determinism + resume + sharded + alloc pins + fuzz + bench smoke + loc ratchet + comparator placement + one recurrent cell + one decode layout + one transpose per window + one decode shape + one scenario definition + one trace encoder + one what-if mechanism + one arena per running shard + three commands + deadcode OK"
