#!/bin/sh
# Runs the cross-PR benchmark suite and snapshots the results to
# BENCH_baseline.json so ns/op, MB/s, B/op and allocs/op are comparable
# across PRs. When a previous baseline exists it is preserved as
# BENCH_baseline.prev.json and per-benchmark delta tables are printed:
# ns/op (the instrumentation layer budgets < 2% overhead on the kernel
# and generation benchmarks) and allocs/op (the memory-discipline layer
# targets steady-state-zero hot paths; see DESIGN.md "Memory
# discipline").
# Run from the repository root: scripts/bench.sh [benchtime]
#
# Caveat: on hosts with unstable clocks, ns/op deltas under ~10% between
# separate benchmark blocks are noise; a speed claim is made from
# alternating pairs of the repo benchmark instead (scripts/pairs.sh).
# allocs/op deltas are exact counts and carry no such noise.
set -eu

BENCHTIME="${1:-1s}"
OUT="BENCH_baseline.json"
PREV="BENCH_baseline.prev.json"
TMP="$(mktemp)"
DEDUP="$(mktemp)"
trap 'rm -f "$TMP" "$DEDUP"' EXIT

if [ -f "$OUT" ]; then
	cp "$OUT" "$PREV"
fi

# ncpu alone is not enough to interpret the parallel benchmarks: record
# the worker-count knobs actually in effect. Unset env vars mean the
# library defaulted — GOMAXPROCS to ncpu, REPRO_PROCS to GOMAXPROCS —
# so the effective values are always concrete numbers, never null.
NCPU="$(getconf _NPROCESSORS_ONLN)"
GOMAX_EFF="${GOMAXPROCS:-$NCPU}"
REPRO_EFF="${REPRO_PROCS:-$GOMAX_EFF}"

go test -run '^$' -bench . -benchmem -benchtime "$BENCHTIME" \
	. ./internal/mat ./internal/nn ./internal/par ./internal/obs | tee "$TMP"

# Decode iteration floor (DESIGN.md §6.5): the decode-fleet rows are
# heavyweight enough that a time-based -benchtime often yields a single
# iteration, which makes their ns/op and streams/s single-shot samples.
# Re-run the decode group at a fixed -benchtime 3x so every decode row
# in the baseline carries at least 3 iterations; the JSON writer below
# dedupes by row name keeping the LAST run, so these rows supersede the
# single-shot ones from the main block.
echo "bench.sh: decode-fleet benchmarks at -benchtime 3x iteration floor"
go test -run '^$' -bench 'GenerateBatchLSTM|GenerateShardedLSTM|EngineWave64' \
	-benchmem -benchtime 3x . | \
	awk '/^Benchmark/ { print; print > "/dev/stderr" }' >> "$TMP"

# Training iteration floor (DESIGN.md §6.3): one train_fit cycle is a
# few hundred ms, so a time-based -benchtime yields one to three
# iterations; give both worker-count twins the same fixed floor.
echo "bench.sh: training-cycle benchmarks at -benchtime 3x iteration floor"
go test -run '^$' -bench 'TrainFitCycle' -benchmem -benchtime 3x . | \
	awk '/^Benchmark/ { print; print > "/dev/stderr" }' >> "$TMP"

# Multi-core scaling rows (DESIGN.md §6.2): re-run the decode-fleet
# benchmarks at fixed GOMAXPROCS values so the offline shards' scaling
# curve is captured in the baseline. Rows are suffixed @gomaxprocs=G
# and carry a per-row "gomaxprocs" field; on hosts with fewer cores
# than G the rows still exist but cannot show speedup (the scheduler
# multiplexes all workers onto the available cores).
for G in 2 4 8; do
	echo "bench.sh: decode-fleet benchmarks at GOMAXPROCS=$G"
	GOMAXPROCS="$G" go test -run '^$' -bench 'GenerateBatchLSTM|GenerateShardedLSTM' \
		-benchmem -benchtime "$BENCHTIME" . | \
		awk -v g="$G" '/^Benchmark/ { $1 = $1 "@gomaxprocs=" g; print; print > "/dev/stderr" }' >> "$TMP"
done

# Precision delta (DESIGN.md §6.4): the f32 serving fast path is only
# worth its tolerance budget if it actually outruns f64, so report the
# streams/s ratio of each F32 decode row against its f64 twin (the row
# with the F32 suffix stripped). Both rows come from the same -bench .
# run above.
awk '
	/^BenchmarkGenerate(Batch|Sharded)LSTM[^ ]*F32(-[0-9]+)? / {
		name = $1; sub(/-[0-9]+$/, "", name)
		for (i = 4; i <= NF; i++) if ($i == "streams/s") f32[name] = $(i-1)
	}
	/^BenchmarkGenerate(Batch|Sharded)LSTM[^ ]* / && $1 !~ /F32/ {
		name = $1; sub(/-[0-9]+$/, "", name)
		for (i = 4; i <= NF; i++) if ($i == "streams/s") f64[name] = $(i-1)
	}
	END {
		for (n in f32) {
			base = n; sub(/F32$/, "", base)
			if (base in f64 && f64[base] > 0)
				printf "bench.sh: f32 vs f64: %s %.2f streams/s vs %s %.2f (%.2fx)\n", \
					n, f32[n], base, f64[base], f32[n] / f64[base]
		}
	}' "$TMP"

# Tracing-overhead pair (DESIGN.md §7.1): the serve-decode benchmark
# runs once with request tracing off and once with it on; report the
# ns/op delta explicitly so a tracing-path regression is visible at a
# glance rather than buried in the full table. Both rows are already in
# $TMP from the main -bench . run above.
awk '
	/^BenchmarkServeDecodeTracingOff/ { off = $3 }
	/^BenchmarkServeDecodeTracingOn/  { on = $3 }
	END {
		if (off > 0 && on > 0)
			printf "bench.sh: tracing overhead: %s -> %s ns/op (%+.2f%%; budget < 2%%)\n", \
				off, on, 100 * (on - off) / off
		else
			print "bench.sh: tracing overhead pair missing from run" > "/dev/stderr"
	}' "$TMP"

# Scheduler-per-core pair (DESIGN.md §6.2): a wave of 64 concurrent
# Generate calls through the default engine (one scheduler per core)
# against the same wave at Shards: 1. The gain is only readable next to
# the host's core count, so the line carries it; with ncpu=1 both rows
# run one shard and the ratio certifies no regression, nothing more.
awk -v ncpu="$NCPU" '
	/^BenchmarkEngineWave64(-[0-9]+)? /        { for (i = 4; i <= NF; i++) if ($i == "streams/s") k = $(i-1) }
	/^BenchmarkEngineWave64Shards1(-[0-9]+)? / { for (i = 4; i <= NF; i++) if ($i == "streams/s") one = $(i-1) }
	END {
		if (k > 0 && one > 0)
			printf "bench.sh: engine wave64 (ncpu=%s): one scheduler per core %.2f streams/s vs one scheduler %.2f (%.2fx)\n", \
				ncpu, k, one, k / one
		else
			print "bench.sh: engine wave64 pair missing from run" > "/dev/stderr"
	}' "$TMP"

# Step cost by network (DESIGN.md §6.2): one Fleet.Step of the flavor
# LSTM and of the lifetime LSTM on the rows their encoders produce, per
# row. Layer 0 costs what its input's non-zeros cost (12 of 57 against
# 53-61 of 151), and the repo benchmark's nn.fleet_step_us_* probes
# step only the flavor net with a one-hot row, so this is the one place
# the lifetime step's cost is visible. The f64 and the f32 cell each
# have their own line.
awk '
	/^BenchmarkFleetStepShapes\// {
		name = $1; sub(/-[0-9]+$/, "", name)
		split(name, p, "/"); rows = p[3]; sub(/^rows/, "", rows)
		us[p[2] "/" p[3] "/" p[4] "/" p[5]] = $3 / 1000 / rows
	}
	END {
		for (k in us) if (k ~ /^lifetime\//) {
			f = k; sub(/^lifetime/, "flavor", f)
			if (f in us)
				printf "bench.sh: fleet step us/row %s: lifetime %.2f vs flavor %.2f\n", substr(k, 10), us[k], us[f]
		}
	}' "$TMP"

# Cell cost per row (DESIGN.md §6.2): the fused f64 LSTM cell (bias +
# gate activations + c / h update) at the decode hidden size, one row
# and a 64-row batch. The two must read alike: the kernel is bound by
# its exp / tanh dependency chains, not by the call.
awk '
	/^BenchmarkLSTMCell24\/m1(-[0-9]+)? /  { one = $3 }
	/^BenchmarkLSTMCell24\/m64(-[0-9]+)? / { many = $3 / 64 }
	END {
		if (one > 0 && many > 0)
			printf "bench.sh: cell ns/row (hd 24) m1 / m64: %.0f / %.0f\n", one, many
		else
			print "bench.sh: cell ns/row pair missing from run" > "/dev/stderr"
	}' "$TMP"

# Exp cost per element (DESIGN.md §6.2): the f64 exp kernel on ordinary
# gate pre-activations and on the k = 4 band in which its speculative
# denormal product used to take a microcode assist on every vector
# (16-19 against 3-4 ns/elem before PR 20). The two must read alike.
awk '
	/^BenchmarkExpSlice96(-[0-9]+)? /           { typ = $3 / 96 }
	/^BenchmarkExpSliceAssistBand96(-[0-9]+)? / { band = $3 / 96 }
	END {
		if (typ > 0 && band > 0)
			printf "bench.sh: exp ns/elem typical / assist-band: %.2f / %.2f\n", typ, band
		else
			print "bench.sh: exp ns/elem pair missing from run" > "/dev/stderr"
	}' "$TMP"

# Last-wins dedup by row name: the iteration-floor decode re-runs above
# append rows whose names collide with the single-shot rows from the
# main block; keep only the final occurrence of each name (order
# preserved) so the baseline carries the floor-enforced measurements.
awk '/^Benchmark/ {
		if (!($1 in line)) order[++n] = $1
		line[$1] = $0
	} END { for (i = 1; i <= n; i++) print line[order[i]] }' "$TMP" > "$DEDUP"

{
	echo '{'
	printf '  "benchtime": "%s",\n' "$BENCHTIME"
	printf '  "goos": "%s", "goarch": "%s", "ncpu": %s, "repro_procs": %s, "gomaxprocs": %s,\n' \
		"$(go env GOOS)" "$(go env GOARCH)" "$NCPU" "$REPRO_EFF" "$GOMAX_EFF"
	echo '  "benchmarks": ['
	awk -v topgmp="$GOMAX_EFF" '/^Benchmark/ {
		name=$1; iters=$2; nsop=$3
		mbs="null"; bop="null"; allocs="null"; sps="null"
		for (i=4; i<=NF; i++) {
			if ($i == "MB/s") mbs=$(i-1)
			if ($i == "B/op") bop=$(i-1)
			if ($i == "allocs/op") allocs=$(i-1)
			if ($i == "streams/s") sps=$(i-1)
			if ($i == "replays/s") sps=$(i-1)
		}
		gmp = topgmp
		if (match(name, /@gomaxprocs=[0-9]+/))
			gmp = substr(name, RSTART+12, RLENGTH-12)
		# Precision of the kernel under test: the f32 serving-path
		# benchmarks carry an F32 suffix or a 32 in the kernel name
		# (Dense32/Fleet32/Slice32); everything else is float64.
		prec = "f64"
		if (name ~ /32/) prec = "f32"
		if (n++) printf ",\n"
		printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"mb_per_s\": %s, \"b_per_op\": %s, \"allocs_per_op\": %s, \"streams_per_s\": %s, \"gomaxprocs\": %s, \"precision\": \"%s\"}", \
			name, iters, nsop, mbs, bop, allocs, sps, gmp, prec
	} END { print "" }' "$DEDUP"
	echo '  ]'
	echo '}'
} > "$OUT"

echo "bench.sh: wrote $OUT"

if [ -f "$PREV" ]; then
	echo
	echo "vs previous baseline (ns/op: positive = slower; allocs/op: positive = more allocation):"
	awk '
		/"name":/ {
			n=$0; sub(/.*"name": "/, "", n); sub(/".*/, "", n)
			v=$0; sub(/.*"ns_per_op": /, "", v); sub(/,.*/, "", v)
			a="n/a"
			if ($0 ~ /"allocs_per_op":/) {
				a=$0; sub(/.*"allocs_per_op": /, "", a); sub(/[,}].*/, "", a)
			}
			if (FNR != NR && n in prev && prev[n] > 0) {
				da = "      n/a"
				if (a != "null" && a != "n/a" && palloc[n] != "null" && palloc[n] != "n/a" && palloc[n] != "")
					da = sprintf("%8s -> %8s", palloc[n], a)
				printf "  %-50s %12.1f -> %12.1f ns/op %+6.2f%%   allocs %s\n", \
					n, prev[n], v, 100 * (v - prev[n]) / prev[n], da
			} else if (FNR == NR) {
				prev[n] = v
				palloc[n] = a
			}
		}' "$PREV" "$OUT"
fi
