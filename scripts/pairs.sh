#!/bin/sh
# Paired parent-vs-change runs of the repo benchmark (BENCHMARK.json,
# bench/README.md), the measurement a performance claim rests on: builds
# ./bench from <parent-ref> (a `git archive` export in a temporary
# directory — nothing under .git changes) and from the working tree, runs
# <n> pairs
# of one workload on seeds first-seed .. first-seed+n-1, alternating
# which side goes first, and prints for every end-to-end metric of
# BENCHMARK.json both sides' median and quartiles, the pairs the change
# won (ties count for neither side), the parent's inter-quartile spread,
# and whether the claim rule holds: the change wins at least nine tenths
# of the pairs and the medians differ by more than that spread.
#
# Exits non-zero when a run reports `correct: false` or a failed
# operation, or when the two sides' `# check digest=` lines differ on any
# seed (the change moved an output byte).
#
# Run from the repository root, with nothing else running (2 vCPUs, and
# the decode workloads use both):
#   scripts/pairs.sh <parent-ref> <workload> <n> [first-seed [bench flags...]]
# The bench flags replace the default `-seconds <run_seconds>`; `-quick`
# makes a smoke run of a few seconds.
set -eu

if [ $# -lt 3 ]; then
	echo "usage: scripts/pairs.sh <parent-ref> <workload> <n> [first-seed [bench flags...]]" >&2
	exit 2
fi
REF="$1"
WORKLOAD="$2"
N="$3"
SEED0="${4:-1}"
if [ $# -ge 4 ]; then shift 4; else shift 3; fi
if [ $# -eq 0 ]; then
	set -- -seconds "$(awk -F'[:,]' '/"run_seconds"/ { gsub(/ /, "", $2); print $2 }' BENCHMARK.json)"
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
mkdir "$TMP/parent"
git archive "$REF" | tar -x -C "$TMP/parent"
(cd "$TMP/parent" && go build -o "$TMP/b_parent" ./bench)
go build -o "$TMP/b_change" ./bench

# run <side> <seed> <bench flags...>: one benchmark run, stdout kept in
# $TMP/<side>.<seed>.
run() {
	out="$TMP/$1.$2"
	bin="$TMP/b_$1"
	seed="$2"
	shift 2
	"$bin" -workload "$WORKLOAD" -seed "$seed" -trace 0 "$@" >"$out" 2>"$out.err" || {
		echo "pairs.sh: run failed, see below ($out):" >&2
		tail -5 "$out" "$out.err" >&2
		exit 1
	}
}

i=0
while [ "$i" -lt "$N" ]; do
	seed=$((SEED0 + i))
	if [ $((i % 2)) -eq 0 ]; then order="parent change"; else order="change parent"; fi
	for side in $order; do
		run "$side" "$seed" "$@"
	done
	printf 'pairs.sh: seed %d (%s first) done\n' "$seed" "${order%% *}" >&2
	i=$((i + 1))
done

# Everything below reads the kept outputs: the last line of each is the
# result object, and "# check digest=" the output-byte digest.
awk -v n="$N" -v seed0="$SEED0" -v dir="$TMP" -v workload="$WORKLOAD" -v ref="$REF" '
function value(line, name,    re, s) {
	re = "\"" name "\":\\{\"value\":[-+0-9.eE]+"
	if (!match(line, re)) return "nan"
	s = substr(line, RSTART, RLENGTH)
	sub(/.*:/, "", s)
	return s + 0
}
# quantile q of v[1..cnt] (sorted copy, linear interpolation).
function quantile(v, cnt, q,    a, i, j, t, pos, lo) {
	for (i = 1; i <= cnt; i++) a[i] = v[i]
	for (i = 2; i <= cnt; i++) {
		t = a[i]
		for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
		a[j + 1] = t
	}
	pos = 1 + (cnt - 1) * q
	lo = int(pos)
	if (lo >= cnt) return a[cnt]
	return a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
}
BEGIN {
	# The end-to-end metrics and which way is better, from BENCHMARK.json.
	while ((getline line < "BENCHMARK.json") > 0) {
		if (line ~ /"end_to_end"/) on = 1
		if (line ~ /"per_layer"/) on = 0
		if (on && line ~ /"name"/) { sub(/.*"name": *"/, "", line); sub(/".*/, "", line); names[++nm] = line }
		if (on && line ~ /"better"/) { sub(/.*"better": *"/, "", line); sub(/".*/, "", line); better[names[nm]] = line }
	}
	bad = 0
	for (i = 0; i < n; i++) {
		seed = seed0 + i
		for (s = 1; s <= 2; s++) {
			side = (s == 1) ? "parent" : "change"
			file = dir "/" side "." seed
			last = ""; digest[side] = "missing"
			while ((getline line < file) > 0) {
				if (line ~ /^# check digest=/) digest[side] = line
				last = line
			}
			close(file)
			if (last !~ /"correct":true/ || last !~ /"failed":0[,}]/) {
				printf "pairs.sh: %s seed %d: not a clean run: %s\n", side, seed, substr(last, 1, 80)
				bad = 1
			}
			for (m = 1; m <= nm; m++) val[side, names[m], i + 1] = value(last, names[m])
		}
		if (digest["parent"] != digest["change"] || digest["parent"] == "missing") {
			printf "pairs.sh: seed %d: digest mismatch: parent [%s] change [%s]\n", seed, digest["parent"], digest["change"]
			bad = 1
		}
	}
	printf "pairs.sh: %s, %d pairs (seeds %d..%d), parent %s vs working tree; digests %s\n", \
		workload, n, seed0, seed0 + n - 1, ref, bad ? "or runs NOT clean" : "equal on every seed"
	printf "%-16s %-6s %30s %30s %8s %6s %10s  %s\n", "metric", "better", \
		"parent median [q1, q3]", "change median [q1, q3]", "delta", "won", "parent IQR", "claim rule"
	for (m = 1; m <= nm; m++) {
		name = names[m]; won = 0
		for (i = 1; i <= n; i++) {
			p[i] = val["parent", name, i]; c[i] = val["change", name, i]
			d = (better[name] == "higher") ? c[i] - p[i] : p[i] - c[i]
			if (d > 0) won++
		}
		pm = quantile(p, n, 0.5); cm = quantile(c, n, 0.5)
		iqr = quantile(p, n, 0.75) - quantile(p, n, 0.25)
		gain = (better[name] == "higher") ? cm - pm : pm - cm
		rule = (won >= 0.9 * n && gain > iqr) ? "met" : "not met"
		printf "%-16s %-6s %12.4f [%7.4f, %7.4f] %12.4f [%7.4f, %7.4f] %+7.1f%% %3d/%-2d %10.4f  %s\n", \
			name, better[name], pm, quantile(p, n, 0.25), quantile(p, n, 0.75), \
			cm, quantile(c, n, 0.25), quantile(c, n, 0.75), \
			pm != 0 ? 100 * (cm - pm) / pm : 0, won, n, iqr, rule
		line = ""
		for (i = 1; i <= n; i++) line = line sprintf(" %.4g/%.4g", p[i], c[i])
		printf "  runs (parent/change, by seed):%s\n", line
	}
	exit bad
}'
