#!/usr/bin/env bash
# Paired end-to-end benchmark runs of a base commit against the working
# tree, for claiming (or ruling out) a change in an end-to-end metric.
#
#   bash scripts/bench-pairs.sh BASE_REF WORKLOAD SEED N
#   bash scripts/bench-pairs.sh HEAD~1 ingest-cold 1 10
#
# Run from the repository root. BASE_REF is checked out as a detached git
# worktree under .bench_build/pairs-base (removed again on exit). Each of
# the N pairs runs
#
#   bash bench/run.sh -workload WORKLOAD -seed SEED -seconds 15 -trace 0
#
# once in each tree, alternating which tree goes first, so a drift of the
# machine's speed over the session lands on both sides alike. It prints
# every run's exit code, its end-to-end metrics and any `invalid` line,
# then for each end-to-end metric of BENCHMARK.json each side's quartiles
# and median, the ratio of the medians and how many pairs the working tree
# won.
#
# A run that fails a validity guard (exit code 1, an `invalid` line) is
# listed and counted, and its metrics stay in the summary: no run is
# dropped or repeated until it passes. Raw outputs are kept in
# .bench_build/pairs/{base,head}-<pair>.txt.
set -euo pipefail

if [ $# -ne 4 ]; then
	echo "usage: bash scripts/bench-pairs.sh BASE_REF WORKLOAD SEED N" >&2
	exit 2
fi
base_ref=$1 workload=$2 seed=$3 n=$4

root=$(git rev-parse --show-toplevel)
cd "$root"
base_dir="$root/.bench_build/pairs-base"
logs="$root/.bench_build/pairs"
mkdir -p "$logs"
rm -f "$logs"/*.txt

cleanup() {
	git worktree remove --force "$base_dir" >/dev/null 2>&1 || true
	git worktree prune
}
cleanup
trap cleanup EXIT
git worktree add --detach --quiet "$base_dir" "$base_ref"
echo "base $base_ref = $(git -C "$base_dir" rev-parse --short HEAD), head = working tree of $(git rev-parse --short HEAD)"
echo "workload $workload, seed $seed, $n pairs"

# metrics: "name better" for each end-to-end metric (the entries that
# carry a regression bound).
metrics=$(grep -o '"name": *"[^"]*", *"unit": *"[^"]*", *"better": *"[^"]*", *"bound"' BENCHMARK.json |
	sed 's/"name": *"\([^"]*\)".*"better": *"\([^"]*\)".*/\1 \2/')

run_one() { # side pair
	local side=$1 pair=$2 dir=$root code=0
	[ "$side" = base ] && dir=$base_dir
	(cd "$dir" && bash bench/run.sh -workload "$workload" -seed "$seed" -seconds 15 -trace 0) \
		>"$logs/$side-$pair.txt" 2>&1 || code=$?
	echo "exit $code" >>"$logs/$side-$pair.txt"
	printf '  %-4s exit=%d' "$side" "$code"
	while read -r name _; do
		printf ' %s=%s' "$name" "$(awk -v m="$name" '$2 == m { print $3 }' "$logs/$side-$pair.txt")"
	done <<<"$metrics"
	echo
	grep ' invalid ' "$logs/$side-$pair.txt" | sed 's/^/         /' || true
}

for pair in $(seq 1 "$n"); do
	if [ $((pair % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
	echo "pair $pair ($order)"
	for side in $order; do
		run_one "$side" "$pair"
	done
done

echo
echo "summary: $workload, seed $seed, $n pairs (q1 median q3 per side)"
while read -r name better; do
	for pair in $(seq 1 "$n"); do
		b=$(awk -v m="$name" '$2 == m { print $3 }' "$logs/base-$pair.txt")
		h=$(awk -v m="$name" '$2 == m { print $3 }' "$logs/head-$pair.txt")
		echo "${b:-NA} ${h:-NA}"
	done | awk -v name="$name" -v better="$better" '
		function quart(a, k, q,   p, lo) { # type-7 quantile of sorted a[1..k]
			if (k == 0) return "NA"
			p = 1 + (k - 1) * q; lo = int(p)
			return lo >= k ? a[k] : a[lo] + (p - lo) * (a[lo + 1] - a[lo])
		}
		function sortn(a, k,   i, j, t) {
			for (i = 2; i <= k; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
		}
		{
			if ($1 != "NA") bs[++nb] = $1
			if ($2 != "NA") hs[++nh] = $2
			if ($1 != "NA" && $2 != "NA") {
				pairs++
				if ((better == "higher" && $2 > $1) || (better == "lower" && $2 < $1)) wins++
			}
		}
		END {
			sortn(bs, nb); sortn(hs, nh)
			bm = quart(bs, nb, 0.5); hm = quart(hs, nh, 0.5)
			ratio = (bm != "NA" && hm != "NA" && bm != 0) ? sprintf("%.3fx", hm / bm) : "NA"
			printf "%-20s %-6s base %s %s %s  head %s %s %s  head/base %s  head wins %d/%d\n",
				name, better, quart(bs, nb, 0.25), bm, quart(bs, nb, 0.75),
				quart(hs, nh, 0.25), hm, quart(hs, nh, 0.75), ratio, wins + 0, pairs + 0
		}'
done <<<"$metrics"

for side in base head; do
	bad=""
	for pair in $(seq 1 "$n"); do
		if ! grep -qx 'exit 0' "$logs/$side-$pair.txt" || grep -q ' invalid ' "$logs/$side-$pair.txt"; then
			bad="$bad $pair"
		fi
	done
	echo "$side runs failed or invalid: $(wc -w <<<"$bad")/$n${bad:+ (pairs$bad)}"
done
