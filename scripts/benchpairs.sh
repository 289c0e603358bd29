#!/usr/bin/env bash
# Paired A/B run of one benchmark workload: the base ref against the
# working tree.
#
#   bash scripts/benchpairs.sh <workload> <pairs> <seconds> [base-ref]
#
# base-ref defaults to HEAD. The script exports base-ref into
# .bench_build/pairs/base (git-ignored; uncommitted changes are not part
# of it) and treats the working tree as the change. Each pair runs
# `bash perfbench/run.sh` once in each tree on the same fresh random seed,
# alternating which tree goes first, so a drift in host speed falls on
# both sides. It prints each pair's end-to-end metrics, then per metric
# each side's median and quartiles, the median change/base ratio, and in
# how many pairs the change was better, in the direction BENCHMARK.json
# declares. The median ratio is also printed over the base-first (odd)
# and the change-first (even) pairs separately, so an effect of run
# order shows up as a gap between the two. Each run's raw result line,
# prefixed with side, pair and seed, is kept in
# .bench_build/pairs/<workload>.log. Nothing under perfbench/ is
# modified. Needs git and python3 besides the Go toolchain.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
	echo "usage: $0 <workload> <pairs> <seconds> [base-ref]" >&2
	exit 2
fi
workload=$1 pairs=$2 seconds=$3 ref=${4:-HEAD}
root=$(git rev-parse --show-toplevel)
cd "$root"
work="$root/.bench_build/pairs"
base="$work/base"
log="$work/$workload.log"

rm -rf "$base"
mkdir -p "$base/.bench_build"
git archive "$(git rev-parse --verify "$ref^{commit}")" | tar -x -C "$base"
# Share the working tree's build cache: Go's cache is content-addressed,
# so the base build reuses whatever both trees have in common.
mkdir -p "$root/.bench_build/gocache"
ln -sfn "$root/.bench_build/gocache" "$base/.bench_build/gocache"
: >"$log"

# run <tree> <side> <pair> <seed>: one benchmark run; appends
# "<side> <pair> <seed> <result JSON>" to the log.
run() {
	local out
	if ! out=$(cd "$1" && bash perfbench/run.sh --workload "$workload" --seed "$4" --seconds "$seconds"); then
		echo "benchpairs: $2 run failed (pair $3, seed $4)" >&2
		exit 1
	fi
	printf '%s %s %s %s\n' "$2" "$3" "$4" "$(printf '%s\n' "$out" | tail -n 1)" >>"$log"
}

for ((i = 1; i <= pairs; i++)); do
	seed=$(((RANDOM << 15 | RANDOM) + 1))
	if ((i % 2)); then
		run "$base" base "$i" "$seed"
		run "$root" change "$i" "$seed"
	else
		run "$root" change "$i" "$seed"
		run "$base" base "$i" "$seed"
	fi
done

python3 - "$log" "$root/BENCHMARK.json" "$ref" <<'PY'
import json, statistics, sys

log, bench, ref = sys.argv[1:]
better = {m["name"]: m["better"] for m in json.load(open(bench))["end_to_end"]}
runs = []
for line in open(log):
    side, pair, seed, result = line.split(" ", 3)
    r = json.loads(result)
    runs.append({"side": side, "pair": int(pair), "seed": int(seed),
                 "ok": r["correct"] and r["failed"] == 0,
                 "metrics": {m: v["value"] for m, v in r["metrics"].items()}})
by_pair = {}
for r in runs:
    by_pair.setdefault(r["pair"], {})[r["side"]] = r
names = [m for m in better if m in runs[0]["metrics"]]

print(f"base {ref} vs working tree; ratio = change/base")
for p in sorted(by_pair):
    b, c = by_pair[p]["base"], by_pair[p]["change"]
    first = "base" if p % 2 else "change"
    cells = "  ".join(f"{m} {b['metrics'][m]:.4g}->{c['metrics'][m]:.4g}" for m in names)
    ok = "" if b["ok"] and c["ok"] else "  NOT CORRECT OR FAILED OPS"
    print(f"pair {p} seed {b['seed']} ({first} first): {cells}{ok}")


def spread(side, m):
    xs = [by_pair[p][side]["metrics"][m] for p in by_pair]
    q1, q2, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def median_ratio(ratios, pairs):
    xs = [ratios[p] for p in pairs]
    return f"{statistics.median(xs):.3f} over {len(xs)}" if xs else "- over 0"


print("per metric: base and change median [quartiles]")
for m in names:
    ratios = {p: by_pair[p]["change"]["metrics"][m] / by_pair[p]["base"]["metrics"][m] for p in by_pair}
    wins = sum((r > 1) if better[m] == "higher" else (r < 1) for r in ratios.values())
    print(f"{m:>10}: base {spread('base', m)}, change {spread('change', m)}; "
          f"median ratio {statistics.median(ratios.values()):.3f}, change better in {wins}/{len(ratios)} "
          f"({better[m]} is better); median ratio base-first "
          f"{median_ratio(ratios, [p for p in ratios if p % 2])}, change-first "
          f"{median_ratio(ratios, [p for p in ratios if not p % 2])}")
PY
