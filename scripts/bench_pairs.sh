#!/usr/bin/env bash
# bench_pairs.sh — paired parent/change micro-benchmark driver.
#
# Builds the root package's test binary twice, once from the parent commit
# and once from the working tree. Each REGEX is matched against the
# top-level benchmark names (the union of both binaries' -test.list), and
# every matched benchmark is paired on its own: the two binaries run that
# one benchmark (-test.bench '^Name$', sub-benchmarks included) back to
# back, PAIRS times. The side that runs first alternates from pair to pair,
# so a slow host spell lands on both sides instead of on one.
#
# Pairing per benchmark, not per regex, keeps the two runs of a pair
# seconds apart. With a regex that matched several benchmarks, one side
# ran all of them before the other started, so the two runs of a pair were
# a whole regex apart and a host spell that changed in between moved the
# ratio of an unchanged benchmark (StepHypercube12SendFloor read 1.164, the
# change losing 0/10 pairs, then 0.999 in a re-run).
#
# For every benchmark it prints the parent's and the change's median ns/op
# with their quartiles, how many pairs the change won (lower ns/op) and the
# change/parent ratio of the medians.
#
# The parent is the merge-base of HEAD and BASE (default HEAD, i.e. the last
# commit, so uncommitted changes are measured against it; on a branch pass
# -b main). Its sources are exported with `git archive` into a temporary
# directory, which is removed on exit.
#
# Usage:
#   scripts/bench_pairs.sh [-n PAIRS] [-b BASE] REGEX...
#
#   -n PAIRS  pairs per benchmark (default and minimum 10: fewer pairs cannot
#             back a claimed gain)
#   -b BASE   ref whose merge-base with HEAD is the parent (default HEAD)
#
# Every run uses Go's default benchtime, as scripts/bench.sh does.
#
# Example:
#   scripts/bench_pairs.sh -b HEAD~1 'StepHypercube12' 'StepRotorRouter$'
set -euo pipefail

PAIRS=10
BASE=HEAD
while getopts "n:b:h" flag; do
  case "$flag" in
    n) PAIRS="$OPTARG" ;;
    b) BASE="$OPTARG" ;;
    h) grep '^#' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
    *) echo "usage: bench_pairs.sh [-n PAIRS] [-b BASE] REGEX..." >&2; exit 2 ;;
  esac
done
shift $((OPTIND - 1))
if [[ $# -eq 0 ]]; then
  echo "bench_pairs.sh: at least one benchmark regex is required" >&2
  exit 2
fi
if ! [[ "$PAIRS" =~ ^[0-9]+$ ]] || (( PAIRS < 10 )); then
  echo "bench_pairs.sh: -n must be an integer >= 10" >&2
  exit 2
fi
for tool in go git awk; do
  command -v "$tool" >/dev/null || { echo "bench_pairs.sh: $tool is required" >&2; exit 1; }
done

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
PARENT="$(git -C "$ROOT" merge-base HEAD "$BASE")"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

mkdir "$WORK/src"
git -C "$ROOT" archive "$PARENT" | tar -x -C "$WORK/src"
echo "parent $PARENT, change = working tree of $ROOT" >&2
(cd "$WORK/src" && go test -c -o "$WORK/parent.test" .)
(cd "$ROOT" && go test -c -o "$WORK/change.test" .)

# side_dir SIDE — the directory a side's binary runs in (testdata paths).
side_dir() {
  if [[ "$1" == parent ]]; then echo "$WORK/src"; else echo "$ROOT"; fi
}

# run SIDE NAME — one run of one benchmark; prints "side name ns/op" lines.
run() {
  local side="$1" name="$2"
  (cd "$(side_dir "$side")" && "$WORK/$side.test" -test.run '^$' -test.bench "^${name}\$" -test.count 1) |
    awk -v side="$side" '/^Benchmark/ && $4 == "ns/op" {
        name = $1; sub(/-[0-9]+$/, "", name); print side, name, $3 }'
}

# names REGEX — the top-level benchmarks either binary has that match.
names() {
  local side
  for side in parent change; do
    (cd "$(side_dir "$side")" && "$WORK/$side.test" -test.list "$1") | grep '^Benchmark' || true
  done | awk '!seen[$0]++'
}

for regex in "$@"; do
  results="$WORK/results"
  : > "$results"
  matched="$(names "$regex")"
  if [[ -z "$matched" ]]; then
    echo "bench_pairs.sh: no benchmark matches $regex" >&2
    continue
  fi
  for name in $matched; do
    for ((i = 0; i < PAIRS; i++)); do
      if (( i % 2 == 0 )); then order="parent change"; else order="change parent"; fi
      for side in $order; do
        run "$side" "$name" | awk -v pair="$i" '{ print pair, $0 }' >> "$results"
      done
    done
  done
  # Lines: pair side name ns. Per benchmark: sort each side's values, take
  # the median and quartiles by linear interpolation, count pair wins.
  awk '
    function q(arr, n, p,    h, lo) {
      h = 1 + (n - 1) * p; lo = int(h)
      return (lo >= n) ? arr[n] : arr[lo] + (h - lo) * (arr[lo + 1] - arr[lo])
    }
    function sorted(src, key, n, dst,    i, j, t) {
      for (i = 1; i <= n; i++) dst[i] = src[key, i]
      for (i = 2; i <= n; i++) for (j = i; j > 1 && dst[j - 1] > dst[j]; j--) {
        t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t
      }
    }
    {
      pair = $1; side = $2; name = $3; ns = $4
      if (!(name in seen)) { seen[name] = 1; names[++nn] = name }
      val[side, name, pair] = ns
      cnt[side, name]++
      all[side SUBSEP name, cnt[side, name]] = ns
    }
    END {
      printf "%-44s %6s %26s %26s %5s %7s\n", "benchmark", "pairs",
        "parent ns/op (q1 med q3)", "change ns/op (q1 med q3)", "wins", "ratio"
      for (k = 1; k <= nn; k++) {
        name = names[k]
        n = 0; wins = 0
        for (i = 0; i < pairs; i++) {
          if (("parent", name, i) in val && ("change", name, i) in val) {
            n++
            if (val["change", name, i] < val["parent", name, i]) wins++
          }
        }
        np = cnt["parent", name]; nc = cnt["change", name]
        delete ps; delete cs
        sorted(all, "parent" SUBSEP name, np, ps)
        sorted(all, "change" SUBSEP name, nc, cs)
        pq = (np == 0) ? sprintf("%26s", "missing") : \
          sprintf("%8.0f %8.0f %8.0f", q(ps, np, 0.25), q(ps, np, 0.5), q(ps, np, 0.75))
        cq = (nc == 0) ? sprintf("%26s", "missing") : \
          sprintf("%8.0f %8.0f %8.0f", q(cs, nc, 0.25), q(cs, nc, 0.5), q(cs, nc, 0.75))
        if (np == 0 || nc == 0) {
          printf "%-44s %6d %s %s %5s %7s\n", name, n, pq, cq, "-", "-"
          continue
        }
        printf "%-44s %6d %s %s %2d/%-2d %7.3f\n", name, n, pq, cq,
          wins, n, q(cs, nc, 0.5) / q(ps, np, 0.5)
      }
    }' pairs="$PAIRS" "$results"
done
