#!/usr/bin/env bash
# bench.sh — run the engine micro-benchmarks and record the perf trajectory.
#
# Records seven files (by default at the repo root; -o redirects them, so CI
# runners never need a writable checkout):
#
#   BENCH_step.json    — the BenchmarkStep* hot-path benchmarks plus the
#                        spectral gap (analytic and Lanczos) and graph
#                        construction (random 8-regular sampling, the
#                        hypercube:12 build and the cold expander family's
#                        Family.Bind); the rotor-router round is recorded at
#                        engine widths 1 and 2 side by side
#                        (StepHypercube12RotorRouterW1/W2, StepRotorRouterW2);
#   BENCH_sweep.json   — the BenchmarkSweep* harness benchmarks (concurrent
#                        sweep vs the serial analysis.Run loop, warm and cold
#                        gap cache, the cold expander-headline family at
#                        sweep widths 1 and 2, and the kernel-hypercube POST
#                        with a lent runner), whose runs/sec and allocs/op
#                        columns are the sweep subsystem's acceptance numbers;
#   BENCH_dynamic.json — the BenchmarkDynamic* shocked-run benchmarks (dynamic
#                        harness vs its static baseline, plus a shocked sweep);
#   BENCH_topology.json — the BenchmarkTopology* fault-injection benchmarks
#                        (faulted engine round, delta application, and a full
#                        fault-injected run);
#   BENCH_protocol.json — the BenchmarkProtocol* population-protocol
#                        benchmarks (majority and Herman rounds, plus a full
#                        time-to-consensus run through the harness);
#   BENCH_serve.json   — the BenchmarkServe* serving-tier benchmarks
#                        (cache-hit vs cold POST latency over HTTP on the
#                        expander-headline preset, plus the sustained
#                        hit-serving throughput in runs/sec);
#   BENCH_archive.json — the BenchmarkArchiveQuery* archive analytics
#                        benchmarks (filtered projection, grouped recovery
#                        aggregation, and CSV encoding over a 1000-cell
#                        warmed index).
#
# Each run uses -benchmem -count=$COUNT. With PATTERN set, only the matching
# benchmarks run, into OUT (default BENCH_step.json): their results are
# merged into the file's existing "current" section, every other recorded
# entry and the note are kept, so a partial refresh never drops a benchmark
# from the gate. The "baseline" section of an
# existing output file is preserved across runs so future PRs always compare
# against the recorded pre-refactor numbers (when -o points at a fresh
# directory, the baseline is carried over from the checked-in repo-root
# file); pass BASELINE=1 to (re)record the current results as the baseline
# instead. scripts/bench_compare.sh diffs a fresh -o directory against the
# checked-in files — the CI bench-regression gate. To back a speed claim
# with parent/change pairs on one machine, use scripts/bench_pairs.sh.
#
# Usage:
#   scripts/bench.sh                 # refresh the "current" sections in-repo
#   scripts/bench.sh -o /tmp/bench   # write results elsewhere (CI)
#   BASELINE=1 scripts/bench.sh      # also overwrite the "baseline" sections
#   COUNT=3 PATTERN=BenchmarkStepRotor OUT=BENCH_step.json scripts/bench.sh
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
OUTDIR="$ROOT"
while getopts "o:h" flag; do
  case "$flag" in
    o) OUTDIR="$OPTARG" ;;
    h) grep '^#' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
    *) echo "usage: bench.sh [-o OUTDIR]" >&2; exit 2 ;;
  esac
done

for tool in go jq awk; do
  command -v "$tool" >/dev/null || { echo "bench.sh: $tool is required" >&2; exit 1; }
done
mkdir -p "$OUTDIR"

COUNT="${COUNT:-5}"

# Temp files from every record() call, cleaned up even when set -e aborts.
# (The ${arr[@]+...} guard keeps the empty-array expansion legal under
# `set -u` on bash < 4.4.)
RAW_FILES=()
trap 'rm -f ${RAW_FILES[@]+"${RAW_FILES[@]}"}' EXIT

# record PATTERN OUT NOTE [merge] — run one benchmark family and write its
# JSON. With a fourth argument "merge", the results are merged into the
# existing file's "current" section (the written file, else the checked-in
# one) and its note is kept.
record() {
  local pattern="$1" out="$OUTDIR/$2" checked_in="$ROOT/$2" note="$3" merge="${4:-}"
  local raw results base_json prior
  raw="$(mktemp)"
  RAW_FILES+=("$raw")

  (cd "$ROOT" && go test -run '^$' -bench "$pattern" -benchmem -count="$COUNT" .) | tee "$raw"

  # Each benchmark line: Name[-procs] iters ns/op "ns/op" [extra "unit"]...
  # B/op and allocs/op are the last two value/unit pairs; a custom
  # runs/sec metric, when present, sits between them and ns/op.
  results="$(awk '/^Benchmark/ {
      name=$1; sub(/-[0-9]+$/, "", name);
      runs="";
      for (i = 4; i < NF; i++) if ($(i+1) == "runs/sec") runs=$i;
      print name, $3, $(NF-3), $(NF-1), (runs == "" ? "null" : runs)
    }' "$raw" |
    jq -Rn '[inputs | select(length > 0) | split(" ") |
             {name: .[0], ns: (.[1]|tonumber), bytes: (.[2]|tonumber),
              allocs: (.[3]|tonumber),
              runs_per_sec: (if .[4] == "null" then null else (.[4]|tonumber) end)}] |
            group_by(.name) |
            map({key: .[0].name,
                 value: ({ns_op: [.[].ns], ns_op_min: ([.[].ns] | min),
                          bytes_op: .[0].bytes, allocs_op: .[0].allocs}
                         + (if .[0].runs_per_sec != null
                            then {runs_per_sec_max: ([.[].runs_per_sec] | max)}
                            else {} end))}) |
            from_entries')"

  if [[ "$merge" == "merge" ]]; then
    prior=""
    if [[ -f "$out" ]]; then
      prior="$out"
    elif [[ -f "$checked_in" ]]; then
      prior="$checked_in"
    fi
    if [[ -n "$prior" ]]; then
      results="$(jq --argjson fresh "$results" '(.current // {}) + $fresh' "$prior")"
      note="$(jq -r --arg note "$note" '.note // $note' "$prior")"
    fi
  fi

  base_json='{}'
  if [[ "${BASELINE:-0}" == "1" ]]; then
    base_json="$results"
  elif [[ -f "$out" ]]; then
    base_json="$(jq '.baseline // {}' "$out")"
  elif [[ -f "$checked_in" ]]; then
    # Fresh -o directory: carry the recorded baseline over from the
    # checked-in file so the output stays self-describing.
    base_json="$(jq '.baseline // {}' "$checked_in")"
  fi

  jq -n \
    --argjson baseline "$base_json" \
    --argjson current "$results" \
    --arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    --arg go "$(go env GOVERSION)" \
    --arg cpu "$(awk -F': ' '/^cpu:/ {print $2; exit}' "$raw")" \
    --arg count "$COUNT" \
    --arg note "$note" \
    '{generated: $date, go: $go, cpu: $cpu, count_per_benchmark: ($count|tonumber),
      note: $note, baseline: $baseline, current: $current}' > "$out"

  rm -f "$raw"
  echo "wrote $out"
}

if [[ -n "${PATTERN:-}" ]]; then
  record "$PATTERN" "${OUT:-BENCH_step.json}" "custom pattern run" merge
  exit 0
fi

record 'BenchmarkStep|BenchmarkSpectralGap|BenchmarkRandomRegularSampling|BenchmarkGraphHypercube12|BenchmarkBindColdExpander' BENCH_step.json \
  "ns_op_min is the noise-robust statistic on shared machines; baseline is the pre-refactor engine (see CHANGES.md). RandomRegularSampling, GraphHypercube12 and BindColdExpander time graph construction: one random 8-regular graph on 512 nodes, one hypercube:12, and the Family.Bind of a cold expander-headline-shaped family (three fresh random graphs, 9 cells)."

record 'BenchmarkSweep' BENCH_sweep.json \
  "100-spec sweep acceptance numbers: Sweep100 is the concurrent harness (a fresh engine per spec, gap memoized); SerialColdGap is the pre-sweep equivalent loop (gap recomputed per run, fresh engine per run); SerialWarmGap is that loop with the gap memo warm, so its difference to Sweep100 is the sweep's scheduling. allocs_op is per 100 runs. SweepColdExpander/workers=1|2 is one cold expander-headline family (9 cells, freshly bound graphs, every gap solved cold) at sweep widths 1 and 2; allocs_op is per family. SweepKernelHypercube is one kernel-hypercube POST (rotor-router and send-floor, 400 rounds on hypercube:12) at sweep width 2, where the send-floor cell's runner helps the rotor-router cell once it is free; allocs_op is per POST."

record 'BenchmarkDynamic' BENCH_dynamic.json \
  "shocked-run numbers: ShockedRun is one 128-round dynamic run (burst + periodic refill + churn, recovery-tracked); StaticBaseline is the same instance without a schedule — the dynamic-harness overhead denominator; DynamicSweep25 pushes 25 shocked specs through the concurrent sweep, a fresh engine per spec."

record 'BenchmarkTopology' BENCH_topology.json \
  "fault-injection numbers: FaultedStep is one engine round with 32 dead links (compare BenchmarkStepRotorRouter — must stay 0 allocs/op); ApplyDelta is one fail+restore delta pair (mask updates, component census, epoch bump); FaultedRun is the dynamic benchmark instance with a periodic fault schedule and a flapping link (compare BenchmarkDynamicShockedRun)."

record 'BenchmarkProtocol' BENCH_protocol.json \
  "population-protocol numbers: MajorityStep is one well-mixed round (n pairwise interactions, 1024 agents) and HermanStep one ring round (coin flips + XOR merge on the kernel, 1025 nodes) — both must stay 0 allocs/op; MajorityRun is a full 256-agent time-to-consensus run through the harness (model construction + per-round metric + target stop)."

record 'BenchmarkServe' BENCH_serve.json \
  "serving-tier numbers over real HTTP: CacheHitExpander is a POST of the archived expander-headline preset answered terminally from the archive (one file read, no binding); ColdExpander is the same preset with -cache off (full 9-cell sweep per POST) — the hit/cold ns_op ratio is the memoization speedup and must stay >= 50x; SustainedHitBurst is concurrent clients on a warmed 4-preset mix, runs_per_sec_max its throughput."

record 'BenchmarkArchiveQuery' BENCH_archive.json \
  "archive analytics numbers over a warmed 1000-cell index (50 entries x 20 cells): Query1000Filtered is a two-clause filtered projection; Query1000Grouped is the acceptance query's shape (count + recovery-rounds mean/max grouped by graph_kind); Query1000CSV is a full-registry projection plus CSV encoding. All three include the per-query store re-list (no new entries), so index refresh overhead is in the measurement."
