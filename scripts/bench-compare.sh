#!/usr/bin/env bash
# bench-compare.sh — guard the wall-clock benchmarks against regressions and
# emit the machine-readable benchmark trajectory.
#
# Runs BenchmarkDataPlaneWallClock, BenchmarkServeWallClock,
# BenchmarkClusterWallClock, and BenchmarkReadPathWallClock (root package)
# plus the chunker (BenchmarkGearCDC*), batch-fingerprint
# (BenchmarkSumBatch), and sub-block decode (BenchmarkSubDecode4K)
# microbenchmarks, and compares them with the
# checked-in baseline (bench_baseline.txt, recorded with
# scripts/bench-compare.sh --record on the reference machine). Uses
# benchstat when it is on PATH; otherwise falls back to a plain geomean
# comparison of ns/op and allocs/op with a tolerance, so CI needs no extra
# tooling.
#
# Both units GATE: a >TIME_TOLERANCE_PCT ns/op or >ALLOC_TOLERANCE_PCT
# allocs/op geomean regression exits non-zero. Compare on the machine that
# recorded the baseline (or re-record); wall time is not portable across
# hosts. The batch read path additionally carries two ABSOLUTE gates
# (host-independent, enforced even with --record): allocs/read-op on the
# cache-disabled storm cases must stay under READ_ALLOC_CEILING, and the
# warm-cache storm pass's hit rate must stay over CACHE_HIT_FLOOR.
#
# Every run (compare or --record) also writes BENCH_<n>.json — a
# github-action-benchmark data.js-style snapshot (per-benchmark geomeans
# for ns/op, MB/s, and allocs/op, plus the headline ratios) keyed to the
# current commit. <n> defaults to the PR count in CHANGES.md; override
# with BENCH_PR=<n> or BENCH_OUT=<path>. CI uploads the file as an
# artifact so the repo accumulates one trajectory point per PR.
#
# Usage:
#   scripts/bench-compare.sh            # compare against bench_baseline.txt
#   scripts/bench-compare.sh --record   # rewrite bench_baseline.txt
#
# Set PROFILE_DIR to also capture host pprof profiles of the benchmark run
# (cpu.pprof and mem.pprof are written there, for go tool pprof).
set -euo pipefail

cd "$(dirname "$0")/.."

BASELINE=bench_baseline.txt
BENCH='BenchmarkDataPlaneWallClock|BenchmarkServeWallClock|BenchmarkClusterWallClock|BenchmarkReadPathWallClock'
# Every guarded benchmark/subbenchmark pair, for the fallback comparison.
# A trailing slash scopes a prefix to its own subbenchmarks only
# (BenchmarkGearCDC/ does not match BenchmarkGearCDCRef/...); nodes3r2 is
# anchored so it does not also average in nodes3r2/clients2.
CASES=(
    BenchmarkDataPlaneWallClock/serial
    BenchmarkDataPlaneWallClock/parallel
    BenchmarkDataPlaneWallClock/cdc
    BenchmarkServeWallClock/shards1
    BenchmarkServeWallClock/shards4
    BenchmarkClusterWallClock/nodes1
    'BenchmarkClusterWallClock/nodes3r2(-[0-9]+)?$'
    BenchmarkClusterWallClock/nodes3r2/clients2
    BenchmarkReadPathWallClock/serial
    BenchmarkReadPathWallClock/parallel
    BenchmarkReadPathWallClock/warm
    BenchmarkGearCDC/
    BenchmarkSumBatch
    BenchmarkSubDecode4K/serial
    BenchmarkSubDecode4K/indexed
)
COUNT="${BENCH_COUNT:-5}"
# Both tolerances gate the exit status. Allocation counts are deterministic
# to within pool-warmup noise, so their bound is tight; ns/op gets a little
# more headroom for host jitter but still fails the run when exceeded.
TIME_TOLERANCE_PCT="${TIME_TOLERANCE_PCT:-15}"
ALLOC_TOLERANCE_PCT="${ALLOC_TOLERANCE_PCT:-10}"
# Absolute gates on the batch read path, enforced on every run (including
# --record): the zero-alloc decode path must stay under the per-read
# allocation ceiling on the cache-disabled cases, and the warm-cache storm
# pass must keep a nonzero hit rate, or the admission policy has regressed
# to scan-churn. These mirror (and re-check, for runs that bypass `go
# test`'s own Fatalf gates) the ceilings compiled into
# BenchmarkReadPathWallClock.
READ_ALLOC_CEILING="${READ_ALLOC_CEILING:-0.05}"
CACHE_HIT_FLOOR="${CACHE_HIT_FLOOR:-0.05}"

PROFILE_ARGS=()
if [[ -n "${PROFILE_DIR:-}" ]]; then
    mkdir -p "$PROFILE_DIR"
    PROFILE_ARGS=(-cpuprofile "$PROFILE_DIR/cpu.pprof" -memprofile "$PROFILE_DIR/mem.pprof")
fi

run_bench() {
    go test . -run '^$' -bench "$BENCH" -benchtime 2x -count "$COUNT" -timeout 30m \
        "${PROFILE_ARGS[@]}"
    # Microbenchmarks use iteration-count benchtimes so each of the COUNT
    # repetitions does identical work (time-based -benchtime would resize
    # N between reps and skew the geomean).
    go test ./internal/chunk -run '^$' -bench 'BenchmarkGearCDC' \
        -benchtime 100x -count "$COUNT" -timeout 20m
    go test ./internal/dedup -run '^$' -bench 'BenchmarkSumBatch' \
        -benchtime 20x -count "$COUNT" -timeout 20m
    go test ./internal/lz -run '^$' -bench 'BenchmarkSubDecode4K' \
        -benchtime 500x -count "$COUNT" -timeout 20m
}

# geomean <file> <benchmark-substring> <unit>
# Benchmark lines: Name  N  ns/op  [MB/s]  B/op  allocs/op
# Zero samples (the pooled paths really do 0 allocs/op) are clamped to a
# tiny epsilon so the log-space mean stays finite; the result still prints
# as 0.
geomean() {
    awk -v name="$2" -v unit="$3" '
        $1 ~ name {
            for (i = 2; i <= NF; i++) {
                if ($i == unit) {
                    v = $(i-1) + 0
                    if (v < 1e-9) v = 1e-9
                    sum += log(v); n++
                }
            }
        }
        END {
            if (n == 0) { print "NaN"; exit 1 }
            printf "%.0f\n", exp(sum / n)
        }' "$1"
}

# fgeomean <file> <benchmark-substring> <unit> — like geomean but keeps
# fractional precision, for sub-1.0 custom metrics (allocs/read-op,
# cache-hit-rate) where rounding to an integer would erase the value.
fgeomean() {
    awk -v name="$2" -v unit="$3" '
        $1 ~ name {
            for (i = 2; i <= NF; i++) {
                if ($i == unit) {
                    v = $(i-1) + 0
                    if (v < 1e-9) v = 1e-9
                    sum += log(v); n++
                }
            }
        }
        END {
            if (n == 0) { print "NaN"; exit 1 }
            printf "%.6g\n", exp(sum / n)
        }' "$1"
}

# read_path_gates <raw-bench-output> — the absolute read-path gates.
# Returns non-zero when a gate fails.
read_path_gates() {
    local raw="$1" ok=1 bcase allocs hitrate
    echo
    echo "== read-path absolute gates =="
    for bcase in BenchmarkReadPathWallClock/serial BenchmarkReadPathWallClock/parallel; do
        allocs="$(fgeomean "$raw" "$bcase" allocs/read-op)" || { echo "$bcase: no allocs/read-op samples"; ok=0; continue; }
        if awk -v v="$allocs" -v c="$READ_ALLOC_CEILING" 'BEGIN { exit !(v <= c) }'; then
            printf '%-36s allocs/read-op=%-10s ceiling=%-8s ok\n' "$bcase" "$allocs" "$READ_ALLOC_CEILING"
        else
            printf '%-36s allocs/read-op=%-10s ceiling=%-8s FAIL (read path regressed off the pooled zero-alloc plan)\n' \
                "$bcase" "$allocs" "$READ_ALLOC_CEILING"
            ok=0
        fi
    done
    hitrate="$(fgeomean "$raw" BenchmarkReadPathWallClock/warm cache-hit-rate)" || { echo "warm case: no cache-hit-rate samples"; ok=0; }
    if [[ -n "${hitrate:-}" ]]; then
        if awk -v v="$hitrate" -v f="$CACHE_HIT_FLOOR" 'BEGIN { exit !(v >= f) }'; then
            printf '%-36s cache-hit-rate=%-10s floor=%-8s ok\n' "BenchmarkReadPathWallClock/warm" "$hitrate" "$CACHE_HIT_FLOOR"
        else
            printf '%-36s cache-hit-rate=%-10s floor=%-8s FAIL (admission policy no longer survives the storm scan)\n' \
                "BenchmarkReadPathWallClock/warm" "$hitrate" "$CACHE_HIT_FLOOR"
            ok=0
        fi
    fi
    [[ "$ok" == 1 ]]
}

# ratio <file> <caseA> <caseB> — geomean ns/op of caseA over caseB.
ratio() {
    local a b
    a="$(geomean "$1" "$2" ns/op)"
    b="$(geomean "$1" "$3" ns/op)"
    awk -v a="$a" -v b="$b" 'BEGIN { printf "%.2f", a / b }'
}

# write_json <raw-bench-output> — emit BENCH_<n>.json in the
# github-action-benchmark data.js shape: one "Go Benchmark" entry for the
# current commit, one bench object per (benchmark, unit) pair (ns/op keeps
# the plain name; other units get " - <unit>" appended, as the action's go
# parser does), each value the geomean over the COUNT repetitions, plus
# the headline ratios as synthetic "ratio: ..." benches with unit "x".
# The entry carries a "host" envelope (CPU model, hardware threads,
# GOMAXPROCS, arch, Go version) so cmd/benchdash can annotate trajectory
# points where the recording machine changed; wall time is not comparable
# across hosts. Older BENCH_*.json files lack the field and benchdash
# tolerates that.
write_json() {
    local raw="$1" out n now commit cdate msg cpu threads goarch gover
    n="${BENCH_PR:-$(grep -c '^PR ' CHANGES.md 2>/dev/null || echo 0)}"
    out="${BENCH_OUT:-BENCH_${n}.json}"
    now="$(($(date -u +%s) * 1000))"
    commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
    cdate="$(git log -1 --format=%cI 2>/dev/null || date -u +%FT%TZ)"
    msg="$(git log -1 --format=%s 2>/dev/null | tr -d '"\\' | cut -c1-120 || true)"
    cpu="$(awk -F': *' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null | tr -d '"\\' || true)"
    [[ -n "$cpu" ]] || cpu="$(uname -m)"
    threads="$(nproc 2>/dev/null || echo 1)"
    goarch="$(go env GOARCH 2>/dev/null || echo unknown)"
    gover="$(go env GOVERSION 2>/dev/null || echo unknown)"
    {
        printf '{\n'
        printf '  "lastUpdate": %s,\n' "$now"
        printf '  "repoUrl": "",\n'
        printf '  "entries": {\n'
        printf '    "Go Benchmark": [\n'
        printf '      {\n'
        printf '        "commit": {"id": "%s", "message": "%s", "timestamp": "%s", "url": ""},\n' \
            "$commit" "$msg" "$cdate"
        printf '        "date": %s,\n' "$now"
        printf '        "tool": "go",\n'
        printf '        "host": {"cpu": "%s", "threads": %s, "gomaxprocs": %s, "goarch": "%s", "go": "%s"},\n' \
            "$cpu" "$threads" "${GOMAXPROCS:-$threads}" "$goarch" "$gover"
        printf '        "benches": [\n'
        awk '
            /^Benchmark/ {
                name = $1; sub(/-[0-9]+$/, "", name)
                for (i = 3; i <= NF; i++) {
                    u = $i
                    if (u == "ns/op" || u == "MB/s" || u == "allocs/op" || u == "allocs/storage-op" ||
                        u == "allocs/read-op" || u == "cache-hit-rate") {
                        key = name "|" u
                        if (!(key in cnt)) order[++n] = key
                        v = $(i-1) + 0
                        if (v < 1e-9) v = 1e-9
                        lsum[key] += log(v); cnt[key]++
                    }
                }
            }
            END {
                for (k = 1; k <= n; k++) {
                    key = order[k]; split(key, p, "|")
                    v = exp(lsum[key] / cnt[key])
                    if (v < 1e-6) v = 0
                    nm = p[1]
                    if (p[2] != "ns/op") nm = nm " - " p[2]
                    printf "          {\"name\": \"%s\", \"value\": %g, \"unit\": \"%s\", \"extra\": \"geomean of %d\"},\n", \
                        nm, v, p[2], cnt[key]
                }
            }' "$raw"
        printf '          {"name": "ratio: DataPlaneWallClock serial/parallel", "value": %s, "unit": "x", "extra": "geomean ns/op ratio"},\n' \
            "$(ratio "$raw" BenchmarkDataPlaneWallClock/serial BenchmarkDataPlaneWallClock/parallel)"
        printf '          {"name": "ratio: ServeWallClock shards1/shards4", "value": %s, "unit": "x", "extra": "geomean ns/op ratio"},\n' \
            "$(ratio "$raw" BenchmarkServeWallClock/shards1 BenchmarkServeWallClock/shards4)"
        printf '          {"name": "ratio: ClusterWallClock nodes3r2/nodes1", "value": %s, "unit": "x", "extra": "geomean ns/op ratio (replication overhead)"},\n' \
            "$(ratio "$raw" 'BenchmarkClusterWallClock/nodes3r2(-[0-9]+)?$' BenchmarkClusterWallClock/nodes1)"
        printf '          {"name": "ratio: ReadPathWallClock serial/parallel", "value": %s, "unit": "x", "extra": "geomean ns/op ratio (boot-storm decode fan-out)"},\n' \
            "$(ratio "$raw" BenchmarkReadPathWallClock/serial BenchmarkReadPathWallClock/parallel)"
        printf '          {"name": "ratio: SubDecode4K serial/indexed", "value": %s, "unit": "x", "extra": "geomean ns/op ratio (two-pass decode overhead on one goroutine)"},\n' \
            "$(ratio "$raw" BenchmarkSubDecode4K/serial BenchmarkSubDecode4K/indexed)"
        printf '          {"name": "ratio: GearCDC ref/fast", "value": %s, "unit": "x", "extra": "geomean ns/op ratio over all corpora"}\n' \
            "$(ratio "$raw" BenchmarkGearCDCRef/ BenchmarkGearCDC/)"
        printf '        ]\n'
        printf '      }\n'
        printf '    ]\n'
        printf '  }\n'
        printf '}\n'
    } >"$out"
    echo "wrote benchmark trajectory point to $out"
}

if [[ "${1:-}" == "--record" ]]; then
    RAW="$(mktemp)"
    trap 'rm -f "$RAW"' EXIT
    run_bench | tee "$RAW"
    {
        echo "# bench_baseline.txt — recorded by scripts/bench-compare.sh --record"
        echo "# host: $(uname -m), $(nproc) hardware thread(s); $(date -u +%F)"
        echo "# ns/op geomean ratios at record time (>1.00 means the second case is faster):"
        echo "#   DataPlaneWallClock serial/parallel = $(ratio "$RAW" BenchmarkDataPlaneWallClock/serial BenchmarkDataPlaneWallClock/parallel)"
        echo "#   ServeWallClock shards1/shards4     = $(ratio "$RAW" BenchmarkServeWallClock/shards1 BenchmarkServeWallClock/shards4)"
        echo "#   ClusterWallClock nodes3r2/nodes1   = $(ratio "$RAW" 'BenchmarkClusterWallClock/nodes3r2(-[0-9]+)?$' BenchmarkClusterWallClock/nodes1)"
        echo "#   ReadPathWallClock serial/parallel  = $(ratio "$RAW" BenchmarkReadPathWallClock/serial BenchmarkReadPathWallClock/parallel)"
        echo "#   SubDecode4K serial/indexed         = $(ratio "$RAW" BenchmarkSubDecode4K/serial BenchmarkSubDecode4K/indexed)"
        echo "#   GearCDC ref/fast (all corpora)     = $(ratio "$RAW" BenchmarkGearCDCRef/ BenchmarkGearCDC/)"
        echo "# Read-path absolute gates at record time (also enforced inside the bench):"
        echo "#   allocs/read-op (cache off)  = $(fgeomean "$RAW" BenchmarkReadPathWallClock/parallel allocs/read-op) (ceiling $READ_ALLOC_CEILING)"
        echo "#   warm-pass cache-hit-rate    = $(fgeomean "$RAW" BenchmarkReadPathWallClock/warm cache-hit-rate) (floor $CACHE_HIT_FLOOR)"
        echo "# On a single-core host the serial/parallel and shards1/shards4 ratios"
        echo "# hover near 1.00: the parallel, sharded, and batch-read-fan-out cases"
        echo "# time-slice one CPU, so only dispatch overhead separates them."
        echo "# Multi-core speedups must be recorded on a multi-core machine."
        cat "$RAW"
    } >"$BASELINE"
    echo "recorded baseline into $BASELINE"
    write_json "$RAW"
    read_path_gates "$RAW"
    exit 0
fi

if [[ ! -f "$BASELINE" ]]; then
    echo "no $BASELINE; run scripts/bench-compare.sh --record first" >&2
    exit 1
fi

CURRENT="$(mktemp)"
trap 'rm -f "$CURRENT"' EXIT
run_bench | tee "$CURRENT"

write_json "$CURRENT"

if command -v benchstat >/dev/null 2>&1; then
    echo
    echo "== benchstat =="
    benchstat "$BASELINE" "$CURRENT"
fi

fail=0
read_path_gates "$CURRENT" || fail=1

echo
echo "== tolerance gate (geomean vs baseline) =="
for bcase in "${CASES[@]}"; do
    for spec in "ns/op:$TIME_TOLERANCE_PCT" "allocs/op:$ALLOC_TOLERANCE_PCT"; do
        unit="${spec%%:*}"
        tol="${spec##*:}"
        # A unit the baseline never recorded (SubDecode4K reports no
        # allocs/op) has nothing to gate; without this the NaN exit of
        # geomean ends the script under set -e. One the baseline has and
        # this run lost is a failure, not a skip.
        # SumBatch returns a fresh slice per call since the zero-alloc
        # BatchHasher went (PR 18): its allocs/op is the batch's, not a leak.
        [[ "$bcase" == BenchmarkSumBatch && "$unit" == allocs/op ]] && continue
        base="$(geomean "$BASELINE" "$bcase" "$unit")" || {
            printf '%-36s %-10s not in baseline, skipped\n' "$bcase" "$unit"
            continue
        }
        cur="$(geomean "$CURRENT" "$bcase" "$unit")" || {
            printf '%-36s %-10s base=%-12s MISSING from this run\n' "$bcase" "$unit" "$base"
            fail=1
            continue
        }
        limit=$(( base + base * tol / 100 ))
        status=ok
        if (( cur > limit )); then
            status="REGRESSION (>${tol}% over baseline)"
            fail=1
        fi
        printf '%-36s %-10s base=%-12s current=%-12s %s\n' \
            "$bcase" "$unit" "$base" "$cur" "$status"
    done
done
exit "$fail"
