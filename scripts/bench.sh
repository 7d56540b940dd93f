#!/usr/bin/env bash
# bench.sh — the two things a PR does with the repository benchmark
# (benchmark/, BENCHMARK.json) beyond running it. No environment variables
# and no flags of its own: what follows the arguments named here goes to
# benchmark/run.sh unchanged (-seconds, -seed).
#
#   scripts/bench.sh point <n> [benchmark flags]
#       Run the untraced and the traced suite and keep their result files,
#       verbatim, as BENCH_<n>.json and BENCH_<n>.traced.json. An existing
#       point is never overwritten. When the tree differs from HEAD the
#       envelope's commit becomes <HEAD>+<7 hex of sha1(git diff HEAD)>, so
#       a point is never keyed to its parent. Compare two points with
#       `bash benchmark/run.sh -compare BENCH_a.json BENCH_b.json`.
#
#   scripts/bench.sh pairs <other-checkout> [workload...] [benchmark flags]
#       Run each workload (default: all of BENCHMARK.json's) PAIRS times in
#       <other-checkout> (the parent) and in this one (the change), the side
#       that goes first alternating, and judge every end-to-end metric by
#       choosing-metrics §8: a gain needs nine tenths of the pairs and
#       medians further apart than the parent's quartiles; a REGRESSION (or
#       a larger share of failed operations) exits 1.
set -euo pipefail
cd "$(dirname "$0")/.."
PAIRS=10

die() { echo "bench.sh: $*" >&2; exit 1; }

point() {
    local n="${1:-}" tmp head commit stamp
    [[ -n "$n" && "$n" != -* ]] || die "usage: bench.sh point <n> [benchmark flags]"
    shift
    for f in "BENCH_$n.json" "BENCH_$n.traced.json"; do
        [[ ! -e "$f" ]] || die "$f exists; a point is never overwritten"
    done
    tmp="$(mktemp -d)"
    trap "rm -rf '$tmp'" EXIT
    bash benchmark/run.sh "$@" -out "$tmp" -trace 0
    bash benchmark/run.sh "$@" -out "$tmp" -trace 1
    ls "$tmp"/result-seed*.json "$tmp"/result-traced-seed*.json >/dev/null # both suites wrote, or stop here
    head="$(git rev-parse --short HEAD)"
    commit="$head"
    git diff --quiet HEAD || commit="$head+$(git diff HEAD | sha1sum | cut -c1-7)"
    stamp="s/\"commit\": \"$head\"/\"commit\": \"$commit\"/"
    sed "$stamp" "$tmp"/result-seed*.json >"BENCH_$n.json"
    sed "$stamp" "$tmp"/result-traced-seed*.json >"BENCH_$n.traced.json"
    echo "wrote BENCH_$n.json and BENCH_$n.traced.json (commit $commit)"
}

# judge <workload> <parent lines> <change lines>: one row per end-to-end
# metric from the runs' closing JSON lines, which are in pair order.
judge() {
    awk -F'"' -v w="$1" '
    function num(line, re,    s) {
        if (!match(line, re "[^,}]*")) return 0
        s = substr(line, RSTART, RLENGTH); sub(/.*:/, "", s); return s + 0
    }
    # quart: quartiles of v[1..n] into q[1..3] by the exclusive method (the
    # rule the driver and -selfcheck apply), and the extremes.
    function quart(v, n, q,    x, i, j, t, k, pos, lo) {
        for (i = 1; i <= n; i++) { t = v[i]; for (j = i - 1; j >= 1 && x[j] > t; j--) x[j + 1] = x[j]; x[j + 1] = t }
        for (k = 1; k <= 3; k++) {
            pos = k * (n + 1) / 4; lo = int(pos); if (lo < 1) lo = 1; if (lo > n - 1) lo = n - 1
            q[k] = x[lo] + (pos - lo) * (x[lo + 1] - x[lo])
        }
        q["min"] = x[1]; q["max"] = x[n]
    }
    FILENAME == ARGV[1] { # BENCHMARK.json: the end-to-end list, one key per line
        if ($2 == "end_to_end") on = 1; else if ($2 == "per_layer") on = 0
        if (on && $2 == "name") name[++m] = $4
        if (on && $2 == "unit") unit[m] = $4
        if (on && $2 == "better") sign[m] = ($4 == "higher") ? 1 : -1
        if (on && $2 == "bound") { sub(/[^0-9.]*/, "", $3); bound[m] = $3 + 0 }
        next
    }
    {
        side = (FILENAME == ARGV[2]) ? "p" : "c"; line[side, ++runs[side]] = $0
        failed[side] += num($0, "\"failed\":"); tried[side] += num($0, "\"attempted\":")
    }
    END {
        n = runs["p"]
        printf "== %s: %d pairs; failed ops: parent %d of %d, change %d of %d\n", w, n, failed["p"], tried["p"], failed["c"], tried["c"]
        if (failed["c"] * tried["p"] > failed["p"] * tried["c"]) bad++
        printf "%-22s %-5s %-30s %-30s %-8s %8s %6s %6s  %s\n", "metric", "unit", "parent q1 / median / q3",
            "change q1 / median / q3", "won-lost", "med.chg", "bound", "p.iqr", "verdict"
        for (k = 1; k <= m; k++) {
            wins = losses = 0; re = "\"" name[k] "\":\\{\"value\":"
            for (i = 1; i <= n; i++) {
                p[i] = num(line["p", i], re); c[i] = num(line["c", i], re)
                d = sign[k] * (c[i] - p[i]); if (d > 0) wins++; else if (d < 0) losses++
            }
            quart(p, n, qp); quart(c, n, qc)
            base = (qp[2] < 0) ? -qp[2] : qp[2]; if (base == 0) base = 1e-300
            iqr = qp[3] - qp[1]; better = sign[k] * (qc[2] - qp[2]); allowed = bound[k] * base
            apart = (sign[k] > 0) ? qc["min"] > qp["max"] : qc["max"] < qp["min"]
            if (wins >= 0.9 * n && better > iqr) verdict = "gain"
            else if (-better > allowed && -better > iqr) { verdict = "REGRESSION"; bad++ }
            else if (-better <= allowed && (iqr <= allowed || apart)) verdict = "no regression"
            else verdict = "unresolved"
            printf "%-22s %-5s %-30s %-30s %4d-%-3d %+7.1f%% %5.0f%% %5.1f%%  %s\n", name[k], unit[k],
                sprintf("%.5g / %.5g / %.5g", qp[1], qp[2], qp[3]), sprintf("%.5g / %.5g / %.5g", qc[1], qc[2], qc[3]),
                wins, losses, 100 * (qc[2] - qp[2]) / base, 100 * bound[k], 100 * iqr / base, verdict
        }
        exit bad > 0
    }' BENCHMARK.json "$2" "$3"
}

pairs() {
    local tmp w i side order status=0 workloads=()
    [[ -d "${1:-}/benchmark" ]] || die "usage: bench.sh pairs <other-checkout> [workload...] [benchmark flags]"
    local -A checkout=([parent]="$(cd "$1" && pwd)" [change]=.)
    shift
    while [[ $# -gt 0 && "$1" != -* ]]; do workloads+=("$1"); shift; done
    [[ ${#workloads[@]} -gt 0 ]] ||
        mapfile -t workloads < <(awk -F'"' '$2 == "end_to_end" { exit } $2 == "name" { print $4 }' BENCHMARK.json)
    tmp="$(mktemp -d)"
    trap "rm -rf '$tmp'" EXIT
    for w in "${workloads[@]}"; do
        for ((i = 0; i < PAIRS; i++)); do
            order=(parent change)
            ((i % 2 == 0)) || order=(change parent)
            for side in "${order[@]}"; do
                echo "$w: pair $((i + 1)) of $PAIRS, $side" >&2
                bash "${checkout[$side]}/benchmark/run.sh" "$@" -workload "$w" -trace 0 | tail -n 1 >>"$tmp/$w.$side"
            done
        done
        judge "$w" "$tmp/$w.parent" "$tmp/$w.change" || status=1
    done
    return $status
}

case "${1:-}" in
point | pairs) "$@" ;;
*) die "usage: bench.sh point <n> [benchmark flags] | pairs <other-checkout> [workload...] [benchmark flags]" ;;
esac
