#!/usr/bin/env bash
# Non-test Go lines per package at two commits, as a markdown table: the
# ROADMAP's "line count is a tracked number" made visible on every PR.
# Computed from git objects alone (no checkout, no stored budget file);
# the benchmark module is excluded, matching
#   find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l
#
# usage: scripts/loc-by-package.sh [base [head]]   (default: HEAD~1 HEAD)
set -euo pipefail
base="${1:-HEAD~1}"
head="${2:-HEAD}"

# lines <commit>: "<package dir> <lines>" per package, then "TOTAL <lines>".
lines() {
    git grep -c '' "$1" -- '*.go' ':!*_test.go' ':!benchmark/' |
        awk -F: '{ pkg = "."; if (match($2, /\/[^\/]*$/)) pkg = substr($2, 1, RSTART - 1)
                   n[pkg] += $3; total += $3 }
                 END { for (p in n) print p, n[p]; print "TOTAL", total }'
}

echo "| package | $(git rev-parse --short "$base") | $(git rev-parse --short "$head") | delta |"
echo "|---|---:|---:|---:|"
join -a1 -a2 -e0 -o 0,1.2,2.2 <(lines "$base" | sort) <(lines "$head" | sort) |
    awk '{ row = sprintf("| %s | %d | %d | %+d |", $1, $2, $3, $3 - $2)
           if ($1 == "TOTAL") total = row; else print row }
         END { print total }'
