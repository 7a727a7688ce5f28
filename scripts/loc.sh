#!/usr/bin/env bash
# Non-test Go lines, per package and in total — the number ROADMAP's
# "net-negative" refers to, reproducible by anyone:
#
#   find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l
#
# (bench/ is the frozen benchmark harness, not the system under measure.)
# A package is a directory two levels deep (internal/engine, cmd/mmrun, …),
# matmul, or the root. Run it on two checkouts to compare a change with its
# parent.
set -euo pipefail
cd "$(dirname "$0")/.."

src() { find . -name '*.go' -not -name '*_test.go' -not -path './bench/*'; }

src | while read -r f; do
	pkg=$(echo "${f#./}" | cut -d/ -f1-2)
	[ -d "$pkg" ] || pkg=$(dirname "${f#./}")
	printf '%s %s\n' "$pkg" "$(wc -l < "$f")"
done | awk '{ n[$1] += $2 } END { for (p in n) printf "%7d  %s\n", n[p], p }' | sort -k2

printf '%7d  total\n' "$(src | xargs cat | wc -l)"
