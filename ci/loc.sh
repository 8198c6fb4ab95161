#!/usr/bin/env bash
# Go line counts of the root module, one row per package directory:
# non-test lines (*.go) and test lines (*_test.go), then the totals.
# The benchmark/ module and hidden directories (build output such as
# .bench_build/) are not counted. It reports only and always exits 0.
#
#   ci/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

find . \( -path ./benchmark -o -name '.?*' \) -prune -o -name '*.go' -print0 |
	xargs -0 wc -l |
	awk '$2 != "total" {
		dir = $2
		sub(/\/[^\/]*$/, "", dir)
		sub(/^\.\/?/, "", dir)
		if (dir == "") dir = "."
		if ($2 ~ /_test\.go$/) test[dir] += $1; else code[dir] += $1
		seen[dir] = 1
	}
	END { for (d in seen) printf "%s %d %d\n", d, code[d], test[d] }' |
	sort |
	awk 'BEGIN { printf "%-28s %9s %9s\n", "package", "non-test", "test" }
	{ printf "%-28s %9d %9d\n", $1, $2, $3; code += $2; test += $3 }
	END { printf "%-28s %9d %9d\n", "total", code, test }'
