#!/usr/bin/env bash
# Output identity of the command-line tools against a base ref:
#
#   ci/outputs.sh <base-ref>
#
# Builds egoist-sim and egoist-bench from `git archive <base-ref>` and
# from the working tree, runs both builds on the same inputs and prints
# one row per output: `same` when the bytes match, `differs` when they
# do not. The inputs are six egoist-sim configs (every policy, churn with
# HybridBR, the bandwidth metric with cheaters), `egoist-bench -fig F
# -scale quick` for the figures the full and newcomer engines draw (the
# `computed in` timing line stripped), and the Metrics JSON of the
# working tree's ci/scenarios under both engines. A run that fails
# records its exit status in its output, so it shows as a difference.
# It reports only and always exits 0.
#
# Everything lands under .bench_build/outputs/ (git-ignored): the base
# checkout in base-src/, each side's binaries and outputs in base/ and
# head/.
set -uo pipefail

base_ref="${1:?usage: ci/outputs.sh <base-ref>}"
root="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
out="$root/.bench_build/outputs"
rm -rf "$out"
mkdir -p "$out/base-src" "$out/base" "$out/head"
git -C "$root" archive "$base_ref" | tar -x -C "$out/base-src"
echo "base: $(git -C "$root" rev-parse --short "$base_ref")  head: $(git -C "$root" rev-parse --short HEAD) + working tree"

figs=(1a 1b 2a 2b 5 6 7 8)

side() { # side <name> <checkout>
	local dir="$out/$1"
	for c in egoist-sim egoist-bench; do
		go build -C "$2" -o "$dir/$c" "./cmd/$c" || return 0
	done
	run() { # run <output> <binary> <args...>
		local o="$dir/$1.out"
		shift
		"$dir/$@" >"$o" 2>/dev/null || echo "exit $?" >>"$o"
	}
	run sim-k-random egoist-sim -policy k-Random -workers 2
	run sim-k-closest egoist-sim -policy k-Closest -workers 2
	run sim-k-regular egoist-sim -policy k-Regular
	run sim-hybrid-churn egoist-sim -policy HybridBR -churn 0.5 -epsilon 0.1 -workers 3
	run sim-full-mesh egoist-sim -policy "Full mesh" -n 20
	run sim-bandwidth-cheat egoist-sim -metric bandwidth -cheaters 3 -workers 2
	for f in "${figs[@]}"; do
		run "fig-$f" egoist-bench -fig "$f" -scale quick
		grep -v 'computed in' "$dir/fig-$f.out" >"$dir/fig-$f.tmp"
		mv "$dir/fig-$f.tmp" "$dir/fig-$f.out"
	done
	run scenarios egoist-bench -scenarios "$root/ci/scenarios" -engines scale,full \
		-workers 2 -scenarios-json "$dir/scenarios.json"
}
side base "$out/base-src"
side head "$root"

row() { # row <output>
	if cmp -s "$out/base/$1" "$out/head/$1"; then
		printf '%-8s %s\n' same "$1"
	else
		printf '%-8s %s\n' differs "$1"
	fi
}
for o in sim-k-random sim-k-closest sim-k-regular sim-hybrid-churn sim-full-mesh sim-bandwidth-cheat; do
	row "$o.out"
done
for f in "${figs[@]}"; do
	row "fig-$f.out"
done
row scenarios.json
exit 0
