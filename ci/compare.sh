#!/usr/bin/env bash
# The repository's one performance gate, as CI and a developer run it:
#
#   ci/compare.sh <base-ref> [pairs]
#
# Runs the benchmark (BENCHMARK.json, benchmark/) on <base-ref> and on
# the working tree in alternating all-workload passes — base, head,
# head, base, ... — with one seed per pair, then hands both sets of
# results.json to `-compare`, whose exit status is the verdict: every
# end-to-end metric of every workload within its BENCHMARK.json bound,
# no larger failed share. Both sides run on this machine within the same
# minutes, so the ratio needs no per-runner baseline. Each side is
# measured by its own copy of benchmark/.
#
# Everything lands under .bench_build/compare/ (git-ignored): the base
# checkout in base-src/, pass i's results in base-i/ and head-i/.
set -euo pipefail

base_ref="${1:?usage: ci/compare.sh <base-ref> [pairs]}"
pairs="${2:-3}"

root="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
out="$root/.bench_build/compare"
rm -rf "$out"
mkdir -p "$out/base-src"
git -C "$root" archive "$base_ref" | tar -x -C "$out/base-src"
echo "base: $(git -C "$root" rev-parse --short "$base_ref")  head: $(git -C "$root" rev-parse --short HEAD) + working tree  pairs: $pairs"

pass() { # pass <side> <checkout> <pair>
	echo "== pair $3: $1 (seed $((100 + $3)))"
	go run -C "$2/benchmark" . -seed "$((100 + $3))" -trace 0 -out "$out/$1-$3"
}

base_set="" head_set=""
for i in $(seq 1 "$pairs"); do
	if ((i % 2)); then
		pass base "$out/base-src" "$i"
		pass head "$root" "$i"
	else
		pass head "$root" "$i"
		pass base "$out/base-src" "$i"
	fi
	base_set+="${base_set:+,}$out/base-$i/results.json"
	head_set+="${head_set:+,}$out/head-$i/results.json"
done

go run -C "$root/benchmark" . -compare "$base_set" "$head_set"
