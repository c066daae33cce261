#!/usr/bin/env bash
# identity.sh <rev> — check that this checkout's outputs are byte-identical
# to those of <rev>.
#
# <rev>'s committed files are exported with `git archive` (the worktree
# list is left alone) into .bench_build/identity/<sha>/src. dredbox-report
# and dredbox-rack are built there and from this checkout. Then both
# revisions run the full report at -parallel 1 and 8, every invocation of
# the CI determinism steps (text and -artifacts alike) and the
# dredbox-rack tours (the single-rack one and the CI's pod and row
# tours). Each output is compared with cmp, each artifact directory with
# diff -r. The script exits 1 on the first difference and 0 when every
# output matches.
#
# Not wired into CI: a change may alter outputs on purpose. Run it as
# `make identity PARENT=<rev>` before claiming a change is output-neutral.
set -euo pipefail

rev=${1:?usage: scripts/identity.sh <rev>}
root=$(git rev-parse --show-toplevel)
sha=$(git -C "$root" rev-parse --verify "$rev^{commit}")
base="$root/.bench_build/identity"
parent="$base/${sha:0:12}"
head="$base/head"

if [ ! -f "$parent/src/go.mod" ]; then
	rm -rf "$parent/src"
	mkdir -p "$parent/src"
	git -C "$root" archive --format=tar "$sha" | tar -x -C "$parent/src"
fi
for side in "$parent" "$head"; do
	rm -rf "$side/out"
	mkdir -p "$side/out" "$side/bin"
done
(cd "$parent/src" && go build -o "$parent/bin/" ./cmd/dredbox-report ./cmd/dredbox-rack)
(cd "$root" && go build -o "$head/bin/" ./cmd/dredbox-report ./cmd/dredbox-rack)

n=0
# check <art> <binary> <args...>: run one invocation at both revisions
# and compare stdout (dredbox-rack) or the -o text plus, when art is 1,
# the -artifacts directory. Wall-clock timing goes to stderr, which is
# not compared.
check() {
	local art=$1 bin=$2
	shift 2
	n=$((n + 1))
	local side out
	for side in "$parent" "$head"; do
		out="$side/out/$n"
		local extra=()
		if [ "$art" = 1 ]; then
			extra=(-artifacts "$out.d")
		fi
		if [ "$bin" = dredbox-rack ]; then
			"$side/bin/$bin" "$@" >"$out.txt" 2>/dev/null ||
				{ echo "identity: $bin $* exited $? in $side" >&2; exit 1; }
		else
			"$side/bin/$bin" "$@" "${extra[@]}" -o "$out.txt" 2>/dev/null ||
				{ echo "identity: $bin $* exited $? in $side" >&2; exit 1; }
		fi
	done
	if ! cmp "$parent/out/$n.txt" "$head/out/$n.txt"; then
		echo "identity: FAIL: $bin $* (text differs)" >&2
		exit 1
	fi
	if [ "$art" = 1 ] && ! diff -r "$parent/out/$n.d" "$head/out/$n.d"; then
		echo "identity: FAIL: $bin $* (artifacts differ)" >&2
		exit 1
	fi
	echo "ok  $bin $*"
}

R=dredbox-report
for par in 1 8; do
	check 0 $R -parallel=$par
	check 1 $R -racks 4 -only pod -parallel=$par
	check 1 $R -racks 4 -only rebalance -parallel=$par
	for racks in 2 4; do
		check 1 $R -racks $racks -only fig10pod -parallel=$par
	done
	for pods in 2 4; do
		check 1 $R -pods $pods -racks 2 -only fig10row -parallel=$par
		check 1 $R -pods $pods -racks 2 -only fig10row -batch -parallel=$par
	done
	check 1 $R -racks 4 -only fig10pod -batch -parallel=$par
	check 1 $R -racks 4 -only churn -batch -parallel=$par
	check 1 $R -racks 4 -only churn -pipeline 16 -parallel=$par
done
for pods in 2 4; do
	check 0 $R -pods $pods -racks 2 -only fig10row -batch -batchsize 1
done
check 0 $R -racks 4 -only fig10pod -batch -batchsize 1
check 1 $R -racks 4 -only churn -batch -batchsize 1
check 1 $R -racks 4 -only churn
check 1 $R -racks 4 -only fig10pod -pipeline 2 -parallel=8
check 1 $R -pods 2 -racks 2 -only fig10row -pipeline 2 -parallel=8

K=dredbox-rack
check 0 $K
check 0 $K -racks 4 -burst 6 -drain
check 0 $K -racks 4 -burst 6 -drain -workers 4 -pipeline 3
check 0 $K -pods 3 -racks 2 -burst 6 -drain
check 0 $K -pods 3 -racks 2 -burst 6 -drain -workers 4 -pipeline 3

echo "identity: all $n outputs byte-identical to ${sha:0:12}"
