#!/bin/sh
# samereport.sh <rev> — the "no observable moves" check: builds rfdet-run at
# <rev> (unpacked with git archive) and at the working tree, and diffs their
# full reports over 18 programs (the 16 Table 1 kernels, server, racey) ×
# runtimes rfdet-ci, rfdet-pf, dthreads, coredet × sizes test, small ×
# threads 2, 4, leaving out the wall time and (host-dependent) lines. A cell
# that differs is run once more on both builds, and the rerun is printed: a
# divergence of the parent alone must not read as the change's. Exits 1 if
# any cell still differs.
set -eu
[ $# -eq 1 ] || { echo "usage: $0 <rev>" >&2; exit 2; }
cd "$(dirname "$0")/.."
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/src"
git archive "$1" | tar -x -C "$work/src"
(cd "$work/src" && go build -o "$work/old" ./cmd/rfdet-run)
go build -o "$work/new" ./cmd/rfdet-run

report() { "$work/$1" -workload "$2" -runtime "$3" -size "$4" -threads "$5" 2>&1 | grep -v 'wall time\|host-dependent' || true; }
same() { report old "$@" >"$work/a"; report new "$@" >"$work/b"; cmp -s "$work/a" "$work/b"; }

cells=0 differ=0
for w in ocean water-ns water-sp fft radix lu-con lu-non linear_regression matrix_multiply \
	pca wordcount string_match blackscholes swaptions dedup ferret server racey; do
	for rt in rfdet-ci rfdet-pf dthreads coredet; do
		for size in test small; do
			for th in 2 4; do
				cells=$((cells + 1))
				same "$w" "$rt" "$size" "$th" && continue
				echo "rerun: $w $rt -size $size -threads $th differed once"
				same "$w" "$rt" "$size" "$th" && continue
				differ=$((differ + 1))
				echo "DIFFERS: $w $rt -size $size -threads $th"
				diff "$work/a" "$work/b" | head -20 || true
			done
		done
	done
done
echo "$cells cells, $differ differ"
[ "$differ" -eq 0 ]
