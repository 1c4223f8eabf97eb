#!/usr/bin/env bash
# Runs a set of timed runs for the comparison command: for every seed
# FIRST..FIRST+COUNT-1, one run of every workload, each run's output saved
# as DIR/<workload>_<seed>.out. Run from the repository root:
#
#   bash simbench/runset.sh DIR [FIRST [COUNT [WORKLOAD...]]]
#   bash simbench/run.sh compare DIR            # spread of one set
#   bash simbench/run.sh compare DIR_A DIR_B    # verdicts of B against A
#
# To compare two versions, alternate them seed by seed (COUNT 1), so that
# drift in the machine's speed falls on both sets alike:
#
#   for s in $(seq 1 10); do
#     (cd A && bash simbench/runset.sh "$sets/A" "$s" 1)
#     (cd B && bash simbench/runset.sh "$sets/B" "$s" 1)
#   done
set -euo pipefail

dir=${1:?usage: runset.sh DIR [FIRST [COUNT [WORKLOAD...]]]}
first=${2:-1}
count=${3:-10}
shift $(( $# < 3 ? $# : 3 ))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	workloads=(age-full replay-luns daemon-fork)
fi
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)

mkdir -p "$dir"
# Seed-major: every workload runs once per seed before the next seed, so a
# slow stretch of the machine widens each workload's spread instead of
# shifting one workload's whole set.
for ((seed = first; seed < first + count; seed++)); do
	for wl in "${workloads[@]}"; do
		bash "$(dirname "$0")/run.sh" --workload "$wl" --seed "$seed" --seconds "$seconds" --trace 0 \
			>"$dir/${wl}_${seed}.out" 2>"$dir/${wl}_${seed}.err"
		tail -n 1 "$dir/${wl}_${seed}.out"
	done
done
