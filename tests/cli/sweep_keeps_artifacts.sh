#!/bin/sh
# A sweep rejected for a bad argument exits 2 and leaves the previous
# run's sweep.csv and RUN_sweep.json byte for byte.
#
#   sweep_keeps_artifacts.sh FAIRSWAP_RUN DIR
set -u

run=$1
dir=$2
mkdir -p "$dir" || exit 1
printf 'previous csv\n' > "$dir/sweep.csv"
printf '{"previous": "json"}\n' > "$dir/RUN_sweep.json"
cp "$dir/sweep.csv" "$dir/sweep.csv.before"
cp "$dir/RUN_sweep.json" "$dir/RUN_sweep.json.before"

failures=0
for arg in 'files=5, -1' 'files=+3' 'seeds=-1' 'seeds=0'; do
  "$run" sweep nodes=100 "$arg" "out=$dir" > "$dir/log" 2>&1
  rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: sweep '$arg' -> exit $rc"
    failures=$((failures + 1))
  fi
  if ! cmp -s "$dir/sweep.csv" "$dir/sweep.csv.before" ||
     ! cmp -s "$dir/RUN_sweep.json" "$dir/RUN_sweep.json.before"; then
    echo "FAIL: sweep '$arg' rewrote the previous artifacts"
    failures=$((failures + 1))
  fi
done
[ "$failures" -eq 0 ]
