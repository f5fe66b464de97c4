#!/bin/sh
# Runs paper scenarios at files=40 in an empty directory and compares each
# with the goldens beside this script: its stdout byte for byte with
# <scenario>.txt, and the CSV it writes with that file's line in
# paper.sha256. A golden that moves is a behaviour change.
#
#   check.sh FAIRSWAP_RUN [--update] [SCENARIO...]
#
# With no SCENARIO, every <scenario>.txt here is checked. --update rewrites
# the goldens from FAIRSWAP_RUN instead of comparing; say in CHANGES.md
# which golden moved and why.
set -u

run=$1
shift
case $run in /*) ;; *) run=$(pwd)/$run ;; esac
update=0
if [ "${1:-}" = --update ]; then
  update=1
  shift
fi
here=$(cd "$(dirname "$0")" && pwd)
[ $# -gt 0 ] || set -- $(cd "$here" && ls ./*.txt | sed 's|^\./||; s|\.txt$||')

work=$(mktemp -d) || exit 1
trap 'rm -rf "$work"' EXIT

failures=0
fail() {
  echo "FAIL: $scenario: $1"
  failures=$((failures + 1))
}

for scenario in "$@"; do
  extra=
  [ "$scenario" = variance ] && extra=seeds=2
  dir=$work/$scenario
  mkdir "$dir" || exit 1
  # $extra is split on purpose: it holds whole arguments.
  # shellcheck disable=SC2086
  (cd "$dir" && "$run" "$scenario" files=40 out=golden_out $extra \
     > stdout.txt)
  rc=$?
  if [ "$rc" -ne 0 ]; then
    fail "exit $rc"
    cat "$dir/stdout.txt"
    continue
  fi
  csvs=$(cd "$dir/golden_out" 2>/dev/null && ls)
  [ -n "$csvs" ] || fail "wrote no CSV to out="

  if [ "$update" -eq 1 ]; then
    cp "$dir/stdout.txt" "$here/$scenario.txt"
    for csv in $csvs; do
      grep -v "  $csv\$" "$here/paper.sha256" > "$work/sums"
      (cd "$dir/golden_out" && sha256sum "$csv") >> "$work/sums"
      sort -k 2 "$work/sums" > "$here/paper.sha256"
    done
    echo "updated $scenario"
    continue
  fi

  if ! cmp -s "$here/$scenario.txt" "$dir/stdout.txt"; then
    fail "stdout differs from $scenario.txt"
    diff "$here/$scenario.txt" "$dir/stdout.txt"
  fi
  for csv in $csvs; do
    sum=$(grep "  $csv\$" "$here/paper.sha256")
    if [ -z "$sum" ]; then
      fail "$csv has no line in paper.sha256"
    elif ! (cd "$dir/golden_out" && echo "$sum" | sha256sum -c --quiet -); then
      fail "$csv differs from its hash in paper.sha256"
    fi
  done
done

[ "$update" -eq 1 ] || echo "$# scenarios, $failures failures"
[ "$failures" -eq 0 ]
