#!/bin/sh
# Runs one binary with hostile key=value arguments. Every run must exit 2
# with an `error:` message and start no run (print no `running` line).
#
#   hostile_args.sh BINARY [FIXED_ARG...] -- KEY... [-- PATH_KEY...]
#
# Each KEY is tried with -1, nan, inf, 1e999, abc and an empty value.
# Each PATH_KEY takes a file name, which may be any text, so it is tried
# with an empty value only. The first KEY is also tried misspelled. The
# FIXED_ARGs (a mode such as `sweep`, an out= directory) lead every
# command line, so a probe overrides any fixed key it repeats.
#
# threads= and shards= are never probed: a binary that lacked the check
# could start 2^64 - 1 workers. The unit tests of Config::get_u64 cover
# those reads instead.
set -u

bin=$1
shift
fixed=
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
  fixed="$fixed $1"
  shift
done
[ $# -gt 0 ] && shift
keys=
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
  keys="$keys $1"
  shift
done
[ $# -gt 0 ] && shift
path_keys="$*"

failures=0
probes=0
probe() {
  probes=$((probes + 1))
  # $fixed is split on purpose: it holds whole arguments.
  # shellcheck disable=SC2086
  out=$("$bin" $fixed "$1" 2>&1)
  rc=$?
  case $out in
    *running*) why="started a run" ;;
    *error:*) why= ;;
    *) why="printed no error" ;;
  esac
  if [ "$rc" -ne 2 ] || [ -n "$why" ]; then
    echo "FAIL: $bin$fixed '$1' -> exit $rc $why"
    failures=$((failures + 1))
  fi
}

for key in $keys; do
  for value in -1 nan inf 1e999 abc ''; do
    probe "$key=$value"
  done
done
for key in $path_keys; do
  probe "$key="
done
set -- $keys
probe "${1}z=1"

echo "$probes probes, $failures failed"
[ "$failures" -eq 0 ]
