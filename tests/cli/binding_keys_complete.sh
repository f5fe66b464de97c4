#!/bin/sh
# The keys `fairswap_run list` prints as bindable must be exactly the
# given KEYs, in any order: a key missing from either side fails.
#
#   binding_keys_complete.sh FAIRSWAP_RUN KEY...
set -u

run=$1
shift
# One key per line from the list, joined into one line of words.
listed=$("$run" list | sed -n '/^bindable parameters/,$ s/^  \([^ ]*\) - .*/\1/p' |
         tr '\n' ' ')
[ -n "$listed" ] || { echo "FAIL: '$run list' printed no bindable key"; exit 1; }
expected="$*"

# $listed and $expected are split on purpose: one key per word.
failures=0
for key in $listed; do
  case " $expected " in
    *" $key "*) ;;
    *) echo "FAIL: '$key' is bindable but not in the expected list"
       failures=$((failures + 1)) ;;
  esac
done
for key in $expected; do
  case " $listed " in
    *" $key "*) ;;
    *) echo "FAIL: '$key' is expected but not bindable"
       failures=$((failures + 1)) ;;
  esac
done
echo "$(echo $listed | wc -w) bindable keys, $failures mismatches"
[ "$failures" -eq 0 ]
