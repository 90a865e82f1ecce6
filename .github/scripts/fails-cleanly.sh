#!/usr/bin/env bash
# Run `python -m qmux.cli ARG...` from the root of the checkout and check that
# it fails cleanly: exit status 1, a standard-error line that starts with
# "error: ", every TEXT given with -e somewhere in standard error, and no
# Python traceback. Pass the bad file's path with -e wherever a file is at
# fault, so the message is seen to name it.
#
#   bash .github/scripts/fails-cleanly.sh [-e TEXT]... SUBCOMMAND [ARG]...
expected=()
while [ "$1" = "-e" ]; do
  expected+=("$2")
  shift 2
done
err=$(mktemp)
trap 'rm -f "$err"' EXIT
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m qmux.cli "$@" 2> "$err"
status=$?
cat "$err"
fail() {
  echo "fails-cleanly: qmux $1: $2" >&2
  exit 1
}
[ "$status" -eq 1 ] || fail "$1" "exit status $status, not 1"
grep -q '^error: ' "$err" || fail "$1" "no standard-error line starts with 'error: '"
if grep -q Traceback "$err"; then fail "$1" "a traceback"; fi
for text in "${expected[@]}"; do
  grep -qF -- "$text" "$err" || fail "$1" "standard error does not name '$text'"
done
