#!/bin/sh
# Checks that a command rejects its input with a diagnostic: exit
# status 1 and a `fatal:` line on stderr.  An internal panic (abort,
# status 134) fails the check even when its text matches.
#
# Usage: check_fatal.sh <cmd...>
errfile="$(mktemp)"
trap 'rm -f "$errfile"' EXIT

"$@" > /dev/null 2> "$errfile"
status=$?
if [ "$status" -ne 1 ] || ! grep -q "^fatal:" "$errfile"; then
    echo "FAIL: expected exit 1 with a fatal: diagnostic, got" \
         "status $status:" >&2
    cat "$errfile" >&2
    exit 1
fi
echo "OK: $(head -n 1 "$errfile")"
