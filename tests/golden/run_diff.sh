#!/bin/sh
# Golden-output differential check for one figure/table binary.
#
# Usage: run_diff.sh <binary> <golden-dir> [--golden-id ID]
#        [extra args...]
#
# Runs the binary (forwarding any extra args, e.g. --jobs 8), strips
# the volatile accounting lines ([campaign: ...] wall-clock and
# [metrics] latency histograms — everything else is deterministic),
# and byte-compares against the pinned seed transcript.  The golden id
# is the binary name's first underscore-delimited token (fig2, table1,
# ablation); --golden-id overrides it for multi-figure entry points
# (`run_diff.sh mbias ... --golden-id fig2 fig 2`).
set -e

bin="$1"
dir="$2"
shift 2

base="$(basename "$bin")"
id="${base%%_*}"
if [ "${1:-}" = "--golden-id" ]; then
    id="$2"
    shift 2
fi
golden="$dir/$id.txt"
if [ ! -f "$golden" ]; then
    echo "missing golden transcript: $golden" >&2
    exit 1
fi

tmp_out="$(mktemp)"
tmp_ref="$(mktemp)"
trap 'rm -f "$tmp_out" "$tmp_ref"' EXIT

"$bin" "$@" | sed -e '/^\[campaign:/d' -e '/^\[metrics\]/d' > "$tmp_out"
sed -e '/^\[campaign:/d' -e '/^\[metrics\]/d' "$golden" > "$tmp_ref"

if ! diff -u "$tmp_ref" "$tmp_out"; then
    echo "FAIL: $base $* diverges from $golden" >&2
    exit 1
fi
echo "OK: $base $* matches $golden"
