#!/bin/sh
# Merges the per-area benchmark reports (results/BENCH_*.json) into one
# trajectory file, results/BENCH_trajectory.json: one row per measured
# tree, each carrying the headline numbers of every report plus the
# host's core count and CPU model, so numbers measured on different
# machines are never compared silently.  A row is keyed by the short
# commit hash, suffixed `+dirty.<12 hex>` when the tree has changes not
# yet committed: the hex is a SHA-256 over `git diff HEAD` and the
# untracked file list (the trajectory file itself excluded), so a row
# names the tree it measured, not the commit it started from.
# Re-running on the same tree replaces that tree's row; other rows are
# kept, so the file accumulates the repo's performance trajectory.
#
# Usage: scripts/bench_report.sh
set -e

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"
OUT=results/BENCH_trajectory.json

if ! command -v jq >/dev/null 2>&1; then
    echo "bench_report: jq not found; skipping trajectory merge" >&2
    exit 0
fi

COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [ "$COMMIT" != unknown ] &&
   [ -n "$(git status --porcelain -- . ":(exclude)$OUT")" ]; then
    DIRTY="$( { git diff HEAD -- . ":(exclude)$OUT"
                git ls-files --others --exclude-standard; } |
              sha256sum | cut -c1-12)"
    COMMIT="$COMMIT+dirty.$DIRTY"
fi
TITLE="$(git log -1 --pretty=%s 2>/dev/null || echo unknown)"
CORES="$(nproc 2>/dev/null || echo 1)"
CPU="$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null \
       | head -n 1)"

row="$(jq -n --arg commit "$COMMIT" --arg title "$TITLE" \
          --argjson cores "$CORES" --arg cpu "${CPU:-unknown}" \
          '{commit: $commit, title: $title, host_cores: $cores,
            host_cpu: $cpu, reports: {}}')"

# Headline metrics per report: every top-level "speedup", plus the sim
# report's per-tier ratios and lanes-vs-per-rep repetition ratios.
for f in results/BENCH_campaign.json results/BENCH_pipeline.json \
         results/BENCH_sim.json; do
    [ -f "$f" ] || continue
    base="$(basename "$f")"
    summary="$(jq '{speedup: (.speedup? // null)}
        + (if .interpreter? then {
            perl_fast_vs_reference:
                .interpreter.perl.fast_vs_reference,
            straightline_fast_vs_reference:
                .interpreter.straightline.fast_vs_reference
          } else {} end)
        + (if .noisy_repetition? then {
            noisy_lanes_vs_per_rep:
                (.noisy_repetition | map_values(.lanes_vs_per_rep))
          } else {} end)
        + (if .backends? then {
            backend_fast_vs_reference:
                (.backends | map_values(.fast_vs_reference))
          } else {} end)' "$f")" || continue
    row="$(printf '%s' "$row" |
        jq --arg k "$base" --argjson v "$summary" '.reports[$k] = $v')"
done

if [ -f "$OUT" ]; then
    prior="$(jq '.rows // []' "$OUT")"
else
    prior='[]'
fi
printf '%s' "$prior" | jq --argjson row "$row" --arg commit "$COMMIT" '
    {generated_by: "scripts/bench_report.sh",
     rows: (map(select(.commit != $commit)) + [$row])}' > "$OUT"
echo "bench trajectory: $OUT"
