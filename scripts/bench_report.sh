#!/bin/sh
# Merges the per-area benchmark reports (results/BENCH_*.json) into one
# trajectory file, results/BENCH_trajectory.json: one row per PR (keyed
# by commit), each carrying the headline numbers of every report plus
# the host core count, so numbers measured on different machines are
# never compared silently.  Re-running on the same commit replaces that
# commit's row; rows from earlier PRs are kept, so the file accumulates
# the repo's performance trajectory over the PR stack.
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
TITLE="$(git log -1 --pretty=%s 2>/dev/null || echo unknown)"
CORES="$(nproc 2>/dev/null || echo 1)"

row="$(jq -n --arg commit "$COMMIT" --arg title "$TITLE" \
          --argjson cores "$CORES" \
          '{commit: $commit, title: $title, host_cores: $cores,
            reports: {}}')"

# Headline metrics per report: every top-level "speedup", plus the sim
# report's per-tier ratios and lanes-vs-per-rep repetition ratios.
for f in results/BENCH_*.json; do
    [ -f "$f" ] || continue
    base="$(basename "$f")"
    [ "$base" = "BENCH_trajectory.json" ] && continue
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
