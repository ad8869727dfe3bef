#!/usr/bin/env bash
# Metric-name doc check, both directions:
#   * every metric registered under a complete string literal anywhere in
#     src/ — counter("..."), gauge("..."), histogram("...") — must appear by
#     name in docs/OBSERVABILITY.md. Dynamically composed names (prefix +
#     origin / type-key concatenations) are intentionally out of scope: they
#     never form a complete literal call, and the catalog documents their
#     patterns (`probe.send_to_stable.<key>`, …) instead;
#   * every catalog row of the form | `name` | counter|gauge|histogram |
#     must name a metric that some string literal in src/ still contains
#     (rows whose name holds a `<` are patterns and are skipped).
# Exits nonzero listing undocumented metrics and stale rows.
#
# Usage: scripts/check_metrics_docs.sh
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"

DOC="docs/OBSERVABILITY.md"
[[ -f "$DOC" ]] || { echo "MISSING: $DOC"; exit 1; }

FAIL=0
COUNT=0
while IFS= read -r name; do
  COUNT=$((COUNT + 1))
  if ! grep -qF "$name" "$DOC"; then
    echo "UNDOCUMENTED METRIC: $name (registered in src/, absent from $DOC)"
    FAIL=1
  fi
done < <(grep -rhoE '(counter|gauge|histogram)\("[^"]+"\)' src/ \
           | sed -E 's/^(counter|gauge|histogram)\("//; s/"\)$//' \
           | sort -u)

LITERALS="$(grep -rhoE '"[^"]*"' src/ | sort -u)"
ROWS=0
while IFS= read -r name; do
  ROWS=$((ROWS + 1))
  if ! grep -qF -- "$name" <<<"$LITERALS"; then
    echo "STALE METRIC ROW: $name (in $DOC, no string literal in src/ contains it)"
    FAIL=1
  fi
done < <(sed -nE 's/^\| `([^`<]+)` \| (counter|gauge|histogram) \|.*/\1/p' "$DOC")

if [[ "$COUNT" == 0 || "$ROWS" == 0 ]]; then
  echo "metric extraction found nothing — check the patterns"
  exit 1
fi
if [[ "$FAIL" != 0 ]]; then
  echo "metrics doc check FAILED"
  exit 1
fi
echo "metrics doc check OK ($COUNT metric names, $ROWS catalog rows)"
