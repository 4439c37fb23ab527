#!/usr/bin/env bash
# Campaign-resume smoke for CI: plan a durable campaign, kill it mid-run,
# resume it, and verify the merged figure aggregates are byte-identical to
# an uninterrupted run — then the same for a 2-way shard split. This
# drives the store/watchdog engine end to end through the real binaries,
# complementing the in-process differential tests in internal/harness.
set -euo pipefail
cd "$(dirname "$0")/.."

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
go build -o "$work/hauberk-run" ./cmd/hauberk-run
go build -o "$work/hauberk-report" ./cmd/hauberk-report

# Uninterrupted reference run.
"$work/hauberk-run" -program CP -campaign-dir "$work/ref" >/dev/null
"$work/hauberk-report" -campaign "$work/ref" >"$work/ref.txt"

# Kill mid-run: -campaign-abort-after interrupts through the same
# cancellation path as SIGINT/SIGTERM; exit 7 means "resumable".
status=0
"$work/hauberk-run" -program CP -campaign-dir "$work/resumed" \
  -workers 1 -campaign-abort-after 10 >/dev/null 2>&1 || status=$?
if [ "$status" -ne 7 ]; then
  echo "campaign smoke: interrupted run exited $status, want 7 (resumable)" >&2
  exit 1
fi

# A re-launch without -resume must refuse the half-filled store.
if "$work/hauberk-run" -program CP -campaign-dir "$work/resumed" >/dev/null 2>&1; then
  echo "campaign smoke: re-launch without -resume was accepted" >&2
  exit 1
fi

# Resume and compare against the uninterrupted reference.
"$work/hauberk-run" -program CP -campaign-dir "$work/resumed" -resume >/dev/null
"$work/hauberk-report" -campaign "$work/resumed" >"$work/resumed.txt"
diff "$work/ref.txt" "$work/resumed.txt"

# Tree-engine leg: the same campaign through the tree-walking oracle must
# produce byte-identical figure aggregates.
"$work/hauberk-run" -program CP -campaign-dir "$work/tree" -engine tree >/dev/null
"$work/hauberk-report" -campaign "$work/tree" >"$work/tree.txt"
diff "$work/ref.txt" "$work/tree.txt"

# Shard the same campaign 2 ways and merge.
"$work/hauberk-run" -program CP -campaign-dir "$work/sharded" -shard 0/2 >/dev/null
"$work/hauberk-run" -program CP -campaign-dir "$work/sharded" -shard 1/2 >/dev/null
"$work/hauberk-report" -campaign "$work/sharded" >"$work/sharded.txt"
diff "$work/ref.txt" "$work/sharded.txt"

echo "campaign smoke: resume, tree-engine and shard-merge reports are byte-identical to the uninterrupted run"
