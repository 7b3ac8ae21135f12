#!/usr/bin/env bash
# Non-comment, non-blank lines of Rust per crate under crates/*/src: the
# "Smaller" count ROADMAP.md tracks. A line counts unless it is blank or
# starts, after its indentation, with `//` — so comments and doc comments
# are out, and everything else (inline `#[cfg(test)]` modules and the
# bench binaries under src/bin included) is in.
#
#   scripts/sloc.sh    one `<lines>  <crate>` row per crate, then the total
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in crates/*/; do
  crate=$(basename "$dir")
  n=$(find "$dir/src" -name '*.rs' -exec cat {} + | grep -cv -e '^[[:space:]]*$' -e '^[[:space:]]*//' || true)
  printf '%7d  %s\n' "$n" "$crate"
  total=$((total + n))
done
printf '%7d  total\n' "$total"
