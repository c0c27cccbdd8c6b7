#!/usr/bin/env bash
# Docs link check: fail on relative markdown links that point at files
# which do not exist. Scans README.md and docs/*.md, ignoring fenced code
# blocks (``` ... ```) and inline code spans, and every *.md name that a
# source file under src/ or bench/ cites (comments and printed banners),
# resolved from the repository root. External links (http/https/mailto)
# are out of scope — CI must not depend on the network.
set -euo pipefail

cd "$(dirname "$0")/.."

fail=0

for md in README.md docs/*.md; do
  [ -e "$md" ] || continue
  dir="$(dirname "$md")"
  # Strip fenced code blocks and inline code spans, then pull out inline
  # link targets: [text](target).
  targets=$(awk '/^[[:space:]]*```/ { fence = !fence; next } !fence' "$md" |
            sed 's/`[^`]*`//g' |
            grep -oE '\]\([^)]+\)' | sed -e 's/^](//' -e 's/)$//' || true)
  while IFS= read -r target; do
    [ -z "$target" ] && continue
    case "$target" in
      http://*|https://*|mailto:*) continue ;;
      *" "*) continue ;;    # not a path (prose caught by the regex)
    esac
    path="${target%%#*}"    # strip an anchor, keep the file part
    [ -z "$path" ] && continue  # pure in-page anchor: nothing to stat
    if [ ! -e "$dir/$path" ]; then
      echo "dead link in $md: ($target) -> missing $dir/$path" >&2
      fail=1
    fi
  done <<< "$targets"
done

# Source citations: "see docs/ARCHITECTURE.md §4" must name a real file.
refs=$(grep -rnoE '[A-Za-z0-9_./-]+\.md\b' src bench \
         --include='*.hpp' --include='*.cpp' || true)
while IFS= read -r ref; do
  [ -z "$ref" ] && continue
  name="${ref##*:}"         # file:line:name -> name
  if [ ! -e "$name" ]; then
    echo "dead doc reference in ${ref%:*}: $name" >&2
    fail=1
  fi
done <<< "$refs"

if [ "$fail" -ne 0 ]; then
  echo "docs link check FAILED" >&2
  exit 1
fi
echo "docs link check OK"
