#!/usr/bin/env bash
# Library surface scan: count the `pub` items no other crate names.
#
# Rule. An item is a line of a library crate's `src/` (every crate
# under crates/ but splatt-bench, which is a harness, not a library)
# that declares `pub fn|struct|enum|const|trait|type|static NAME`,
# methods and associated items included; `pub(crate)`, `pub(super)`
# and `pub mod`/`pub use` are not items. The item is *named outside*
# when the word NAME occurs in any `.rs` file of the repository that is
# not under that crate's directory (the root package, tests/, examples/,
# bench/, other crates). The scan is word-level: it cannot tell two
# items of the same name apart, so it undercounts and never overcounts.
#
# Every item named in no other crate is printed as `crate: NAME`, then
# the count. With a number argument the script exits 1 when the count
# is above it — CI passes the count the tree holds today, so a new
# `pub` item that only its own crate uses fails the build: narrow it to
# `pub(crate)` (or delete it) instead. There is no allowlist: an item
# that must stay `pub` although no other crate names it (a type in a
# public signature) is part of the count.
#
# Usage: .github/pub-scan.sh [MAX]
set -euo pipefail
cd "$(dirname "$0")/.."

max="${1:-}"
all_rs=$(find . -name '*.rs' -not -path '*/target/*' -not -path './.git/*' | sort)
count=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    [ "$crate" = splatt-bench ] && continue
    others=$(grep -v "^\./crates/$crate/" <<<"$all_rs")
    while IFS=: read -r file line name; do
        # shellcheck disable=SC2086
        if ! grep -qw -- "$name" $others; then
            echo "$file:$line: $name"
            count=$((count + 1))
        fi
    done < <(grep -rnoE '^\s*pub\s+((const|unsafe|async|extern\s+"C")\s+)*(fn|struct|enum|const|trait|type|static)\s+(mut\s+)?[A-Za-z_][A-Za-z0-9_]*' "${dir}src" \
        | sed -E 's/^([^:]*):([0-9]+):.*[[:space:]]([A-Za-z_][A-Za-z0-9_]*)$/\1:\2:\3/' | sort -t: -k1,1 -k2,2n)
done
echo "pub items named in no other crate: $count"
if [ -n "$max" ] && [ "$count" -gt "$max" ]; then
    echo "error: $count > $max — narrow the new items to pub(crate) or delete them" >&2
    exit 1
fi
