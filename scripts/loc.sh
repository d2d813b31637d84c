#!/usr/bin/env bash
# Non-test line counts for Rust sources: every line of a file before its
# first `#[cfg(test)]` or `#![cfg(test)]` (leading whitespace allowed),
# printed per file, per crate and in total. Files under a `tests/`
# directory are test code through and through and are skipped.
#
#   scripts/loc.sh                      # every crate under crates/
#   scripts/loc.sh crates/noc/src crates/core/src/network.rs
#   scripts/loc.sh --total crates       # just the total
#
# A crate is `crates/<name>` for paths under crates/, else the path's
# first component. Run from anywhere; paths are relative to the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

total_only=0
if [[ "${1:-}" == "--total" ]]; then
  total_only=1
  shift
fi
(($#)) || set -- crates

find "$@" -name '*.rs' -not -path '*/tests/*' -not -path '*/target/*' -print0 |
  LC_ALL=C sort -z |
  xargs -0 -r awk -v total_only="$total_only" '
    FNR == 1 { files[++nf] = FILENAME; in_test = 0 }
    /^[[:space:]]*#!?\[cfg\(test\)\]/ { in_test = 1 }
    !in_test { lines[FILENAME]++ }
    END {
      for (i = 1; i <= nf; i++) {
        f = files[i]
        split(f, part, "/")
        krate = part[1] == "crates" ? part[1] "/" part[2] : part[1]
        if (!(krate in per_crate)) crates[++nc] = krate
        per_crate[krate] += lines[f]
        total += lines[f]
        if (!total_only) printf "%7d %s\n", lines[f], f
      }
      if (!total_only) {
        for (i = 1; i <= nc; i++) printf "%7d %s (crate)\n", per_crate[crates[i]], crates[i]
      }
      printf "%7d total\n", total
    }'
