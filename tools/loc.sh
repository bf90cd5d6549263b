#!/bin/sh
# The aim-2 ledger: non-test lines (those before a file's first `#[cfg(test)]`)
# of every crates/*/src/**/*.rs, with a total per crate. Run from the repo root.
find crates/*/src -name '*.rs' | xargs awk '
  FNR == 1 { counting = 1 }
  /^#\[cfg\(test\)\]/ { counting = 0 }
  counting { file[FILENAME]++; split(FILENAME, part, "/"); crate[part[2]]++ }
  END {
    for (f in file) printf "%-44s %6d\n", f, file[f]
    for (c in crate) printf "%-44s %6d\n", "crates/" c " (total)", crate[c]
  }' | LC_ALL=C sort
