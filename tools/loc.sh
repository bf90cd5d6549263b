#!/bin/sh
# The aim-2 ledger: non-test lines (those before a file's first `#[cfg(test)]`)
# of every crates/*/src/**/*.rs, with a total per crate and one for all crates
# together, then the lines of the query pack's .ncql texts. Run from the repo
# root.
# (No xargs: under `| head` it reports awk's SIGPIPE death on stderr.)
awk '
  FNR == 1 { counting = 1 }
  /^#\[cfg\(test\)\]/ { counting = 0 }
  counting { file[FILENAME]++; split(FILENAME, part, "/"); crate[part[2]]++; all++ }
  END {
    sort = "LC_ALL=C sort"
    for (f in file) printf "%-44s %6d\n", f, file[f] | sort
    for (c in crate) printf "%-44s %6d\n", "crates/" c " (total)", crate[c] | sort
    close(sort)
    printf "%-44s %6d\n", "all crates (total)", all
  }' $(find crates/*/src -name '*.rs')
# The query pack is code too: its NCQL texts, counted apart.
printf '%-44s %6d\n' "crates/queries/pack (.ncql)" "$(cat $(find crates/queries/pack -name '*.ncql') | wc -l)"
