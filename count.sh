#!/usr/bin/env bash
# What the product is made of, counted one way: non-test lines per crate
# under crates/*/src, and every panic site in the non-test code of the
# product crates (all but `bench`; `vendor/` is not under crates/).
#
# A file's test code is its `#[cfg(test)]` module and everything after it:
# the cut is made where a `#[cfg(test)]` stands on a `mod`, not at the first
# `#[cfg(test)]` (one on a `use` or a helper is product code). Comment lines
# are counted as lines but never as panic sites.
#
# It also lists every non-test `pub fn` of the product crates that no other
# file's non-test code names — the product and bench crates, `src/`, the
# examples, `tests/paper_claims.rs` and the benchmark (`benchmark/src`).
#
#   ./count.sh    prints the table, the sites and the unreached functions;
#                 exits 1 when a site is not in panic_sites.allow (one
#                 `file<TAB>code<TAB>reason` line per allowed site, the code
#                 trimmed as it reads in the file), or when an unreached
#                 function is not in reach.allow (one `file<TAB>name<TAB>reason`
#                 line each) or a reach.allow line names a function that is
#                 reached or gone
set -euo pipefail
cd "$(dirname "$0")"

# The non-test part of a Rust file, one `line-number<TAB>line` per line.
non_test() {
  awk '
    held != "" {
      if ($0 ~ /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]/) exit
      print held; held = ""
    }
    /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { held = NR "\t" $0; next }
    /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]/ { exit }
    { print NR "\t" $0 }
  ' "$1"
}

sites=$(mktemp)
words=$(mktemp)
fns=$(mktemp)
trap 'rm -f "$sites" "$words" "$fns"' EXIT
total=0
printf '%-10s %7s\n' crate lines
for dir in crates/*; do
  crate=$(basename "$dir")
  lines=0
  while IFS= read -r -d '' f; do
    lines=$((lines + $(non_test "$f" | wc -l)))
    if [ "$crate" != bench ]; then
      non_test "$f" | grep -v -P '^\d+\t\s*//' |
        grep -P '\.expect\(|\.unwrap\(\)|unreachable!\(|panic!\(|todo!\(|unimplemented!\(' |
        while IFS=$'\t' read -r n code; do
          printf '%s\t%s\t%s\n' "$f" "$n" "$(sed 's/^[[:space:]]*//' <<<"$code")"
        done >>"$sites" || true
    fi
  done < <(find "$dir/src" -name '*.rs' -print0 | sort -z)
  printf '%-10s %7d\n' "$crate" "$lines"
  total=$((total + lines))
done
printf '%-10s %7d\n' total "$total"

echo
echo "panic sites: $(wc -l <"$sites")"
# Each allow-list line admits one site: a second identical line in the same
# file needs a second entry.
status=0
awk -F'\t' '
  NR == FNR { if ($0 !~ /^#/ && NF >= 3) allowed[$1 FS $2]++; next }
  allowed[$1 FS $3]-- > 0 { printf "  %s:%s  %s\n", $1, $2, $3; next }
  { printf "  %s:%s  %s   <- not in panic_sites.allow\n", $1, $2, $3 > "/dev/stderr"; bad++ }
  END { if (bad) { printf "%d panic site(s) outside panic_sites.allow\n", bad > "/dev/stderr"; exit 1 } }
' panic_sites.allow "$sites" || status=1

# Reach: `file<TAB>word` for each identifier a file's non-test code names,
# and `file<TAB>name` for each `pub fn` a product crate defines. A function
# is reached when a second file names it (its own file always does).
for f in $(find crates/*/src src examples benchmark/src -name '*.rs' | sort) tests/paper_claims.rs; do
  non_test "$f" | cut -f2- | grep -v -P '^\s*//' | grep -oP '\b\w+\b' | sort -u |
    sed "s|^|$f\t|" || true
done >"$words"
for f in $(find crates/*/src -name '*.rs' -not -path 'crates/bench/*' | sort); do
  non_test "$f" | cut -f2- | grep -oP '^\s*pub\s+(const\s+)?(unsafe\s+)?fn\s+\K\w+' | sort -u |
    sed "s|^|$f\t|" || true
done >"$fns"
echo
echo "unreached pub fns: $(awk -F'\t' 'NR == FNR { n[$2]++; next } n[$2] < 2' "$words" "$fns" | wc -l)"
awk -F'\t' '
  FILENAME == ARGV[1] { if ($0 !~ /^#/ && NF >= 3) allowed[$1 FS $2] = 1; next }
  FILENAME == ARGV[2] { named[$2]++; next }
  named[$2] >= 2 { next }
  ($1 FS $2) in allowed { printf "  %s  %s\n", $1, $2; delete allowed[$1 FS $2]; next }
  { printf "  %s  %s   <- not in reach.allow\n", $1, $2 > "/dev/stderr"; bad++ }
  END {
    for (k in allowed) {
      split(k, at, FS)
      printf "  %s  %s   <- in reach.allow, but reached or gone\n", at[1], at[2] > "/dev/stderr"; bad++
    }
    if (bad) { printf "%d reach.allow mismatch(es)\n", bad > "/dev/stderr"; exit 1 }
  }
' reach.allow "$words" "$fns" || status=1
exit "$status"
