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
# A `use` statement names nothing (a re-export is not a caller), and a file
# that itself defines a `pub fn` of the same name does not reach another
# file's (a wrapper pair would otherwise reach each other).
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

# The names a file's non-test code uses: comment lines and `use`
# statements (one or many lines, `pub` or not) dropped.
named() {
  non_test "$1" | cut -f2- | grep -v -P '^\s*//' | awk '
    in_use { if (/;/) in_use = 0; next }
    /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?use[[:space:]]/ { if (!/;/) in_use = 1; next }
    { print }
  '
}

sites=$(mktemp)
words=$(mktemp)
defs=$(mktemp)
fns=$(mktemp)
trap 'rm -f "$sites" "$words" "$defs" "$fns"' EXIT
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
# `file<TAB>name` for each `pub fn` a file defines, and those of the product
# crates. A function is reached when a file that does not define a `pub fn`
# of its name names it.
for f in $(find crates/*/src src examples benchmark/src -name '*.rs' | sort) tests/paper_claims.rs; do
  named "$f" | grep -oP '\b\w+\b' | sort -u | sed "s|^|$f\t|" || true
  non_test "$f" | cut -f2- | grep -oP '^\s*pub\s+(const\s+)?(unsafe\s+)?fn\s+\K\w+' | sort -u |
    sed "s|^|$f\t|" >>"$defs" || true
done >"$words"
grep -P '^crates/(?!bench/)' "$defs" >"$fns" || true
unreached=$(awk -F'\t' '
  FILENAME == ARGV[1] { defines[$0] = 1; next }
  FILENAME == ARGV[2] { if (!($0 in defines)) reached[$2] = 1; next }
  !($2 in reached)
' "$defs" "$words" "$fns")
echo
echo "unreached pub fns: $(grep -c . <<<"$unreached" || true)"
awk -F'\t' '
  FILENAME == ARGV[1] { if ($0 !~ /^#/ && NF >= 3) allowed[$1 FS $2] = 1; next }
  NF < 2 { next }
  ($1 FS $2) in allowed { printf "  %s  %s\n", $1, $2; delete allowed[$1 FS $2]; next }
  { printf "  %s  %s   <- not in reach.allow\n", $1, $2 > "/dev/stderr"; bad++ }
  END {
    for (k in allowed) {
      split(k, at, FS)
      printf "  %s  %s   <- in reach.allow, but reached or gone\n", at[1], at[2] > "/dev/stderr"; bad++
    }
    if (bad) { printf "%d reach.allow mismatch(es)\n", bad > "/dev/stderr"; exit 1 }
  }
' reach.allow - <<<"$unreached" || status=1
exit "$status"
