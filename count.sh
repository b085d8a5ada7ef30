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
#   ./count.sh    prints the table and the sites; exits 1 when a site is not
#                 in panic_sites.allow (one `file<TAB>code<TAB>reason` line
#                 per allowed site, the code trimmed as it reads in the file)
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
trap 'rm -f "$sites"' EXIT
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
awk -F'\t' '
  NR == FNR { if ($0 !~ /^#/ && NF >= 3) allowed[$1 FS $2]++; next }
  allowed[$1 FS $3]-- > 0 { printf "  %s:%s  %s\n", $1, $2, $3; next }
  { printf "  %s:%s  %s   <- not in panic_sites.allow\n", $1, $2, $3 > "/dev/stderr"; bad++ }
  END { if (bad) { printf "%d panic site(s) outside panic_sites.allow\n", bad > "/dev/stderr"; exit 1 } }
' panic_sites.allow "$sites"
