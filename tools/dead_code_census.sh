#!/usr/bin/env bash
# Linker census of dead library code: lists every flowsched function that a
# src/ object defines and that no shipped executable keeps, with the file
# and line that declare it, and exits 1 if there is any.
#
# It configures two projects into a build directory of its own, both at
# -O0 -g -ffunction-sections -fkeep-inline-functions with -Wl,--gc-sections,
# so that each function is its own section, every inline function a header
# defines is emitted wherever the header is included, and the linker drops
# every section nothing reaches:
#
#   root/  the root project; every executable except flowsched_tests;
#   e2e/   the standalone bench/e2e project (flowsched_e2e).
#
# Shipped means those executables. A function that only the tests reach
# is dead here: it belongs under tests/ (see docs/testing.md).
#
# Counted: strong (T) and weak (W) symbols of the src/ archives whose
# demangled name lies in namespace flowsched, out-of-line and header-defined
# functions alike. Not counted: members the compiler writes (implicitly
# declared or defaulted, by DW_AT_artificial and DW_AT_defaulted as readelf
# reads them) and the thunks of captureless lambdas (_FUN and the conversion
# to a function pointer). Still blind to templates that only test translation
# units instantiate (nothing in src/ emits them) and to functions evaluated
# only at compile time (no symbol is ever emitted for a call the compiler
# folds away).
#
# Usage: tools/dead_code_census.sh [build-dir]   (default: build-census)
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C

BUILD_DIR=${1:-build-census}

configure() {  # <source-dir> <binary-dir>
  cmake -S "$1" -B "$2" -G "Unix Makefiles" -DCMAKE_BUILD_TYPE=None \
    -DCMAKE_CXX_FLAGS="-O0 -g -ffunction-sections -fkeep-inline-functions" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" > /dev/null
}

configure . "$BUILD_DIR/root"
configure bench/e2e "$BUILD_DIR/e2e"

# The root executables: every target of the generated Makefile except the
# utility targets, the libraries and the test binary.
libs=$(find src tests tools bench examples -name CMakeLists.txt \
         -exec sed -n 's/^ *add_library(\([A-Za-z0-9_]*\).*/\1/p' {} +)
mapfile -t exes < <(
  make -s -C "$BUILD_DIR/root" help | sed -n 's/^\.\.\. \([A-Za-z0-9_]*\)$/\1/p' |
    grep -vxF -e clean -e depend -e edit_cache -e rebuild_cache -e test \
      -e flowsched_tests $(printf -- '-e %s ' $libs))
cmake --build "$BUILD_DIR/root" --target "${exes[@]}" -j "$(nproc)" > /dev/null
cmake --build "$BUILD_DIR/e2e" --target flowsched_e2e -j "$(nproc)" > /dev/null

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# Symbols the shipped executables keep.
for exe in "${exes[@]}"; do
  nm --defined-only "$(find "$BUILD_DIR/root" -type f -name "$exe" ! -path '*/CMakeFiles/*')"
done > "$WORK/kept.raw"
nm --defined-only "$BUILD_DIR/e2e/flowsched_e2e" >> "$WORK/kept.raw"
awk '{ print $NF }' "$WORK/kept.raw" | sort -u > "$WORK/kept"
shipped=$((${#exes[@]} + 1))

# Strong and weak functions that the library objects define, each with the
# first archive member (archive:member) that defines it. Read from the
# archives, which are rebuilt from the current sources: a reused build
# directory still holds the object of a deleted source file.
find "$BUILD_DIR/root/src" -name 'lib*.a' -exec nm -A --defined-only {} + |
  awk '$2 == "T" || $2 == "W" { sub(/:[^:]*$/, "", $1); print $3, $1 }' |
  sort -k1,1 -u > "$WORK/defined"

# Unkept symbols in namespace flowsched: mangled name, member, demangled
# name (a template function's demangled name starts with its return type).
join -v1 "$WORK/defined" "$WORK/kept" > "$WORK/unkept"
cut -d' ' -f1 "$WORK/unkept" | c++filt > "$WORK/unkept.dm"
paste -d'\t' <(tr ' ' '\t' < "$WORK/unkept") "$WORK/unkept.dm" | awk -F'\t' '
  function in_flowsched(s,   i, c, depth) {
    if (index(s, "flowsched::") == 1) return 1
    depth = 0
    for (i = 1; i <= length(s); i++) {
      c = substr(s, i, 1)
      if (c == "<" || c == "(") depth++
      else if (c == ">" || c == ")") depth--
      if (depth == 0 && c == "(") return 0
      if (depth == 0 && c == " " && index(substr(s, i + 1), "flowsched::") == 1) return 1
    }
    return 0
  }
  in_flowsched($3)' > "$WORK/candidates"

# The debug info and line-table file names (DWARF 5, the default of the
# compilers the project builds with) of every member that defines a
# candidate, one compilation unit each.
cut -f2 "$WORK/candidates" | sort -u | while IFS= read -r member; do
  ar p "${member%:*}" "${member##*:}" > "$WORK/obj.o"
  echo "object $member"
  readelf --debug-dump=info,rawline "$WORK/obj.o"
done > "$WORK/dwarf"

# Walk each candidate from the DIE that carries its linkage name along
# DW_AT_abstract_origin and DW_AT_specification to the declaration: drop it
# if any subprogram on the way is artificial or defaulted, else print it at
# the first declaring file and line on the way. A complete-object
# constructor or destructor (C1/D1) aliases the base-object one (C2/D2),
# which is the one the debug info names.
awk -F'\t' -v root="$PWD/" '
  function value(s) { sub(/^[^:]*: /, "", s); return s }
  function ref(s) { s = value(s); gsub(/[<>]|0x/, "", s); return obj ":" s }
  FNR == NR { sym[FNR] = $1; dm[FNR] = $3; n = FNR; next }
  /^object / { obj = substr($0, 8); table = ""; next }
  /^ <[0-9]+><[0-9a-f]+>: / {
    die = $0; sub(/^ <[0-9]+></, "", die); sub(/>.*/, "", die); die = obj ":" die
    in_subprogram = ($0 ~ /\(DW_TAG_subprogram\)$/)
    next
  }
  /^ The Directory Table/ { table = "dir"; next }
  /^ The File Name Table/ { table = "file"; next }
  table != "" && /^  [0-9]+\t/ {
    entry = $1 + 0; name = $NF; sub(/.*: /, "", name)
    if (table == "dir") dir[obj, entry] = name
    else path[obj, entry] = (name ~ /^\// ? name : dir[obj, $2 + 0] "/" name)
    next
  }
  /^ *$/ { table = "" }
  !in_subprogram { next }
  {
    attr = $0; sub(/^ *<[0-9a-f]+> +/, "", attr); sub(/ *:.*/, "", attr)
    if (attr == "DW_AT_linkage_name") {
      name = $0; sub(/.*: /, "", name); if (!(name in by_name)) by_name[name] = die
    } else if (attr == "DW_AT_specification" || attr == "DW_AT_abstract_origin") {
      up[die] = ref($0)
    } else if (attr == "DW_AT_artificial" || attr == "DW_AT_defaulted") {
      if (value($0) + 0 != 0) written_by_cc[die] = 1
    } else if (attr == "DW_AT_decl_file") {
      file[die] = value($0) + 0
    } else if (attr == "DW_AT_decl_line") {
      decl_line[die] = value($0) + 0
    }
  }
  END {
    for (i = 1; i <= n; i++) {
      if (dm[i] ~ /\{lambda\(.*\)#[0-9]+\}::(_FUN\(|operator [^(])/) continue
      s = sym[i]
      if (!(s in by_name)) { sub(/C1E/, "C2E", s); sub(/D1E/, "D2E", s) }
      d = by_name[s]; where = ""; compiler = 0
      for (hops = 0; d != "" && hops < 8; hops++) {
        if (d in written_by_cc) compiler = 1
        if (where == "" && (d in file)) {
          unit = d; sub(/:[^:]*$/, "", unit)  # the object the DIE is in
          where = path[unit, file[d]] ":" decl_line[d]
          if (index(where, root) == 1) where = substr(where, length(root) + 1)
        }
        d = up[d]
      }
      if (!compiler) print (where == "" ? "?" : where) "\t" dm[i]
    }
  }' "$WORK/candidates" "$WORK/dwarf" | sort -u > "$WORK/dead"
count=$(wc -l < "$WORK/dead")

cat "$WORK/dead"
echo "dead_code_census: $count dead functions in src/ ($shipped shipped executables)"
[ "$count" -eq 0 ]
