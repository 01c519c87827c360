#!/usr/bin/env bash
# Linker census of dead library code: lists every function that a src/
# object defines (a strong `T` symbol) and that no shipped executable
# keeps, and exits 1 if there is any.
#
# It configures two projects into a build directory of its own, both at
# -O0 -ffunction-sections with -Wl,--gc-sections, so that each function
# is its own section and the linker drops every one nothing reaches:
#
#   root/  the root project; every executable except flowsched_tests;
#   e2e/   the standalone bench/e2e project (flowsched_e2e).
#
# Shipped means those executables. A function that only the tests reach
# is dead here: it belongs under tests/ (see docs/testing.md). The
# census sees out-of-line functions only; templates and functions
# defined in headers are not counted.
#
# Usage: tools/dead_code_census.sh [build-dir]   (default: build-census)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build-census}

configure() {  # <source-dir> <binary-dir>
  cmake -S "$1" -B "$2" -G "Unix Makefiles" -DCMAKE_BUILD_TYPE=None \
    -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections" \
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

# Strong functions that the library objects define. Read from the
# archives, which are rebuilt from the current sources: a reused build
# directory still holds the object of a deleted source file.
find "$BUILD_DIR/root/src" -name 'lib*.a' -exec nm --defined-only {} + |
  awk '$2 == "T" { print $3 }' | sort -u > "$WORK/defined"

# A constructor is emitted as two symbols (complete and base object), so
# the count is over demangled names.
comm -23 "$WORK/defined" "$WORK/kept" | c++filt | sort -u > "$WORK/dead"
count=$(wc -l < "$WORK/dead")

cat "$WORK/dead"
echo "dead_code_census: $count dead functions in src/ ($shipped shipped executables)"
[ "$count" -eq 0 ]
