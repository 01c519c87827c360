#!/usr/bin/env bash
# Documentation consistency gate, registered as the `check_docs` ctest:
#
#   1. every relative markdown link in README.md, DESIGN.md, EXPERIMENTS.md,
#      ROADMAP.md and docs/*.md resolves to an existing file or directory;
#   2. every bench binary named in EXPERIMENTS.md (bench_* / micro_*) has a
#      matching source file under bench/;
#   3. handbook cross-links hold in BOTH directions: every docs/*.md page is
#      referenced from the README's docs table AND links back to the README;
#      the README links EXPERIMENTS.md and EXPERIMENTS.md links back;
#   4. every theorem cited in the documentation ("Th. 8", "Theorem 3",
#      "Theorems 3, 4", "Cor. 1", "Prop. 1") names a result PAPER.md
#      actually states — a renumbered or misremembered theorem fails here;
#   5. every backticked source path (`dir/name.hpp`, `.cpp`, `.sh`,
#      `.cmake`) in README.md, DESIGN.md and docs/*.md exists, as given
#      from the repo root or under src/ — a deleted or renamed file fails
#      here.
#
# Usage: tools/check_docs.sh   (from anywhere; cds to the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

say() { printf '%s\n' "$*" >&2; }

# --- 1. relative links -----------------------------------------------------
# Extract ](target) markdown link targets; ignore absolute URLs and pure
# anchors; strip a trailing #fragment before testing existence.
doc_files=(README.md DESIGN.md EXPERIMENTS.md ROADMAP.md docs/*.md)
for doc in "${doc_files[@]}"; do
  [ -f "$doc" ] || continue
  dir=$(dirname "$doc")
  # shellcheck disable=SC2013
  for target in $(grep -o '](\([^)]*\))' "$doc" | sed 's/^](//; s/)$//'); do
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path="${target%%#*}"
    [ -n "$path" ] || continue
    if [ ! -e "$dir/$path" ]; then
      say "check_docs: $doc: broken link -> $target"
      fail=1
    fi
  done
done

# --- 2. bench names in EXPERIMENTS.md --------------------------------------
# ctest names (registered in bench/ or tools/ CMakeLists, no .cpp of their
# own) and the tools/ scripts are exempt.
ctest_names="bench_determinism_fig11 bench_determinism_fig10 \
bench_determinism_failures bench_failures_resume bench_determinism_streaming \
bench_determinism_bounds bench_determinism_shard bench_determinism_adaptive \
bench_trajectory"
for bench in $(grep -o '\b\(bench\|micro\)_[a-z0-9_]\{1,\}' EXPERIMENTS.md | sort -u); do
  case " $ctest_names " in *" $bench "*) continue ;; esac
  if [ ! -f "bench/$bench.cpp" ]; then
    say "check_docs: EXPERIMENTS.md names '$bench' but bench/$bench.cpp does not exist"
    fail=1
  fi
done

# --- 3. handbook cross-links, both directions ------------------------------
# Forward: every handbook page is discoverable from the README docs table.
# Back: every handbook page links to ../README.md, so a reader landing on a
# page from search can find the TOC. The page list is discovered, not
# hardcoded — adding a page without wiring it into the README fails here.
for page in docs/*.md; do
  [ -f "$page" ] || continue
  if ! grep -q "$page" README.md; then
    say "check_docs: README.md does not reference $page"
    fail=1
  fi
  if ! grep -q '](\.\./README\.md' "$page"; then
    say "check_docs: $page has no backlink to ../README.md"
    fail=1
  fi
done

# README <-> EXPERIMENTS.md must reference each other as well.
if ! grep -q '](EXPERIMENTS\.md' README.md; then
  say "check_docs: README.md does not link EXPERIMENTS.md"
  fail=1
fi
if ! grep -q '](README\.md' EXPERIMENTS.md; then
  say "check_docs: EXPERIMENTS.md has no backlink to README.md"
  fail=1
fi

# --- 4. theorem citations resolve against PAPER.md -------------------------
# The valid numbers are discovered from PAPER.md, not hardcoded: every
# "Theorem N" / "Theorems N, M, ..." the abstract states contributes its
# numbers. Citations are collected in all their local spellings — "Th. 8",
# "Th. 8/9/10", "Theorem 10's", "Theorems 3, 4" — and each cited number
# must be one PAPER.md states. Same audit for corollaries and propositions.
audit_citations() {
  # $1 long form ("Theorem"), $2 short form ("Th"), $3 valid numbers.
  local long=$1 short=$2 valid=" $3 " doc num
  for doc in "${doc_files[@]}"; do
    [ -f "$doc" ] || continue
    for num in $(grep -o "\\(${long}s\\?\\|${short}\\.\\) \\{0,1\\}[0-9][0-9, /]*" "$doc" \
                   | grep -o '[0-9]\+' | sort -un); do
      case "$valid" in
        *" $num "*) ;;
        *)
          say "check_docs: $doc cites $long $num, which PAPER.md does not state"
          fail=1 ;;
      esac
    done
  done
}
paper_theorems=$(grep -o 'Theorems\? [0-9][0-9, ]*' PAPER.md | grep -o '[0-9]\+' | sort -un | tr '\n' ' ')
paper_corollaries=$(grep -o 'Corollar\(y\|ies\) [0-9][0-9, ]*' PAPER.md | grep -o '[0-9]\+' | sort -un | tr '\n' ' ')
paper_propositions=$(grep -o 'Propositions\? [0-9][0-9, ]*' PAPER.md | grep -o '[0-9]\+' | sort -un | tr '\n' ' ')
if [ -z "$paper_theorems" ]; then
  say "check_docs: could not extract any theorem numbers from PAPER.md"
  fail=1
fi
audit_citations Theorem Th "$paper_theorems"
audit_citations Corollary Cor "$paper_corollaries"
audit_citations Proposition Prop "$paper_propositions"

# --- 5. backticked source paths resolve -----------------------------------
# A span is a path when it is one token of path characters with a
# directory part and a source extension. Bare file names (`x.cpp`), globs
# (`sched/preemptive.*`) and prose are skipped.
for doc in README.md DESIGN.md docs/*.md; do
  [ -f "$doc" ] || continue
  for path in $(grep -o '`[A-Za-z0-9_./-]*/[A-Za-z0-9_.-]*\.\(hpp\|cpp\|sh\|cmake\)`' "$doc" \
                  | tr -d '`' | sort -u); do
    if [ ! -e "$path" ] && [ ! -e "src/$path" ]; then
      say "check_docs: $doc names \`$path\`, which exists neither as given nor under src/"
      fail=1
    fi
  done
done

if [ "$fail" -ne 0 ]; then
  say "check_docs: FAILED"
  exit 1
fi
echo "check_docs: OK"
