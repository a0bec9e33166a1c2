#!/usr/bin/env bash
# Byte-identity gates: a base commit against the working tree.
#
#   scripts/gate_diff.sh <base-ref>
#
# Runs the working tree's scripts/run_gates.sh on <base-ref> (extracted with
# `git archive`) and on the working tree, diffs the two sets of artifacts and
# names each one that differs. run_gates.sh lists the gates.
#
# Exit status: 0 when every artifact is byte-identical, 1 when some differ
# (each one is named), 2 on a usage or build error. Work goes to
# $GATE_DIFF_DIR (default ${TMPDIR:-/tmp}/gate_diff); the builds there are
# reused by later runs.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <base-ref>" >&2
  exit 2
fi
root=$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)
if ! base_sha=$(git -C "$root" rev-parse --verify --quiet "$1^{commit}"); then
  echo "gate_diff: unknown revision '$1'" >&2
  exit 2
fi
work=${GATE_DIFF_DIR:-${TMPDIR:-/tmp}/gate_diff}
mkdir -p "$work"
work=$(cd "$work" && pwd)

base=$work/base-$base_sha
if [[ ! -f $base/src/CMakeLists.txt ]]; then
  rm -rf "$base/src"
  mkdir -p "$base/src"
  git -C "$root" archive "$base_sha" | tar -x -C "$base/src"
fi
head=$work/head
if [[ -f $head/build/CMakeCache.txt ]] &&
   ! grep -qx "CMAKE_HOME_DIRECTORY:INTERNAL=$root" \
     "$head/build/CMakeCache.txt"; then
  rm -rf "$head"  # built from another checkout
fi

# A gate that fails (run_gates.sh exits 1) records its exit status in its
# artifact, so the artifacts are diffed all the same.
rm -rf "$base/out" "$head/out"
"$root/scripts/run_gates.sh" "$base/src" "$base" "$base/out" ||
  (($? == 1)) || exit 2
"$root/scripts/run_gates.sh" "$root" "$head" "$head/out" ||
  (($? == 1)) || exit 2

mapfile -t artifacts < <({ (cd "$base/out" && find . -type f)
                           (cd "$head/out" && find . -type f); } |
                         sed 's|^\./||' | sort -u)
differ=0
for f in "${artifacts[@]}"; do
  if ! cmp -s "$base/out/$f" "$head/out/$f"; then
    echo "gate_diff: differs: $f"
    differ=$((differ + 1))
  fi
done
if ((differ > 0)); then
  echo "gate_diff: $differ of ${#artifacts[@]} artifacts differ between" \
    "${base_sha:0:12} and the working tree"
  exit 1
fi
echo "gate_diff: all ${#artifacts[@]} artifacts identical to ${base_sha:0:12}"
