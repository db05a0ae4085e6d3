#!/bin/sh
# Regenerate every golden file under tests/goldens/ from the current
# build. Run this after an intentional output-format or tool-version
# change, then review the diff — goldens are the authority on rendered
# diagnostics, so an unexpected delta means the change broke the
# byte-stability contract rather than evolved it.
#
# Usage:
#   tools/regen_goldens.sh [build-dir]      (default: build)
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-$repo_root/build}

if [ ! -x "$build_dir/tests/test_observability" ]; then
    echo "error: $build_dir/tests/test_observability not built." >&2
    echo "Build first:  cmake -B build -S . && cmake --build build -j" >&2
    exit 1
fi

MCHECK_REGEN_GOLDENS=1 "$build_dir/tests/test_observability" \
    --gtest_brief=1 >/dev/null
MCHECK_REGEN_GOLDENS=1 "$build_dir/tests/test_recovery" \
    --gtest_brief=1 >/dev/null
MCHECK_REGEN_GOLDENS=1 "$build_dir/tests/test_run_stats" \
    --gtest_brief=1 >/dev/null
# Metal-mode goldens (tests/goldens/metal_*): src/driver/compare_metal.cmake
# rewrites them when run with the same variable set.
MCHECK_REGEN_GOLDENS=1 ctest --test-dir "$build_dir" \
    -R mccheck_metal_deterministic >/dev/null

echo "Regenerated goldens under tests/goldens/:"
git -C "$repo_root" status --short -- tests/goldens || true
echo "Review the diff before committing."
