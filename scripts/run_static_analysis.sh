#!/usr/bin/env bash
# Static-analysis and sanitizer gate, runnable locally and from CI.
#
#   scripts/run_static_analysis.sh [--skip-sanitizers] [--skip-tidy] [--skip-build]
#
# Stages:
#   1. Plain build + full test suite (tier-1 gate). Also (re)generates
#      build/compile_commands.json for the tooling stages.
#   2. siloz-lint over the tree: the five project-invariant checks
#      (DESIGN.md §12) must report zero unsuppressed findings.
#   3. Static isolation audit of the default platform (siloz_audit must
#      report zero findings) plus smoke checks that the corrupted-config
#      modes DO produce findings.
#   4. clang-tidy over src/ using the exported compilation database
#      (skipped with a notice when clang-tidy is not installed). Any
#      reported diagnostic fails the stage — run-clang-tidy exits 0 on
#      plain warnings, so findings are detected in the captured output.
#   5. Clang thread-safety build when clang++ is available: compiles the
#      tree with -Wthread-safety promoted to errors, verifying the
#      GUARDED_BY/MutexLock annotations.
#   6. ASan+UBSan build + full test suite (sanitizer reports are fatal).
set -euo pipefail

cd "$(dirname "$0")/.."

SKIP_SANITIZERS=0
SKIP_TIDY=0
SKIP_BUILD=0
for arg in "$@"; do
  case "$arg" in
    --skip-sanitizers) SKIP_SANITIZERS=1 ;;
    --skip-tidy) SKIP_TIDY=1 ;;
    --skip-build) SKIP_BUILD=1 ;;
    *) echo "unknown option: $arg" >&2; exit 1 ;;
  esac
done

JOBS="$(nproc 2>/dev/null || echo 2)"

echo "=== [1/6] build + tests ==="
if [ "$SKIP_BUILD" = 1 ]; then
  echo "skipped (--skip-build)"
  # The tooling stages still need a compilation database.
  if [ ! -f build/compile_commands.json ]; then
    cmake -B build -S . >/dev/null
  fi
else
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS"
  ctest --test-dir build --output-on-failure
fi

echo "=== [2/6] siloz-lint ==="
python3 tools/siloz_lint/siloz_lint.py

echo "=== [3/6] static isolation audit ==="
./build/tools/siloz_audit --stride 0x100000
# The audit must also FAIL when it should: each corruption class yields
# findings for its invariant (exit code 2).
for corrupt in shifted-jump broken-inverse; do
  if ./build/tools/siloz_audit --stride 0x1000000 --random-probes 64 \
      --corrupt "$corrupt" >/dev/null; then
    echo "ERROR: audit passed a ${corrupt}-corrupted decoder" >&2
    exit 1
  fi
done
if ./build/tools/siloz_audit --stride 0x1000000 --random-probes 64 \
    --ept-block 2 --ept-offset 1 >/dev/null; then
  echo "ERROR: audit passed an undersized guard band" >&2
  exit 1
fi

echo "=== [4/6] clang-tidy ==="
if [ "$SKIP_TIDY" = 1 ]; then
  echo "skipped (--skip-tidy)"
elif command -v clang-tidy >/dev/null 2>&1; then
  if [ ! -f build/compile_commands.json ]; then
    cmake -B build -S . >/dev/null
  fi
  TIDY_LOG="$(mktemp)"
  trap 'rm -f "$TIDY_LOG"' EXIT
  TIDY_STATUS=0
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -p build -quiet "src/.*" >"$TIDY_LOG" 2>&1 || TIDY_STATUS=$?
  else
    find src -name '*.cc' -print0 |
      xargs -0 -n 4 -P "$JOBS" clang-tidy -p build --quiet \
        >"$TIDY_LOG" 2>&1 || TIDY_STATUS=$?
  fi
  # run-clang-tidy exits 0 when checks merely warn; treat any diagnostic as
  # a failure so findings cannot scroll past unnoticed.
  if [ "$TIDY_STATUS" -ne 0 ] ||
     grep -qE "(warning|error): .*\[[a-z-]+" "$TIDY_LOG"; then
    cat "$TIDY_LOG"
    echo "ERROR: clang-tidy reported findings" >&2
    exit 1
  fi
else
  echo "clang-tidy not installed; skipping (checks still apply in CI)"
fi

echo "=== [5/6] clang thread-safety build ==="
if command -v clang++ >/dev/null 2>&1; then
  cmake -B build-tsa -S . -DCMAKE_CXX_COMPILER=clang++ \
    -DSILOZ_THREAD_SAFETY_ERRORS=ON >/dev/null
  cmake --build build-tsa -j "$JOBS"
else
  echo "clang++ not installed; skipping (-Wthread-safety still applies in CI)"
fi

echo "=== [6/6] sanitizers (ASan+UBSan) ==="
if [ "$SKIP_SANITIZERS" = 1 ]; then
  echo "skipped (--skip-sanitizers)"
else
  cmake -B build-asan -S . -DSILOZ_SANITIZE="address;undefined" >/dev/null
  cmake --build build-asan -j "$JOBS"
  ctest --test-dir build-asan --output-on-failure
  ./build-asan/tools/siloz_audit --stride 0x1000000 --random-probes 256
fi

echo "=== all static analysis stages passed ==="
