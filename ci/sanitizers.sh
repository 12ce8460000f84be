#!/usr/bin/env bash
# The CI `sanitizers` job (ASan + UBSan): configure a RelWithDebInfo tree in
# build-asan/ with both sanitizers and no recovery, build everything, and run
# the whole ctest suite under them.  Runs the same on a CI runner and on a
# local host; run it from anywhere in the checkout:
#
#   ci/sanitizers.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"

cmake --build build-asan -j"$(nproc)"

export ASAN_OPTIONS=detect_leaks=1
export UBSAN_OPTIONS=print_stacktrace=1
# Sanitized runs are slow; shrink the labeled corpus accordingly.
export WMM_FUZZ_COUNT=250
ctest --test-dir build-asan --output-on-failure -j"$(nproc)"
