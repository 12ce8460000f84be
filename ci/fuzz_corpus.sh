#!/usr/bin/env bash
# The CI `fuzz-corpus` job: configure a Release tree in build/, build the
# fuzz targets, run the labelled differential corpus at 5000 programs per
# architecture, run the elevated-count POWER corpus single-threaded and then
# on every core (stdout must be byte-identical and the parallel run fast
# enough), and finish with the oracle's teeth tests.  Runs the same on a CI
# runner and on a local host; run it from anywhere in the checkout:
#
#   ci/fuzz_corpus.sh
#
# The POWER runs leave power_fuzz_t1.log and power_fuzz.log in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build -j"$(nproc)" \
  --target fuzz_corpus_test fuzz_conformance

# Cross-check corpus (operational vs axiomatic): 5000 programs per
# architecture; a divergence report prints the seed and the shrunk program,
# replayable locally with
#   build/bench/fuzz_conformance --arch=<a> --replay=0x<seed>
# Two workers per corpus (ctest already runs the architectures in parallel);
# the report is bit-identical to a sequential run.
WMM_FUZZ_COUNT=5000 WMM_FUZZ_THREADS=2 \
  ctest --test-dir build --output-on-failure -j"$(nproc)" -L fuzz

# POWER exact-equality corpus (Herding-Cats oracle).  Elevated-count
# POWER-only run on a third seed stream, executed twice: a single-threaded
# baseline, then an $(nproc)-worker run.  The count keeps the baseline at
# about 2 s or more on a 4-core host, so start-up and host noise stay small
# beside the timed work.  The parallel run must (a) produce
# byte-identical stdout — a determinism regression fails the diff — and
# (b) beat the baseline by >=4x on 8+ cores (>= nproc/2 on smaller runners)
# within a 300 s wall-clock budget, so a throughput regression fails the
# build too.  The grep guards the check mode: the run must use the exact
# Herding-Cats model.
t0=$(date +%s.%N)
build/bench/fuzz_conformance --arch=power --count=120000 \
  --seed=0x5eed5eed --threads=1 | tee power_fuzz_t1.log
t1=$(date +%s.%N)
build/bench/fuzz_conformance --arch=power --count=120000 \
  --seed=0x5eed5eed --threads="$(nproc)" | tee power_fuzz.log
t2=$(date +%s.%N)
diff power_fuzz_t1.log power_fuzz.log
grep -q "POWER check mode: exact Herding-Cats equality" power_fuzz.log
awk -v a="$t0" -v b="$t1" -v c="$t2" -v n="$(nproc)" 'BEGIN {
  base = b - a; par = c - b
  need = (n >= 8) ? 4.0 : n / 2.0
  speedup = (par > 0) ? base / par : 0
  printf "baseline %.1fs | %d threads %.1fs | speedup %.2fx (need >= %.2fx)\n", \
    base, n, par, speedup, need
  if (speedup < need) { print "FAIL: parallel fuzz throughput regressed"; exit 1 }
  if (par > 300) { print "FAIL: parallel run exceeded 300s budget"; exit 1 }
}'

# POWER teeth (weakened axioms must be caught).  Suite-level and
# biased-corpus teeth for the three POWER weakenings (power-lwsync-sync /
# power-bcumul / power-obs) plus the four generic ones live in
# fuzz_conformance_test; run just those here so the job fails fast if the
# oracle loses its teeth.
cmake --build build -j"$(nproc)" --target fuzz_conformance_test
ctest --test-dir build --output-on-failure -R ConformanceTeeth
