#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the perfbench binary from the sources in this checkout (under
.bench_build/ at the repository root), runs one workload and prints its
result.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload fig05-sweep --seed 1 --seconds 20 --trace 0

Workloads, metrics and their rationale: perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd, timeout):
    """Runs cmd with its output on stderr; fails the benchmark on error."""
    try:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if result.returncode != 0:
        fail(f"failed ({result.returncode}): {' '.join(cmd)}")


def build():
    # Once configured, `cmake --build` re-runs the configure step itself
    # whenever a CMakeLists.txt changes.
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    run_quiet(["cmake", "--build", BUILD, "-j", jobs], BUILD_TIMEOUT_S)


def check_declared_metrics():
    """The binary's metric table must match BENCHMARK.json exactly."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    declared = {(kind, m["name"], m["unit"])
                for kind in ("end_to_end", "per_layer") for m in spec[kind]}
    try:
        listed = subprocess.run([BINARY, "--list-metrics"], capture_output=True,
                                text=True, timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"cannot list the binary's metrics: {e}")
    built = {tuple(line.split()) for line in listed.splitlines()}
    if built != declared:
        fail(f"metrics differ from BENCHMARK.json: {sorted(built ^ declared)}")


def source_sha256():
    """Digest of the library and benchmark sources, so a result from a
    checkout without git history still names the code it measured."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build()
    check_declared_metrics()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--ref-dir", os.path.join(HERE, "ref"), "--git-sha", git_sha()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{args.workload} ran past {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{args.workload} exited with {proc.returncode}")
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
        provenance = json.loads(lines[-2])
    except (IndexError, ValueError):
        fail("no JSON provenance and result lines")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    provenance["provenance"]["source_sha256"] = source_sha256()
    lines[-2] = json.dumps(provenance)
    out = "\n".join(lines) + "\n"

    with open(os.path.join(BUILD, "results.jsonl"), "a") as log:
        log.write("\n".join(lines[-2:]) + "\n")
    print(out, end="", flush=True)


if __name__ == "__main__":
    main()
