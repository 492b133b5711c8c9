#!/usr/bin/env python3
"""Run one workload of the FT-GEMM repository benchmark.

    python3 perfbench/run.py --workload dense|inject|serve --seed N \
        --seconds S --trace 0|1

Builds the library and the benchmark from source into .bench_build/perfbench
(CMake, Release) on first use, runs the benchmark's self-test, then runs the
workload.  Build output goes to stderr; stdout ends with the result line
printed by the benchmark.  Refuses to run when any FTGEMM_* or OMP_*
variable is set, because the benchmark measures the library's defaults.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def refuse_overrides():
    bad = sorted(k for k in os.environ if k.startswith(("FTGEMM_", "OMP_")))
    if bad:
        fail("refusing to run with library overrides set: " + ", ".join(bad), 2)


def source_sha():
    """Content hash of everything the benchmark builds from."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            paths += [os.path.join(dirpath, f) for f in filenames]
    for p in sorted(paths):
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("library sources not found next to perfbench/")
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure,
                ["cmake", "--build", BUILD, "--target", "perfbench",
                 "perfbench_selftest", "-j", jobs]):
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S, check=False)
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["dense", "inject", "serve"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    refuse_overrides()
    build()

    selftest = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr,
                              timeout=60, check=False)
    if selftest.returncode != 0:
        fail("self-test of the output checks failed")

    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--source-sha", source_sha()]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s_seed%d.json" % (args.workload, args.seed))]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                           check=False, text=True)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s" % RUN_TIMEOUT_S)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail("benchmark exited with code %d" % r.returncode)
    sys.stdout.write(r.stdout)


if __name__ == "__main__":
    main()
