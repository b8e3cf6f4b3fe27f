#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train_cold --seed 1 --seconds 20 --trace 0

Builds the library and the benchmark binary (perfbench/CMakeLists.txt) in
.bench_build/ on first use, runs one workload in one process, and forwards
the binary's output: a human summary on stderr and, as the last stdout line,
one JSON object with the metrics BENCHMARK.json lists. Exits non-zero
without a result line when the build or the run fails, and with the
binary's code 1 when an output check failed.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("train_cold", "predict_stream", "serve_flowcache")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; output goes to stderr."""
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(here, "..", "src", "CMakeLists.txt")):
        log("library sources (src/) not found next to perfbench/")
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "hcp_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(BUILD_DIR, "hcp_perfbench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    for needed in ("BENCHMARK.json", os.path.join("results", "golden_map_spam_filter.txt")):
        if not os.path.isfile(needed):
            log(f"{needed} not found: run from the root of a checkout")
            return 2
    binary = build()
    if binary is None:
        return 2

    workdir = os.path.join(".bench_build", f"work-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir,
           "--golden", os.path.join("results", "golden_map_spam_filter.txt"),
           "--manifest", "BENCHMARK.json"]
    # The library reads HCP_* settings (cache, threads, fault injection) in
    # some entry points; the benchmark fixes its own.
    env = {k: v for k, v in os.environ.items() if not k.startswith("HCP_")}
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode not in (0, 1):
        log(f"hcp_perfbench exited with code {proc.returncode}")
        return proc.returncode if proc.returncode > 0 else 3
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
