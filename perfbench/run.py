#!/usr/bin/env python3
r"""Runs one workload of the compile benchmark.

    python3 perfbench/run.py --workload fit_layered --seed 1 --seconds 26 \
        --trace 0

Builds the benchmark (perfbench/CMakeLists.txt, which compiles ../src) into
.bench_build/perfbench on first use, clears every URSA_* environment knob so
all tuning stays at its defaults, and runs the workload in its own process.
The benchmark's standard output is passed through: a settings line, then
the result object as the last line. --trace 1 writes the span stream to
.bench_build/perfbench/spans/. Exact results are recorded per binary,
workload and seed under .bench_build/perfbench/records/, and a later run
that disagrees with the record fails.

--small, --inject and --record-dir exist for perfbench/selftest.py.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "ursa_perfbench"
WORKLOADS = ("fit_layered", "tight_large", "tight_kernels", "served_mix")
# A run must end within 180 s; the benchmark itself stops new work at 120 s.
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds incrementally. False on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    cmake = shutil.which("cmake")
    if cmake is None:
        print("perfbench: cmake not found", file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append([cmake, "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release", *generator])
        steps.append([cmake, "--build", str(BUILD), "--target",
                      "ursa_perfbench", "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                return False
    return BINARY.exists()


def binary_digest():
    h = hashlib.sha256()
    with open(BINARY, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--small", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--inject", choices=("mismatch", "drift"),
                   help=argparse.SUPPRESS)
    p.add_argument("--record-dir", help=argparse.SUPPRESS)
    a = p.parse_args()
    if a.seed < 0 or not 1 <= a.seconds <= 60:
        p.error("--seed must be >= 0 and --seconds in 1..60")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2

    records = Path(a.record_dir) if a.record_dir else \
        BUILD / "records" / binary_digest()
    cmd = [str(BINARY), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace,
           "--record-dir", str(records)]
    if a.trace == "1":
        spans = BUILD / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(spans / f"{a.workload}-seed{a.seed}.json")]
    if a.small:
        cmd.append("--small")
    if a.inject:
        cmd += ["--inject", a.inject]

    env = {k: v for k, v in os.environ.items() if not k.startswith("URSA_")}
    try:
        r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
