#!/usr/bin/env python3
"""Build and run the FAST host-speed benchmark (see README.md here).

    python3 perfbench/run.py --workload spec-coupled [--seed N]
                             [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The first call configures and builds
perfbench/ (the simulator library from src/ plus perfbench.cc) in an
optimised build under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later calls only
rebuild what changed.  Build output goes to stderr so that the last line
of stdout is the benchmark's JSON result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("spec-coupled", "spec-parallel", "smp-service", "smp-bsp")
DEFAULT_SEED = 1
BUILD_JOBS = "2"
# A run must end within 180 s; stop the benchmark short of that.
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure (once) and build the benchmark; return the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no simulator sources at %s; run from the root "
                 "of a full checkout" % (ROOT / "src"))
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", BUILD_JOBS])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build step failed: %s" % " ".join(cmd))
    return out / "perfbench"


def run_bench(binary, args):
    """Run the binary, echo its report, return the parsed JSON result."""
    try:
        proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    if proc.returncode != 0:
        sys.exit("perfbench: benchmark exited with code %d"
                 % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.exit("perfbench: last output line is not a JSON result")
    return lines[-1], result


def self_test(binary):
    """A run whose expected cycles were corrupted must count as failed;
    the same run without the corruption must not."""
    common = ["--workload", "spec-coupled", "--seed", str(DEFAULT_SEED),
              "--seconds", "0", "--trace", "0"]
    _, control = run_bench(binary, common)
    _, corrupted = run_bench(binary, common + ["--corrupt-expected"])
    ok = (control["failed"] == 0 and control["correct"]
          and corrupted["failed"] >= 1 and not corrupted["correct"])
    print("self-test: control failed=%d correct=%s; corrupted failed=%d "
          "correct=%s -> %s"
          % (control["failed"], control["correct"], corrupted["failed"],
             corrupted["correct"], "PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and a.workload is None:
        ap.error("--workload is required")

    binary = build()
    if a.self_test:
        return self_test(binary)

    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        spans = build_dir() / ("spans-%s-seed%d.json" % (a.workload, a.seed))
        args += ["--spans", str(spans)]
    line, _ = run_bench(binary, args)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
