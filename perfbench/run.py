#!/usr/bin/env python3
"""Served-query benchmark: one measured run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds ovcd and the load generator from this checkout's sources (Release,
into .bench_build/perfbench), then runs the load generator, which starts
ovcd, drives it over loopback and checks every result. Its output is
relayed unchanged: one line per metric with its unit, a context record,
and as the last line the JSON result. README.md beside this file describes
the workloads and metrics.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["point_mix", "analytic_sort", "spill_stream"]
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_build" / "perfbench-runs"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def tool_env():
    """Keeps the compiler's and the engine's scratch files in the checkout."""
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no engine sources next to the benchmark (looked in {ROOT})")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr,
                          env=tool_env()).returncode != 0:
            fail("cmake configure failed")
    cache = (BUILD_DIR / "CMakeCache.txt").read_text()
    if "CMAKE_BUILD_TYPE:STRING=Debug" in cache:
        fail("refusing a Debug build: it validates every sorted stream")
    jobs = str(len(os.sched_getaffinity(0)))
    if subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target",
                       "perfbench_loadgen", "-j", jobs],
                      stdout=sys.stderr, env=tool_env()).returncode != 0:
        fail("build failed")


def commit_id():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha1()
    files = [ROOT / "CMakeLists.txt"] + sorted(
        p for d in ("src", "tools", "perfbench") for p in (ROOT / d).rglob("*")
        if p.is_file() and "__pycache__" not in p.parts)
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "sources-sha1:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    command = [str(BUILD_DIR / "perfbench_loadgen"),
               "--ovcd=" + str(BUILD_DIR / "ovc" / "ovcd"),
               "--work-dir=" + str(WORK_DIR),
               "--workload=" + args.workload,
               "--seed=" + str(args.seed),
               "--seconds=" + str(args.seconds),
               "--trace=" + str(args.trace),
               "--commit=" + commit_id()]
    # Own process group: on a timeout, ovcd goes down with the generator.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            start_new_session=True, env=tool_env())
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(out)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
