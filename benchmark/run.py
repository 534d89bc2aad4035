#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
the pimphony library and the benchmark program (benchmark/CMakeLists.txt)
in Release mode under $CARGO_TARGET_DIR (default .bench_build); later
calls only rebuild what changed. Build output goes to stderr, so the
last line on stdout is the program's JSON result. With --trace 1 its
spans are written under the build directory, in
spans/<workload>-seed<N>.json. Workloads, metrics and checks are
described in benchmark/NOTES.md.
"""

import argparse
import fcntl
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configure once, then build incrementally; returns the binary."""
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Serialize concurrent invocations sharing one build directory.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "pimbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    # Repeated flags keep the last value, so a seed given after the
    # default in BENCHMARK.json's command overrides it.
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "system", "engine.hh")):
        fail(f"pimphony sources not found under {ROOT}/src")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "pimbench")
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(build_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans",
                os.path.join(spans, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    # A SIGTERM to this wrapper stops the benchmark program too.
    child = subprocess.Popen(cmd)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.terminate()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
