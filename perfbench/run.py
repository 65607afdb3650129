#!/usr/bin/env python3
"""Builds and runs the QueryService load benchmark (see README.md here).

Run from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
      --trace <0|1>
  python3 perfbench/run.py --selftest

The benchmark is built with CMake from perfbench/CMakeLists.txt into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). Build output
goes to standard error, so the last line of standard output is the
benchmark's JSON result. With --trace 1 the recorded spans are written to
<build dir>/traces/<workload>.tsv. --selftest builds everything and runs the
benchmark-local tests (generator determinism, correctness gate).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir, target):
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    cmd = ["cmake", "--build", bdir, "-j", jobs]
    if target:
        cmd += ["--target", target]
    steps.append(cmd)
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            return False
    return True


def main(argv):
    bdir = build_dir()
    if argv == ["--selftest"]:
        if not build(bdir, None):
            return 1
        return subprocess.run(["ctest", "--test-dir", bdir,
                               "--output-on-failure"],
                              stdout=sys.stderr, stderr=sys.stderr).returncode
    if not build(bdir, "service_load"):
        return 1
    cmd = [os.path.join(bdir, "service_load")] + argv
    if "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        workload = argv[argv.index("--workload") + 1] \
            if "--workload" in argv[:-1] else "unknown"
        cmd += ["--trace-out", os.path.join(traces, workload + ".tsv")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
