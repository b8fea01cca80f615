#!/usr/bin/env python3
"""Build the repo benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload fleet-steady --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first run configures and builds perfbench/ (the library sources under
src/ plus the benchmark executable) in Release mode under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs rebuild only what changed.
Build output goes to a log file in the build directory, so the benchmark's
own output is all that reaches stdout: readable lines, then one JSON object
as the last line. Exits non-zero, printing no result, when the library
sources are missing or the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCES = os.path.join(os.path.dirname(HERE), "src", "CMakeLists.txt")


def build(build_dir):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    with open(log_path, "w") as log:
        for cmd in (
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", build_dir, "-j", "4"],
        ):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
                return None
    return os.path.join(build_dir, "libra_perfbench")


def main(argv):
    if not os.path.isfile(SOURCES):
        sys.stderr.write("perfbench: library sources not found at %s\n" % SOURCES)
        return 2
    # Relative to the working directory: the daemon's unix socket lives
    # under it, and socket paths are limited to 107 bytes.
    root = os.path.relpath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(os.path.join(root, "perfbench"))
    if binary is None:
        return 1
    args = list(argv)
    if "--selftest" not in args and "--out" not in args:
        args += ["--out", os.path.join(root, "out")]
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
