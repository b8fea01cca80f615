#!/usr/bin/env python3
"""Check that two builds print byte-identical paper benches.

Runs every paper executable declared in bench/CMakeLists.txt (each
libra_bench(...) target; micro_perf is google-benchmark and prints timings,
so it is skipped) from both build directories and compares their stdout
byte for byte. Prints one line per bench; for a difference, the first line
that differs on each side. Exits 1 on any difference or failed run, 0 when
every bench matches.

Usage:
  tools/paper_bench_diff.py PARENT_BUILD CHANGE_BUILD

Both arguments are CMake build directories (the benches live under
<build>/bench/). Use it after a change that must not move any figure, and
to re-run the figure benches after a deliberate re-pin.
"""

import os
import re
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_CMAKE = os.path.join(REPO, "bench", "CMakeLists.txt")


def paper_benches():
    with open(BENCH_CMAKE) as f:
        return re.findall(r"^libra_bench\((\w+)\)", f.read(), re.M)


def run(build, name):
    """stdout bytes of one bench, or None when it is missing or fails."""
    path = os.path.join(build, "bench", name)
    if not os.access(path, os.X_OK):
        print("%s: missing %s" % (name, path))
        return None
    proc = subprocess.run([path], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL)
    if proc.returncode != 0:
        print("%s: %s exited %d" % (name, path, proc.returncode))
        return None
    return proc.stdout


def first_difference(a, b):
    """1-based line number and the two differing lines (None past the end)."""
    la, lb = a.splitlines(), b.splitlines()
    for i in range(max(len(la), len(lb))):
        x = la[i] if i < len(la) else None
        y = lb[i] if i < len(lb) else None
        if x != y:
            return i + 1, x, y
    return None  # same lines, different line endings


def show(line):
    return "<end of output>" if line is None else line.decode(errors="replace")


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    parent, change = argv
    names = paper_benches()
    failed = 0
    for name in names:
        a, b = run(parent, name), run(change, name)
        if a is None or b is None:
            failed += 1
        elif a == b:
            print("%s: identical (%d bytes)" % (name, len(a)))
        else:
            failed += 1
            diff = first_difference(a, b)
            if diff is None:
                print("%s: differs in line endings only" % name)
            else:
                line, x, y = diff
                print("%s: differs at line %d" % (name, line))
                print("  parent: %s" % show(x))
                print("  change: %s" % show(y))
    print("%d of %d paper benches identical"
          % (len(names) - failed, len(names)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
