#!/usr/bin/env python3
"""Build and run the repository benchmark (see membench/README.md).

Run from the repository root:

    python3 membench/run.py --workload sweep_fig03 --seed 1 --seconds 10 --trace 0

The first run configures and builds membench/ (CMake, the repository's
default RelWithDebInfo) into .bench_build/; later runs rebuild only what
changed. Build output goes to stderr, so the last stdout line is the
benchmark's JSON result. Arguments are passed to the membench binary,
which validates them before doing any work.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def fail(message, code=2):
    print(f"membench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build the membench target; exit on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "measure", "freq_scaling.hh")):
        fail(f"memsense sources not found under {os.path.join(ROOT, 'src')}")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", "membench", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def declared_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    build()
    proc = subprocess.run([os.path.join(BUILD, "membench")] + sys.argv[1:],
                          stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0 or "--help" in sys.argv[1:]:
        return proc.returncode
    # The result must carry exactly the metrics BENCHMARK.json declares.
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    args = sys.argv[1:]
    trace = any(a == "--trace=1" or (a == "--trace" and args[i + 1:i + 2] == ["1"])
                for i, a in enumerate(args))
    got, want = set(result["metrics"]), declared_metrics(trace)
    if got != want:
        fail(f"result metrics differ from BENCHMARK.json: missing "
             f"{sorted(want - got)}, undeclared {sorted(got - want)}", 3)
    return 0


if __name__ == "__main__":
    sys.exit(main())
