#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                      # every workload, one process each

Run from the root of a checkout. The program is built with dune into
_build/ (the shared dune cache is disabled, so nothing is written outside
the checkout), then one process runs one workload; its last line of
standard output is the JSON result. Traced runs also write the bench's
phase spans to .perfbench/spans-<workload>-<seed>.json.

Exits non-zero, without a result, when the checkout holds no buildable
repository, when the build fails, or when the run fails or overruns.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"no {need} at {ROOT}: not a checkout of the repository")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ROOT, "-j", "2", "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune is not installed")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        fail("build failed")


def run(args):
    """Run one workload; returns its exit code."""
    # glibc hands freed memory back to the kernel once 128 KiB sit free at
    # the top of the heap; every later set-up then pays page faults whose
    # cost depends on the host, not on this program. Keep it mapped.
    env = dict(os.environ, MALLOC_TRIM_THRESHOLD_=str(2**32 - 1))
    try:
        return subprocess.run([EXE] + args, cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"run overran {RUN_TIMEOUT_S} s: {' '.join(args)}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    build()
    if a.workload is None:
        names = subprocess.run([EXE, "--list"], stdout=subprocess.PIPE,
                               check=True).stdout.decode().split()
    else:
        names = [a.workload]
    worst = 0
    for name in names:
        args = ["--workload", name, "--seconds", str(a.seconds),
                "--trace", str(a.trace)]
        if a.seed is not None:
            args += ["--seed", str(a.seed)]
        if a.trace:
            os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
            seed = "default" if a.seed is None else str(a.seed)
            args += ["--spans", os.path.join(".perfbench", f"spans-{name}-{seed}.json")]
        sys.stdout.flush()
        worst = max(worst, run(args))
    sys.exit(worst)


if __name__ == "__main__":
    main()
