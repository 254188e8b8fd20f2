"""Benchmark entry point: one run of one workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload analytic|adhoc|oltp \\
        --seed N --seconds S --trace 0|1

Each run gets a fresh interpreter (``child.py``) with a fixed
``PYTHONHASHSEED`` and a fresh work directory under ``.perfbench_tmp/``
in the checkout, removed afterwards.  The child's standard output is
passed through; its last line is the result object
``{"correct", "attempted", "failed", "metrics"}``, the line before it
the full report (every metric with its unit, sample count and, for
timings, the raw value before host-speed scaling; see
``measure.SpeedProbe``).

The system under test is imported from ``src/`` of the checkout; when
it is missing the run fails with exit code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("analytic", "adhoc", "oltp")
#: The child must end well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170
HASH_SEED = "0"


def parse_args(argv):
    parser = argparse.ArgumentParser(description="XSQL session benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print(f"perfbench: no system under test at {SOURCE}", file=sys.stderr)
        return 2
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = os.pathsep.join([SOURCE, HERE])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", workdir,
    ]
    try:
        completed = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            timeout=CHILD_TIMEOUT_S, text=True,
        )
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it
    if completed.returncode != 0:
        print(
            f"perfbench: child exited with {completed.returncode}",
            file=sys.stderr,
        )
        return completed.returncode
    sys.stdout.write(completed.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
