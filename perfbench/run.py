"""qrobust benchmark: one workload per call, result as one JSON line.

    python3 perfbench/run.py --workload sample-mixed --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; nothing needs to be installed beyond
numpy.  Each workload runs in its own single-threaded Python process
(``workload.py``).  Set-up is repeated in separate processes, one at a time,
and ``setup_s`` is the median.  ``--trace 1`` reports per-layer metrics
instead of end-to-end ones.  ``--workload all`` runs every workload in turn
and prints one line each.  The exit code is 0 only when every process ran to
its end.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sample-mixed", "oracle-search", "verify-suite")
SETUP_SAMPLES = 7
DEADLINE_S = 170.0
SINGLE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                         "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchmarkError(RuntimeError):
    pass


def _child(args, tmp, mode, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before the workload finished")
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode, "--tmp", str(tmp)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **SINGLE_THREAD},
                              stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{args.workload} {mode} did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"{args.workload} {mode} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args):
    deadline = time.monotonic() + DEADLINE_S
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        setups = [] if args.trace else [_child(args, tmp, "setup", deadline)["setup_s"]
                                        for _ in range(SETUP_SAMPLES - 1)]
        result = _child(args, tmp, "run", deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still be using it
            scratch.rmdir()
    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be nonnegative and --seconds at least 1")
    if not (ROOT / "src" / "qrobust" / "__init__.py").is_file():
        print(f"error: no qrobust sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            result = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
            if args.workload == "all":
                result = {"workload": name, **result}
            print(json.dumps(result))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
