"""Self-test of the benchmark's checks: corrupted outputs must be caught.

    python3 perfbench/selftest.py

Runs one round of ``sample-mixed`` and checks it twice: as produced, which
must pass, and with one entangled row's ``s_formula`` scaled by 1 + 1e-6,
which must be reported.  Then checks one ``oracle-search`` result as
produced and with ``s_best`` moved below the negativity.  Exits 0 when every
corruption is caught and no clean output is flagged.
"""

from __future__ import annotations

import contextlib
import dataclasses
import shutil
import sys
import tempfile
from pathlib import Path

import workload as wl
from workload import SampleMixed

import checks


def _corrupt_s_formula(data: bytes):
    """Scale s_formula of the first entangled row; return the new bytes and its seed index."""
    lines = data.decode("utf-8").splitlines()
    header = lines[0].split(",")
    col = header.index("s_formula")
    for n, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if float(cells[col]) > 0.0:
            cells[col] = repr(float(cells[col]) * (1.0 + 1e-6))
            lines[n] = ",".join(cells)
            return ("\n".join(lines) + "\n").encode("utf-8"), int(cells[0])
    raise AssertionError("no entangled row to corrupt")


def sample_caught(q, tmp) -> bool:
    workload = SampleMixed(0, tmp, q)
    _, outputs = workload.run_round()
    clean = workload.check_round(outputs)
    code, data = outputs[0]
    bad, index = _corrupt_s_formula(data)
    workload.reference = None
    corrupted = workload.check_round([(code, bad)] + outputs[1:])
    ensemble, first = workload.calls[0][:2]
    hits = [p for p in corrupted[2] if p.startswith(f"{ensemble} seed {first + index}:")]
    print(f"sample-mixed clean round: {len(clean[2])} problems; corrupted row: {hits}")
    return not clean[2] and bool(hits) and len(corrupted[2]) == len(hits)


def oracle_caught(q) -> bool:
    rho = None
    candidate = 3_000_000
    while rho is None or checks.pt_min_eig(rho.matrix) >= 0.0:
        rho = q.sample_state("ginibre", candidate)
        candidate += 1
    result = q.minimize_absolute_robustness(rho, 1, candidate)
    s_formula = result.s_best + result.gap_to_formula
    clean = checks.oracle_problems(rho.matrix, result.s_best, result.best_direction.matrix, s_formula)
    low = dataclasses.replace(result, s_best=0.5 * checks.negativity(rho.matrix))
    caught = checks.oracle_problems(rho.matrix, low.s_best, low.best_direction.matrix, s_formula)
    print(f"oracle-search clean result: {clean}; s_best below negativity: {caught}")
    return not clean and any("below negativity" in p for p in caught)


def main() -> int:
    sys.path.insert(0, str(wl.ROOT / "src"))
    import qrobust
    from qrobust import cli  # noqa: F401 - binds qrobust.cli

    scratch = wl.ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    try:
        ok = sample_caught(qrobust, tmp) and oracle_caught(qrobust)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still be using it
            scratch.rmdir()
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
