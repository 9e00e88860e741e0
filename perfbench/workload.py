"""One workload in one single-threaded process: set-up, timed rounds, checks.

Run by ``run.py``; prints one JSON line on stdout.  ``--mode setup`` stops
after set-up and reports its time only.  Every round repeats the same
operations on the same inputs, so the share of failed operations is fixed.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # set-up time counts from here, numpy's import included

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

# Bures seed 61: rho is full rank and entangled (C ~ 0.47), but the program's
# lambda_4 = 2.3e-9 falls below the relative rank threshold, so robustness
# raises RankDeficient and the row carries nan.  Kept in every round.
BURES_FAULT_SEED = 61


def _csv_rows(data: bytes):
    reader = csv.DictReader(io.StringIO(data.decode("utf-8")))
    return [{k: (int(v) if k == "seed_index" else float(v)) for k, v in row.items()} for row in reader]


class SampleMixed:
    """``qrobust sample`` over four ensembles plus the fixed Bures seed-61 row."""

    ENSEMBLES = ("ginibre", "bures", "bell_diagonal", "coset")
    PER_ENSEMBLE = 50
    TRACE_ROUNDS = 3

    def __init__(self, seed, tmp, q):
        self.q = q
        self.calls = []       # (ensemble, first seed, count, csv path)
        self.states = {}      # (ensemble, seed) -> rho
        for e, ensemble in enumerate(self.ENSEMBLES):
            start = 1_000_000 * (e + 1) + 1000 * seed
            first, drawn = clean_window(lambda s: q.sample_state(ensemble, s).matrix,
                                        checks.near_rank_deficient, start, self.PER_ENSEMBLE)
            self.states.update({(ensemble, s): m for s, m in drawn.items()})
            self.calls.append((ensemble, first, self.PER_ENSEMBLE, tmp / f"{ensemble}.csv"))
        self.calls.append(("bures", BURES_FAULT_SEED, 1, tmp / "bures-61.csv"))
        self.states["bures", BURES_FAULT_SEED] = q.sample_state("bures", BURES_FAULT_SEED).matrix
        self.ops_per_round = sum(c[2] for c in self.calls)
        self.reference = self.reference_verdict = None   # first round's bytes, checked row by row
        warm_up(q, tmp)

    def run_round(self):
        elapsed, outputs = 0.0, []
        for ensemble, first, count, path in self.calls:
            argv = ["sample", "--ensemble", ensemble, "--n", str(count), "--seed", str(first),
                    "--out", str(path)]
            t = time.perf_counter()
            code = self.q.cli.main(argv)
            elapsed += time.perf_counter() - t
            outputs.append((code, path.read_bytes()))
        return elapsed, outputs

    def check_round(self, outputs):
        if outputs == self.reference:
            return self.reference_verdict
        attempted, failed, problems = 0, 0, []
        for (ensemble, first, count, _), (code, data) in zip(self.calls, outputs):
            if code != 0:
                attempted += count
                failed += count
                continue
            rows = _csv_rows(data)
            if len(rows) != count:
                problems.append(f"{ensemble}: {len(rows)} rows for --n {count}")
            for row in rows:
                attempted += 1
                rho = self.states[ensemble, first + row["seed_index"]]
                if math.isnan(row["s_formula"]) or math.isnan(row["s_bisection"]):
                    failed += 1
                    continue
                sigma = None
                if row["s_formula"] > 0.0:
                    sigma = self.q.robustness(self.q.DensityMatrix(rho)).rho_pp.matrix
                for p in checks.sample_row_problems(row, rho, sigma, ensemble):
                    problems.append(f"{ensemble} seed {first + row['seed_index']}: {p}")
        verdict = (attempted, failed, problems)
        if self.reference is None:
            self.reference, self.reference_verdict = outputs, verdict
        return verdict


class OracleSearch:
    """Absolute-robustness search: direct calls on entangled full-rank Ginibre
    states, and ``qrobust analyze`` on rank-deficient states (oracle fallback)."""

    GINIBRE = 6
    BUDGET = 3
    TRACE_ROUNDS = 1

    def __init__(self, seed, tmp, q):
        self.q = q
        self.ginibre = []     # (search seed, DensityMatrix)
        candidate = 3_000_000 + 1000 * seed
        while len(self.ginibre) < self.GINIBRE:
            rho = q.sample_state("ginibre", candidate)
            m = rho.matrix
            if checks.pt_min_eig(m) < 0.0 and not checks.near_rank_deficient(m):
                self.ginibre.append((candidate, rho))
            candidate += 1
        rng = np.random.default_rng(4_000_000 + seed)
        theta = rng.uniform(0.1, math.pi / 4.0)
        a, b = math.cos(theta), math.sin(theta)
        pure = np.zeros(4, dtype=complex)
        pure[0], pure[3] = a, b
        self.pure_ab = (a, b)
        self.files = [
            (tmp / "pure.json", np.outer(pure, pure.conj()), self.pure_ab),
            (tmp / "rank2.json", _entangled_rank2(rng), None),
        ]
        for path, m, _ in self.files:
            _write_state(path, m)
        self.ops_per_round = len(self.ginibre) + len(self.files)
        warm_up(q, tmp)

    def run_round(self):
        elapsed, results, reports = 0.0, [], []
        for search_seed, rho in self.ginibre:
            t = time.perf_counter()
            results.append(self.q.minimize_absolute_robustness(rho, self.BUDGET, search_seed))
            elapsed += time.perf_counter() - t
        for path, _, _ in self.files:
            out = path.with_suffix(".report.json")
            t = time.perf_counter()
            code = self.q.cli.main(["analyze", "--in", str(path), "--out", str(out)])
            elapsed += time.perf_counter() - t
            reports.append((code, out.read_text(encoding="utf-8") if code == 0 else None))
        return elapsed, (results, reports)

    def check_round(self, outputs):
        results, reports = outputs
        failed, problems = 0, []
        for (search_seed, rho), result in zip(self.ginibre, results):
            s_formula = result.s_best + result.gap_to_formula
            if not math.isfinite(s_formula):
                problems.append(f"ginibre {search_seed}: no closed form for a full-rank state")
                s_formula = None
            for p in checks.oracle_problems(rho.matrix, result.s_best, result.best_direction.matrix,
                                            s_formula=s_formula):
                problems.append(f"ginibre {search_seed}: {p}")
        for (path, m, pure_ab), (code, text) in zip(self.files, reports):
            if code != 0:
                failed += 1
                continue
            report = json.loads(text)
            found = []
            if report.get("method") != "oracle_estimate":
                found.append(f"method {report.get('method')!r}, expected the oracle fallback")
            conc = report["decomposition"]["concurrence"]
            if abs(conc - checks.concurrence(m)) > checks.CONCURRENCE_TOL:
                found.append(f"concurrence {conc!r} differs from the spectrum route")
            found += checks.oracle_problems(m, report["oracle"]["s_best"], None, pure_ab=pure_ab)
            problems += [f"{path.name}: {p}" for p in found]
        return self.ops_per_round, failed, problems


def _entangled_rank2(rng):
    """p |psi><psi| + (1-p) |phi><phi| with Haar-random kets, redrawn until NPT."""
    while True:
        kets = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        kets /= np.linalg.norm(kets, axis=1, keepdims=True)
        p = rng.uniform(0.55, 0.95)
        m = p * np.outer(kets[0], kets[0].conj()) + (1.0 - p) * np.outer(kets[1], kets[1].conj())
        if checks.pt_min_eig(m) < -1e-3:
            return m


def _write_state(path, m):
    payload = {"basis": "uu,ud,du,dd",
               "re": [[float(x) for x in row] for row in m.real],
               "im": [[float(x) for x in row] for row in m.imag]}
    path.write_text(json.dumps(payload), encoding="utf-8")


class VerifySuite:
    """``qrobust verify --corpus N``; one operation is one property group."""

    CORPUS = 50
    TRACE_ROUNDS = 3
    _LINE = re.compile(r"^\[(PASS|FAIL)\] ")
    _ENTANGLED = re.compile(r"(\d+) entangled states")

    def __init__(self, seed, tmp, q):
        self.q = q
        self.seed, drawn = clean_window(lambda s: q.sample_state("ginibre", s).matrix,
                                        checks.weakly_entangled, 10_000 + 1000 * seed, self.CORPUS)
        self.npt = sum(checks.pt_min_eig(drawn[self.seed + i]) < 0.0 for i in range(self.CORPUS))
        self.ops_per_round = None   # known after the first call
        warm_up(q, tmp)

    def run_round(self):
        buf = io.StringIO()
        t = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = self.q.cli.main(["verify", "--corpus", str(self.CORPUS), "--seed", str(self.seed)])
        return time.perf_counter() - t, (code, buf.getvalue())

    def check_round(self, outputs):
        code, text = outputs
        lines = [line for line in text.splitlines() if self._LINE.match(line)]
        if self.ops_per_round is None:
            self.ops_per_round = len(lines)
        failed = sum(line.startswith("[FAIL]") for line in lines)
        problems = []
        if not lines:
            problems.append("verify printed no property groups")
        if (code != 0) != (failed > 0):
            problems.append(f"verify exited {code} with {failed} failed groups")
        counts = [int(m.group(1)) for line in lines for m in [self._ENTANGLED.search(line)] if m]
        if counts != [self.npt]:
            problems.append(f"entangled-state count {counts} differs from the NPT count {self.npt}")
        return len(lines), failed, problems


def clean_window(draw, bad, start, count):
    """First run of ``count`` consecutive seeds from ``start`` on which no
    ``bad(draw(seed))``; returns its first seed and every draw made."""
    drawn = {}
    first = seed = start
    while seed < first + count:
        drawn[seed] = draw(seed)
        if bad(drawn[seed]):
            first = seed + 1
        seed += 1
    return first, drawn


WORKLOADS = {"sample-mixed": SampleMixed, "oracle-search": OracleSearch, "verify-suite": VerifySuite}


def warm_up(q, tmp):
    """Pay first-call costs of every layer on one small sample each."""
    for ensemble in ("ginibre", "coset"):
        q.cli.main(["sample", "--ensemble", ensemble, "--n", "1", "--seed", "0",
                    "--out", str(tmp / "warm.csv")])


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    def __init__(self):
        self.attempted = self.failed = 0
        self.problems = []

    def add(self, verdict):
        attempted, failed, problems = verdict
        self.attempted += attempted
        self.failed += failed
        self.problems += problems


def measure(workload, seconds, tally):
    """Whole rounds until ``seconds`` of program time have been measured."""
    times = []
    while sum(times) < seconds or len(times) < 3:
        elapsed, outputs = workload.run_round()
        times.append(elapsed)
        tally.add(workload.check_round(outputs))
    return times


def trace(workload, tally):
    """The same rounds untraced and traced, alternating; per-layer metrics
    come from the traced rounds."""
    from spans import Tracer

    tracer = Tracer()
    plain = traced = 0.0
    for _ in range(workload.TRACE_ROUNDS):
        elapsed, outputs = workload.run_round()
        plain += elapsed
        tally.add(workload.check_round(outputs))
        tracer.install()
        try:
            elapsed, outputs = workload.run_round()
        finally:
            tracer.uninstall()
        traced += elapsed
        tally.add(workload.check_round(outputs))
    metrics = {}
    for name in ("numerics.hermitian_eig", "numerics.takagi", "states.DensityMatrix",
                 "wootters.decompose", "robustness.robustness", "states.ppt_min_eig",
                 "oracle.bisect_relative_robustness", "oracle.minimize_absolute_robustness",
                 "coset.density_from_params"):
        metrics[f"{name}.calls"] = (tracer.calls[name], "count")
        metrics[f"{name}.self_s"] = (tracer.self_s[name], "s")
    for name in ("states.sample_state", "verify.run_all", "cli.main"):
        metrics[f"{name}.self_s"] = (tracer.self_s[name], "s")
    bisections = tracer.calls["oracle.bisect_relative_robustness"]
    metrics["oracle.ppt_per_bisection"] = (tracer.ppt_in_bisection / bisections if bisections else 0.0,
                                           "ratio")
    metrics["oracle.evaluations"] = (tracer.evaluations, "count")
    metrics["trace.overhead_s"] = (traced - plain, "s")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--tmp", required=True)
    args = parser.parse_args(argv)
    tmp = Path(args.tmp)

    sys.path.insert(0, str(ROOT / "src"))
    import qrobust
    from qrobust import cli  # noqa: F401 - binds qrobust.cli for the workloads

    workload = WORKLOADS[args.workload](args.seed, tmp, qrobust)
    setup_s = time.perf_counter() - _STARTED
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tally = Tally()
    if args.trace:
        metrics = trace(workload, tally)
    else:
        times = measure(workload, args.seconds, tally)
        wall = statistics.fmean(times)  # steadier than the median under host contention
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
            "ops_per_s": (workload.ops_per_round / wall, "ops/s"),
            "wall_s": (wall, "s"),
        }
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
