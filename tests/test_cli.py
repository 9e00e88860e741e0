import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qrobust
from qrobust import cli, oracle, states, verify, wootters
from qrobust.cli import main
from qrobust.numerics import NumericalFailure
from qrobust.robustness import RankDeficient, robustness
from qrobust.states import (BellWeights, DensityMatrix, bell_diagonal, read_state, sample_state, werner,
                            write_state)
from qrobust.tolerances import DEFAULT

BELL_ARGS = ["--theta1", "0", "--theta2", "0", "--xi1", "0", "--xi2", "0",
             "--phi1", "0", "--phi2", "0", "--lambda", "0.7,0.1,0.1,0.1"]


def test_param_reproduces_bell_diagonal_state(tmp_path, capsys):
    out = tmp_path / "state.json"
    assert main(["param", *BELL_ARGS, "--out", str(out)]) == 0
    # construction-route rounding differs by at most one ulp per entry
    reference = bell_diagonal(BellWeights(np.array([0.7, 0.1, 0.1, 0.1])))
    assert np.max(np.abs(read_state(out).matrix - reference.matrix)) <= 1e-15
    printed = capsys.readouterr().out
    assert "Y orthogonality residual" in printed
    report = json.loads((tmp_path / "state.json.analysis.json").read_text())
    assert abs(report["certificate"]["s"] - 0.4) <= 1e-9
    # the command itself is byte deterministic
    again = tmp_path / "state2.json"
    assert main(["param", *BELL_ARGS, "--out", str(again)]) == 0
    assert out.read_bytes() == again.read_bytes()


def test_param_rejects_negative_xi(tmp_path, capsys):
    args = ["param", "--theta1", "0", "--theta2", "0", "--xi1", "-0.5", "--xi2", "0",
            "--phi1", "0", "--phi2", "0", "--lambda", "0.7,0.1,0.1,0.1",
            "--out", str(tmp_path / "x.json")]
    assert main(args) == 2
    assert "xi" in capsys.readouterr().err


def test_param_rejects_zero_weights(tmp_path, capsys):
    args = ["param", "--theta1", "0", "--theta2", "0", "--xi1", "0", "--xi2", "0",
            "--phi1", "0", "--phi2", "0", "--lambda", "0,0,0,0",
            "--out", str(tmp_path / "x.json")]
    assert main(args) == 2


@pytest.mark.parametrize("flag, value", [
    ("--theta1", "inf"), ("--theta1", "1e300"), ("--lambda", "inf,0.3,0.1,0.1"), ("--lambda", "nan,0.3,0.1,0.1"),
])
def test_param_non_finite_or_overflowing_input_exits_2(tmp_path, capsys, flag, value):
    # an angle or weight that is not finite, or an angle whose cosh overflows,
    # is an input error, not a RuntimeWarning (which pytest turns into an error)
    args = {**dict(zip(BELL_ARGS[::2], BELL_ARGS[1::2])), flag: value}
    out = tmp_path / "x.json"
    assert main(["param", *(item for pair in args.items() for item in pair), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


def test_public_names_resolve_and_star_import_works():
    assert len(set(qrobust.__all__)) == len(qrobust.__all__)
    assert all(hasattr(qrobust, name) for name in qrobust.__all__)
    namespace = {}
    exec("from qrobust import *", namespace)
    assert set(qrobust.__all__) <= namespace.keys()


def test_analyze_bell_diagonal(tmp_path, capsys):
    state = tmp_path / "bell.json"
    write_state(bell_diagonal(BellWeights(np.array([0.7, 0.1, 0.1, 0.1]))), state)
    assert main(["analyze", "--in", str(state)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["method"] == "closed_form"
    assert abs(report["certificate"]["s"] - 0.4) <= 1e-9
    assert abs(report["decomposition"]["concurrence"] - 0.4) <= 1e-9


def test_analyze_maximally_mixed(tmp_path, capsys):
    state = tmp_path / "mixed.json"
    write_state(DensityMatrix(np.eye(4) / 4.0), state)
    assert main(["analyze", "--in", str(state)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["certificate"]["s"] == 0.0
    assert report["decomposition"]["concurrence"] == 0.0


def test_analyze_pure_state_falls_back_to_oracle(tmp_path, capsys):
    state = tmp_path / "singlet.json"
    write_state(werner(1.0), state)
    assert main(["analyze", "--in", str(state)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["method"] == "oracle_estimate"
    block = report["oracle"]
    assert block["route"] == "sdp"
    assert block["s_lower"] <= 1.0 <= block["s_best"] <= 2.0 + 1e-6   # R(singlet) = 1
    assert block["duality_gap"] <= 1e-6 and block["newton_steps"] > 0
    assert isinstance(block["converged"], bool)


def test_analyze_no_fallback_exit_code(tmp_path, capsys):
    state = tmp_path / "singlet.json"
    write_state(werner(1.0), state)
    assert main(["analyze", "--in", str(state), "--no-fallback"]) == 3


def test_analyze_oracle_verification_block(tmp_path, capsys):
    state = tmp_path / "bell.json"
    write_state(bell_diagonal(BellWeights(np.array([0.7, 0.1, 0.1, 0.1]))), state)
    assert main(["analyze", "--in", str(state)]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert main(["analyze", "--in", str(state), "--oracle"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verification"]["passed"]
    assert report["verification"]["checks"]["crossing"]["passed"]
    assert report["certificate"]["residuals"] == plain["certificate"]["residuals"]
    block = report["verification"]["oracle"]
    assert block["s_best"] <= 0.4 + 1e-6
    assert block["route"] == "sdp" and block["s_lower"] <= 0.4
    assert {"duality_gap", "newton_steps", "converged"} <= block.keys()


def _counting(monkeypatch, module, name):
    calls, real = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_analyze_fallback_decomposes_once(tmp_path, monkeypatch, capsys):
    # the oracle fallback reuses analyze's decomposition, and its report is
    # the one the public search gives
    state = tmp_path / "singlet.json"
    write_state(werner(1.0), state)
    calls = _counting(monkeypatch, wootters, "decompose_stack")
    assert main(["analyze", "--in", str(state)]) == 0
    assert len(calls) == 1
    monkeypatch.undo()
    rho = read_state(state)
    with pytest.raises(RankDeficient) as exc:
        robustness(rho)
    expected = {"input": str(state), "decomposition": exc.value.decomposition.to_report(),
                "method": "oracle_estimate",
                "oracle": {**oracle.minimize_absolute_robustness(rho).to_report(), "note": str(exc.value)}}
    assert capsys.readouterr().out == json.dumps(cli._jsonify(expected), indent=1) + "\n"


def test_analyze_oracle_runs_the_certificate_checks_once(tmp_path, monkeypatch, capsys):
    # the audit takes the run behind the residuals, and its report is the
    # public audit's
    state = tmp_path / "bell.json"
    write_state(bell_diagonal(BellWeights(np.array([0.7, 0.1, 0.1, 0.1]))), state)
    calls = _counting(monkeypatch, verify, "certificate_checks")
    assert main(["analyze", "--in", str(state), "--oracle"]) == 0
    assert len(calls) == 1
    monkeypatch.undo()
    rho = read_state(state)
    expected = cli._jsonify(verify.verify_certificate(rho, robustness(rho), oracle=True))
    assert json.loads(capsys.readouterr().out)["verification"] == expected


def test_analyze_missing_file(tmp_path, capsys):
    assert main(["analyze", "--in", str(tmp_path / "absent.json")]) == 4


def test_analyze_invalid_state(tmp_path, capsys):
    state = tmp_path / "bad.json"
    write_state(DensityMatrix(np.eye(4) / 4.0), state)
    payload = json.loads(state.read_text())
    payload["re"][0][0] = 0.15
    state.write_text(json.dumps(payload))
    assert main(["analyze", "--in", str(state)]) == 2
    assert "trace" in capsys.readouterr().err


def test_analyze_out_file(tmp_path):
    state = tmp_path / "mixed.json"
    write_state(DensityMatrix(np.eye(4) / 4.0), state)
    out = tmp_path / "report.json"
    assert main(["analyze", "--in", str(state), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["certificate"]["s"] == 0.0


def test_sample_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sample", "--ensemble", "ginibre", "--n", "10", "--seed", "7", "--out", str(a)]) == 0
    assert main(["sample", "--ensemble", "ginibre", "--n", "10", "--seed", "7", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sample_bell_diagonal_unit_k(tmp_path):
    out = tmp_path / "bell.csv"
    assert main(["sample", "--ensemble", "bell_diagonal", "--n", "25", "--seed", "0",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["seed_index", "concurrence"]
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        for col in ("K1", "K2", "K3", "K4"):
            assert abs(float(row[col]) - 1.0) <= 1e-9
        assert abs(float(row["s_formula"]) - float(row["concurrence"])) <= 1e-9


def test_sample_coset_agreement_column(tmp_path):
    out = tmp_path / "coset.csv"
    assert main(["sample", "--ensemble", "coset", "--n", "25", "--seed", "3",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    idx = header.index("k_agreement")
    for line in lines[1:]:
        assert float(line.split(",")[idx]) <= 1e-9


def test_sample_rank_deficient_row_is_nan_in_closed_form_columns(tmp_path):
    # Bures seed 61 has rank 3: K4 is undefined, so no pair sum involving it exists
    out = tmp_path / "rank3.csv"
    assert main(["sample", "--ensemble", "bures", "--n", "1", "--seed", "61", "--out", str(out)]) == 0
    header, row = (line.split(",") for line in out.read_text().splitlines())
    values = dict(zip(header, row))
    assert all(values[column] == "nan" for column in ("K4", "min_pair_sum", "s_formula", "s_bisection"))
    assert all(values[column] != "nan" for column in ("concurrence", "K1", "K2", "K3"))


def test_tolerance_scale_changes_no_computed_column(tmp_path, monkeypatch):
    # QROBUST_TOL rescales check bounds only; Bures seed 181 has
    # lambda_4/lambda_1 = 2.0e-8, which a scaled rank cut would drop.
    # s_bisection follows the PPT bound, which defines the crossing.
    argv = ["sample", "--ensemble", "bures", "--n", "200", "--seed", "0", "--out"]
    default, scaled = tmp_path / "default.csv", tmp_path / "scaled.csv"
    assert main([*argv, str(default)]) == 0
    monkeypatch.setenv("QROBUST_TOL", "10")
    assert main([*argv, str(scaled)]) == 0

    def columns(path):
        return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

    assert columns(default)[0].endswith(",s_formula")
    assert columns(scaled) == columns(default)


def test_sample_oracle_columns(tmp_path):
    out = tmp_path / "oracle.csv"
    assert main(["sample", "--ensemble", "ginibre", "--n", "2", "--seed", "0",
                 "--oracle", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[-2:] == ["s_best", "gap"]
    row = dict(zip(header, lines[1].split(",")))
    assert float(row["s_best"]) <= float(row["s_formula"]) + 1e-6


def test_sample_oracle_decomposes_once(tmp_path, monkeypatch):
    # the --oracle columns reuse the chunk's certificates
    calls = _counting(monkeypatch, wootters, "decompose_stack")
    assert main(["sample", "--ensemble", "ginibre", "--n", "6", "--oracle", "--out", str(tmp_path / "o.csv")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("ensemble, seed, n", [("ginibre", 0, 4), ("bures", 59, 4)])
def test_sample_oracle_columns_are_the_public_search(tmp_path, ensemble, seed, n):
    # each row's s_best and gap are those of the search on its state alone;
    # Bures seed 61 is rank deficient: the I/4 reference and a nan gap
    out = tmp_path / "oracle.csv"
    assert main(["sample", "--ensemble", ensemble, "--n", str(n), "--seed", str(seed),
                 "--oracle", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    for i, row in enumerate(rows):
        result = oracle.minimize_absolute_robustness(sample_state(ensemble, seed + i))
        assert row[-2:] == [repr(result.s_best), repr(result.gap_to_formula)]
    if ensemble == "bures":
        assert rows[61 - seed][-1] == "nan" and rows[61 - seed][7] == "nan"


@pytest.mark.parametrize("argv", [
    ["sample", "--ensemble", "ginibre", "--n", "0"],
    ["sample", "--ensemble", "ginibre", "--n", "2", "--seed", "-1"],
    ["verify", "--seed", "-1"],
    ["verify", "--corpus", "0"],
    ["verify", "--corpus", "-3"],
])
def test_bad_count_or_seed_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    assert main(argv + (["--out", str(out)] if argv[0] == "sample" else [])) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and re.fullmatch(r"error: --(n|seed|corpus) must be at least [01]", lines[0])


def test_verify_passes_small_corpus(capsys):
    assert main(["verify", "--corpus", "25", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") >= 10
    assert "[FAIL]" not in out


def test_verify_zero_tolerance_fails(monkeypatch, capsys):
    monkeypatch.setenv("QROBUST_TOL", "0")
    assert main(["verify", "--corpus", "5", "--seed", "0"]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_state_written_by_param_round_trips(tmp_path):
    out = tmp_path / "state.json"
    assert main(["param", *BELL_ARGS, "--out", str(out)]) == 0
    rho = read_state(out)
    expected = bell_diagonal(BellWeights(np.array([0.7, 0.1, 0.1, 0.1])))
    assert np.max(np.abs(rho.matrix - expected.matrix)) <= 1e-15
    # reading back and rewriting is lossless
    second = tmp_path / "rewritten.json"
    write_state(rho, second)
    assert out.read_bytes() == second.read_bytes()


def run_cli(*argv, env=None):
    """Run the command in a fresh interpreter, as a user would."""
    src = str(Path(qrobust.__file__).resolve().parent.parent)
    full_env = {**os.environ, **(env or {}),
                "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.run([sys.executable, "-m", "qrobust.cli", *argv], env=full_env,
                          capture_output=True, text=True, timeout=300)


def test_analyze_nan_entry_is_a_validation_error(tmp_path):
    state = tmp_path / "nan.json"
    write_state(DensityMatrix(np.eye(4) / 4.0), state)
    payload = json.loads(state.read_text())
    payload["im"][1][2] = float("nan")
    state.write_text(json.dumps(payload))
    proc = run_cli("analyze", "--in", str(state))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "finite" in proc.stderr


@pytest.mark.parametrize("text", [
    # an integer literal beyond float range
    '{"re": [[1' + "0" * 400 + ', 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], "im": 0}',
    # arrays nested deeper than the JSON decoder recurses
    '{"re": ' + "[" * 100000 + "]" * 100000 + ', "im": 0}',
], ids=["integer_beyond_float_range", "nested_too_deep"])
def test_analyze_malformed_file_is_a_validation_error(tmp_path, text):
    state = tmp_path / "malformed.json"
    state.write_text(text)
    proc = run_cli("analyze", "--in", str(state))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:")


_FUZZ_TOKENS = [b"NaN", b"Infinity", b"-Infinity", b"1e999", b"1" + b"0" * 400, b"null", b"true", b'"x"',
                b"[]", b"{}", b"[0, 0, 0, 0]", b"-", b".", b"e", b",", b":", b"[", b"]", b"{", b"}", b'"',
                b"\xff\xfe", b"\\u0000", b'"re"', b'"im"', b'"basis"', b"0", b"1", b" "]
_FUZZ_VALUES = [float("nan"), float("inf"), 1e300, -1.0, 0.0, 10 ** 400, True, None, "x", [], {"re": 0},
                [0.0] * 4, [[0.0] * 4] * 3, [[0.0] * 5] * 4]


def _mutate(payload: dict, rng: np.random.Generator) -> bytes:
    """A state file's payload with one value replaced (an entry, a row, a
    block or a key's value), then zero to two random edits of its text: a
    token replacing a span, a span deleted or copied elsewhere, or a cut."""
    payload = json.loads(json.dumps(payload))
    key = ["re", "im", "basis", "extra"][rng.integers(4)]
    value = _FUZZ_VALUES[rng.integers(len(_FUZZ_VALUES))]
    if key in ("re", "im") and rng.integers(3):
        row = payload[key][rng.integers(4)]
        row[rng.integers(4)] = value
    elif rng.integers(4):
        payload[key] = value
    else:
        del payload[["re", "im", "basis"][rng.integers(3)]]
    text = json.dumps(payload).encode()
    for _ in range(rng.integers(3)):
        i = int(rng.integers(len(text) + 1))
        j = min(len(text), i + int(rng.integers(40)))
        kind = rng.integers(4)
        if kind == 0:
            text = text[:i] + _FUZZ_TOKENS[rng.integers(len(_FUZZ_TOKENS))] + text[j:]
        elif kind == 1:
            text = text[:i] + text[j:]
        elif kind == 2:
            k = int(rng.integers(len(text) + 1))
            text = text[:k] + text[i:j] + text[k:]
        else:
            text = text[:i]
    return text


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_analyze_mutated_state_files_never_raise(tmp_path, capsys):
    # 500 seeded mutations of a valid state file: each one is analysed, or
    # rejected as malformed (2) or unreadable (4) with one error line; none
    # raises or warns
    valid = tmp_path / "valid.json"
    write_state(sample_state("ginibre", 0), valid)
    payload = json.loads(valid.read_text())
    rng = np.random.default_rng(2024)
    state, out = tmp_path / "mutated.json", tmp_path / "report.json"
    seen = set()
    for n in range(500):
        state.write_bytes(_mutate(payload, rng))
        code = main(["analyze", "--in", str(state), "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code in (0, 2, 4), (n, state.read_bytes())
        assert (err == []) if code == 0 else (len(err) == 1 and err[0].startswith("error:")), (n, err)
        seen.add(code)
    assert seen >= {0, 2}


def test_analyze_directory_is_an_io_error(tmp_path):
    proc = run_cli("analyze", "--in", str(tmp_path))
    assert proc.returncode == 4
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:")


def test_param_non_numeric_lambda_is_a_validation_error(tmp_path):
    proc = run_cli("param", *BELL_ARGS[:-1], "a,b,c,d", "--out", str(tmp_path / "x.json"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "--lambda" in proc.stderr
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("seed", [45000, 46000])
def test_verify_weakly_entangled_corpus(seed, capsys):
    # states 45040 (C = 8.0e-4) and 46011 (C = 1.2e-4): entanglement just
    # before s must be seen through the PT spectrum, not through C
    assert main(["verify", "--corpus", "50", "--seed", str(seed)]) == 0
    assert "[FAIL]" not in capsys.readouterr().out


def test_verify_zero_tolerance_names_residuals():
    proc = run_cli("verify", "--corpus", "10", env={"QROBUST_TOL": "0"})
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "NumericalFailure" not in proc.stdout
    failing = [line for line in proc.stdout.splitlines() if line.startswith("[FAIL]")]
    assert failing
    for line in failing:
        # a measured residual against its bound, or an exception that names both
        assert "worst nan" not in line or re.search(r"(exceeds|allowed|below) [-+0-9.e]+", line), line


@pytest.mark.parametrize("command", [
    ["analyze", "--in", "{mixed}"],
    ["sample", "--ensemble", "bell_diagonal", "--n", "2", "--out", "{csv}"],
    ["param", *BELL_ARGS, "--out", "{param}"],
    ["sample", "--ensemble", "bures", "--n", "2", "--out", "{csv}"],
    ["sample", "--ensemble", "coset", "--n", "2", "--out", "{csv}"],
])
def test_zero_tolerance_decomposition_failure_names_residual(tmp_path, command):
    # I/4 has trace exactly 1, so it passes validation at QROBUST_TOL=0; the
    # residual checks inside the decomposition then fail on rounding alone.
    # Bures and coset states fail the Hermiticity check, and Bell-diagonal
    # states the trace check, of their own construction by rounding, before
    # any decomposition.
    mixed = tmp_path / "mixed.json"
    write_state(DensityMatrix(np.eye(4) / 4.0), mixed)
    argv = [a.format(mixed=mixed, csv=tmp_path / "s.csv", param=tmp_path / "p.json") for a in command]
    proc = run_cli(*argv, env={"QROBUST_TOL": "0"})
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert re.search(r"= [0-9.e+-]+ exceeds 0\.000e\+00|residual [0-9.e+-]+ exceeds 0\.000e\+00", lines[0])


def _csv_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()]


def test_sample_chunks_equal_separate_runs(tmp_path):
    # --n 300 crosses the boundary of the 256-row chunks; Bures seed 61 is a
    # rank-deficient nan row inside the first chunk
    whole = tmp_path / "whole.csv"
    assert main(["sample", "--ensemble", "bures", "--n", "300", "--seed", "0", "--out", str(whole)]) == 0
    parts = []
    for start in (0, 100, 200):
        part = tmp_path / f"part{start}.csv"
        assert main(["sample", "--ensemble", "bures", "--n", "100", "--seed", str(start),
                     "--out", str(part)]) == 0
        parts += _csv_rows(part)[1:]
    rows = _csv_rows(whole)
    assert rows[0] == _csv_rows(part)[0]
    assert [row[1:] for row in rows[1:]] == [row[1:] for row in parts]
    assert [row[0] for row in rows[1:]] == [str(i) for i in range(300)]
    assert rows[62][7] == "nan"


@pytest.mark.parametrize("failing_index", [0, 5, 260])
def test_sample_failure_keeps_the_earlier_rows(tmp_path, monkeypatch, capsys, failing_index):
    # a residual failure injected at one entry of a chunk: every earlier row
    # is written, then one error line and exit 1
    clean = tmp_path / "clean.csv"
    argv = ["sample", "--ensemble", "ginibre", "--n", "300", "--seed", "4"]
    assert main([*argv, "--out", str(clean)]) == 0
    target = sample_state("ginibre", 4 + failing_index).matrix
    real = wootters.decompose_stack

    def injected(matrices, tol=DEFAULT):
        stack = real(matrices, tol)
        for j, matrix in enumerate(matrices):
            if np.array_equal(matrix, target):
                stack.errors[j] = NumericalFailure("factorization residual 1.000e+00 exceeds 1.000e-07")
        return stack

    monkeypatch.setattr(wootters, "decompose_stack", injected)
    failed = tmp_path / "failed.csv"
    assert main([*argv, "--out", str(failed)]) == 1
    assert failed.read_text().splitlines() == clean.read_text().splitlines()[:failing_index + 1]
    assert capsys.readouterr().err == "error: factorization residual 1.000e+00 exceeds 1.000e-07\n"


def _inject_crossing_failure(monkeypatch, target, error):
    """Make ``relative_robustness_stack`` report ``error`` at every entry whose state is ``target``."""
    real = oracle.relative_robustness_stack

    def injected(rho, sigma, *, tolerances=DEFAULT):
        s, errors = real(rho, sigma, tolerances=tolerances)
        for j, matrix in enumerate(rho):
            if np.array_equal(matrix, target):
                s[j], errors[j] = np.nan, error
        return s, errors

    monkeypatch.setattr(oracle, "relative_robustness_stack", injected)


@pytest.mark.parametrize("failing_index", [5, 260])
def test_sample_crossing_failure_keeps_the_earlier_rows(tmp_path, monkeypatch, capsys, failing_index):
    # a crossing that fails at one entry of a chunk: the rows before it are
    # written, then one error line and exit 1, as for a residual failure
    clean = tmp_path / "clean.csv"
    argv = ["sample", "--ensemble", "ginibre", "--n", "300", "--seed", "4"]
    assert main([*argv, "--out", str(clean)]) == 0
    target = sample_state("ginibre", 4 + failing_index).matrix
    _inject_crossing_failure(monkeypatch, target, oracle.ImproperDirection("injected"))
    failed = tmp_path / "failed.csv"
    assert main([*argv, "--out", str(failed)]) == 1
    assert failed.read_text().splitlines() == clean.read_text().splitlines()[:failing_index + 1]
    assert capsys.readouterr().err == "error: injected\n"


def test_analyze_oracle_crossing_failure_exits_1(tmp_path, monkeypatch, capsys):
    # the certificate's crossing check raises: one error line, exit 1, no report
    rho = sample_state("ginibre", 0)
    state, out = tmp_path / "state.json", tmp_path / "report.json"
    write_state(rho, state)
    _inject_crossing_failure(monkeypatch, read_state(state).matrix,
                             oracle.NotSeparableDirection("direction has PT eigenvalue -1.000e-03"))
    assert main(["analyze", "--in", str(state), "--oracle", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: direction has PT eigenvalue -1.000e-03\n"
    assert not out.exists()


def test_analyze_oracle_mixture_validation_failure_exits_1(tmp_path, monkeypatch, capsys):
    # at this scale the state and its decomposition pass, and the audit's
    # mixture along rho'' misses unit trace by rounding: one error line, exit 1
    state, out = tmp_path / "state.json", tmp_path / "report.json"
    write_state(sample_state("bell_diagonal", 1), state)
    monkeypatch.setenv("QROBUST_TOL", "1e-7")
    assert main(["analyze", "--in", str(state), "--out", str(out)]) == 0
    assert main(["analyze", "--in", str(state), "--oracle", "--out", str(out)]) == 1
    assert re.fullmatch(r"error: mixture along rho'': trace deviates from 1: .*\n", capsys.readouterr().err)


@pytest.mark.parametrize("n, failing_index", [(10, 7), (300, 0), (300, 5), (300, 260)])
def test_sample_generation_failure_keeps_the_earlier_rows(tmp_path, monkeypatch, capsys, n, failing_index):
    # an invalid matrix injected into the stacked draw at one entry: every
    # earlier row is written, then one error line naming its seed, and exit 1
    clean = tmp_path / "clean.csv"
    argv = ["sample", "--ensemble", "ginibre", "--n", str(n), "--seed", "0"]
    assert main([*argv, "--out", str(clean)]) == 0
    target = sample_state("ginibre", failing_index).matrix
    real = states._ginibre_stack

    def injected(rngs, shape):
        matrices = real(rngs, shape)
        for m in matrices:
            if np.array_equal(m, target):
                m[0, 1] += 1e-3
        return matrices

    monkeypatch.setattr(states, "_ginibre_stack", injected)
    failed = tmp_path / "failed.csv"
    assert main([*argv, "--out", str(failed)]) == 1
    assert failed.read_text().splitlines() == clean.read_text().splitlines()[:failing_index + 1]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: seed {failing_index}: generated state failed validation")
    assert err[0].endswith(": not Hermitian: max |rho - rho^dag| = 1.000e-03 exceeds 1.000e-09")


def test_main_looks_each_command_up_when_it_runs(tmp_path, monkeypatch):
    # the parser is built once per process and holds no function, so a
    # command replaced after it was built (a tracer's wrapper, a test double)
    # is the one that runs
    missing = str(tmp_path / "missing.json")
    assert main(["analyze", "--in", missing]) == 4
    monkeypatch.setattr(cli, "cmd_analyze", lambda args, tol: 99)
    assert main(["analyze", "--in", missing]) == 99
