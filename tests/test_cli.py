import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qrobust
from conftest import inject_state, rank_two_state
from qrobust import cli, oracle, states, verify, wootters
from qrobust.cli import main
from qrobust.numerics import NumericalFailure
from qrobust.robustness import RankDeficient, robustness
from qrobust.states import (BellWeights, DensityMatrix, bell_diagonal, read_state, sample_state, werner,
                            write_state)
from qrobust.tolerances import DEFAULT

BELL_ARGS = ["--theta1", "0", "--theta2", "0", "--xi1", "0", "--xi2", "0",
             "--phi1", "0", "--phi2", "0", "--lambda", "0.7,0.1,0.1,0.1"]


def test_epilog_lists_each_algorithm_constant_at_its_value():
    listed = re.findall(r"^ +(\w+)\.([A-Z_]+) +(\S+) ", cli._EPILOG, re.MULTILINE)
    assert [name for _, name, _ in listed] == ["TAKAGI_CLUSTER", "RANK_CUT", "TIE", "CROSSING_WIDTH",
                                               "PPT_CUT", "SDP_GAP"]
    for module, name, value in listed:
        assert float(value) == getattr(getattr(qrobust, module), name), name


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


def test_readme_quick_tour_runs_as_written():
    # the one python block of README.md, and the claims in its comments
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0], namespace)
    cert, s, report, result = (namespace[name] for name in ("cert", "s", "report", "result"))
    assert abs(cert.s - 0.4) <= 1e-12 and abs(s - cert.s) <= 1e-10
    assert report["passed"]
    assert result.s_lower <= 0.4 <= result.s_best


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


def test_analyze_oracle_brackets_the_rank_two_family(tmp_path, capsys):
    # rank deficient, so analyze takes the oracle; R = p^2/(4(1 - p)) is known
    state = tmp_path / "rank2.json"
    write_state(rank_two_state(0.1), state)
    assert main(["analyze", "--in", str(state), "--oracle"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["method"] == "oracle_estimate"
    assert report["oracle"]["s_lower"] <= 0.1 ** 2 / (4.0 * 0.9) <= report["oracle"]["s_best"]


def test_analyze_rejects_no_fallback_as_a_usage_error(tmp_path, capsys):
    # a rank-deficient state always gets the oracle estimate; the flag that
    # swapped it for an error is gone, so argparse rejects it before any report
    state, out = tmp_path / "singlet.json", tmp_path / "report.json"
    write_state(werner(1.0), state)
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--in", str(state), "--no-fallback", "--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if line.startswith("usage:")] == [
        "usage: qrobust [-h] {analyze,sample,param,verify} ..."]
    assert "unrecognized arguments: --no-fallback" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("make, r", [
    (lambda: bell_diagonal(BellWeights(np.array([0.7, 0.1, 0.1, 0.1]))), 0.4),
    (lambda: bell_diagonal(BellWeights(np.array([0.6, 0.2, 0.1, 0.1]))), 0.2),   # pair sums tie to rounding
    (lambda: werner(0.8), 0.7),
], ids=["bell_0.7", "bell_0.6", "werner_0.8"])
def test_analyze_oracle_verification_block(tmp_path, capsys, make, r):
    # R = C on the Bell-decomposable family
    state = tmp_path / "state.json"
    write_state(make(), state)
    assert main(["analyze", "--in", str(state)]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert main(["analyze", "--in", str(state), "--oracle"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verification"]["passed"]
    assert report["verification"]["checks"]["crossing"]["passed"]
    assert report["certificate"]["residuals"] == plain["certificate"]["residuals"]
    block = report["verification"]["oracle"]
    assert block["s_best"] <= r + 1e-6
    assert block["route"] == "sdp" and block["s_lower"] <= r
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
    assert capsys.readouterr().out == json.dumps(expected, indent=1) + "\n"


def test_analyze_oracle_runs_the_certificate_checks_once(tmp_path, monkeypatch, capsys):
    # the audit takes the run behind the residuals, and its report is the
    # public audit's; the plain report reads the same blocks from its own run
    state = tmp_path / "bell.json"
    write_state(bell_diagonal(BellWeights(np.array([0.7, 0.1, 0.1, 0.1]))), state)
    calls = _counting(monkeypatch, verify, "certificate_checks")
    assert main(["analyze", "--in", str(state)]) == 0
    assert len(calls) == 1
    plain = json.loads(capsys.readouterr().out)
    calls.clear()
    assert main(["analyze", "--in", str(state), "--oracle"]) == 0
    assert len(calls) == 1
    monkeypatch.undo()
    report = json.loads(capsys.readouterr().out)
    for block in ("decomposition", "certificate"):
        assert json.dumps(report[block]) == json.dumps(plain[block])
    rho = read_state(state)
    expected = verify.verify_certificate(rho, robustness(rho), oracle=True)
    assert report["verification"] == expected


def test_each_crossing_is_located_once(tmp_path, monkeypatch):
    # one stacked call per pass, over the rho'' rows and the SDP directions'
    # rows: analyze --oracle, the crossing along rho'' and the one along the
    # SDP direction; analyze, the one along rho''; the rank-deficient
    # fallback, none along rho'' and the one along the SDP direction;
    # sample --oracle, per chunk, one along each rho'' and one along the SDP
    # direction of each NPT row; the search, the two of analyze --oracle
    state, singlet = tmp_path / "bell.json", tmp_path / "singlet.json"
    write_state(bell_diagonal(BellWeights(np.array([0.7, 0.1, 0.1, 0.1]))), state)
    write_state(werner(1.0), singlet)
    calls = _counting(monkeypatch, oracle, "relative_robustness_stack")
    assert main(["analyze", "--in", str(state), "--oracle", "--out", str(tmp_path / "r.json")]) == 0
    assert [len(args[0]) for args in calls] == [2]
    for path, entries in ((state, [1]), (singlet, [1])):
        calls.clear()
        assert main(["analyze", "--in", str(path), "--out", str(tmp_path / "r.json")]) == 0
        assert [len(args[0]) for args in calls] == entries
    argv = ["sample", "--ensemble", "ginibre", "--n", "6", "--seed", "0", "--oracle", "--out", str(tmp_path / "o.csv")]
    for chunk, stacked in ((cli._SAMPLE_CHUNK, 1), (3, 2)):
        monkeypatch.setattr(cli, "_SAMPLE_CHUNK", chunk)
        calls.clear()
        assert main(argv) == 0
        assert sum(len(args[0]) for args in calls) == 12 and len(calls) == stacked
    calls.clear()
    rho = sample_state("ginibre", 0)
    assert robustness(rho).s > 0.0
    oracle.minimize_absolute_robustness(rho)
    assert [len(args[0]) for args in calls] == [2]


def test_failing_crossing_along_rho_pp_does_not_stop_the_search(tmp_path, monkeypatch, capsys):
    # NotSeparableDirection on the rho'' row of Ginibre seed 0 only, matched on
    # the direction: the search returns the bits it returns without it, and
    # analyze --oracle on that state exits 1 with the error line
    state, out = tmp_path / "state.json", tmp_path / "report.json"
    write_state(sample_state("ginibre", 0), state)
    rho = read_state(state)
    rho_pp = robustness(rho).rho_pp.matrix
    clean = oracle.minimize_absolute_robustness(rho)
    real = oracle.relative_robustness_stack
    error = oracle.NotSeparableDirection("direction has PT eigenvalue -1.000e-03")
    hits = []

    def injected(rho_stack, sigma):
        s, errors = real(rho_stack, sigma)
        for j, direction in enumerate(sigma):
            if np.array_equal(direction, rho_pp):
                hits.append(j)
                s[j], errors[j] = np.nan, error
        return s, errors

    def bits(result):
        return [v.matrix.tobytes() if isinstance(v, DensityMatrix) else repr(v) for v in vars(result).values()]

    monkeypatch.setattr(oracle, "relative_robustness_stack", injected)
    assert bits(oracle.minimize_absolute_robustness(rho)) == bits(clean) and hits == [0]
    assert main(["analyze", "--in", str(state), "--oracle", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: direction has PT eigenvalue -1.000e-03\n"
    assert not out.exists() and hits == [0, 0]


def _reject_constant(name):
    raise ValueError(f"{name} in a report")


def test_reports_are_strict_json(tmp_path, capsys):
    # reports are dumped as built, so no value may be NaN or infinite; a
    # numpy integer or bool would end the dump in a TypeError
    bell, singlet = tmp_path / "bell.json", tmp_path / "singlet.json"
    write_state(bell_diagonal(BellWeights(np.array([0.7, 0.1, 0.1, 0.1]))), bell)
    write_state(werner(1.0), singlet)
    texts = []
    for extra in ([], ["--oracle"]):
        for state in (bell, singlet):
            assert main(["analyze", "--in", str(state), *extra]) == 0
            texts.append(capsys.readouterr().out)
        for lam in ("0.7,0.1,0.1,0.1", "1,0,0,0"):   # the Bell-diagonal state and a Bell state
            out = tmp_path / "param.json"
            assert main(["param", *BELL_ARGS[:-1], lam, "--out", str(out), *extra]) == 0
            capsys.readouterr()
            texts.append((tmp_path / "param.json.analysis.json").read_text())
    reports = [json.loads(text, parse_constant=_reject_constant) for text in texts]
    assert [report["method"] for report in reports] == ["closed_form", "oracle_estimate"] * 4


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


def _one_error_line(capsys):
    err = capsys.readouterr().err.splitlines()
    return len(err) == 1 and err[0].startswith("error:")


def test_analyze_report_into_missing_directory_exits_4(tmp_path, capsys):
    state = tmp_path / "mixed.json"
    write_state(DensityMatrix(np.eye(4) / 4.0), state)
    assert main(["analyze", "--in", str(state), "--out", str(tmp_path / "missing" / "report.json")]) == 4
    assert _one_error_line(capsys)


def test_param_report_onto_a_directory_exits_4(tmp_path, capsys):
    (tmp_path / "x.json.analysis.json").mkdir()
    assert main(["param", *BELL_ARGS, "--out", str(tmp_path / "x.json")]) == 4
    assert _one_error_line(capsys)


@pytest.mark.parametrize("scale", ["nan", "inf", "1e400", "-1"])
def test_tolerance_scale_that_is_not_finite_and_nonnegative_exits_2(monkeypatch, capsys, scale):
    monkeypatch.setenv("QROBUST_TOL", scale)
    assert main(["verify", "--corpus", "5"]) == 2
    assert _one_error_line(capsys)


@pytest.mark.parametrize("entries, message", [
    ([("re", i, i, 1e308) for i in range(4)], "trace deviates"),                 # the trace overflows
    ([("re", 0, 1, 1e308), ("re", 1, 0, -1e308)], "not Hermitian"),             # rho - rho^dag overflows
])
def test_analyze_entries_near_the_float_limit_exit_2(tmp_path, capsys, entries, message):
    state = tmp_path / "huge.json"
    write_state(DensityMatrix(np.eye(4) / 4.0), state)
    payload = json.loads(state.read_text())
    for block, i, j, value in entries:
        payload[block][i][j] = value
    state.write_text(json.dumps(payload))
    assert main(["analyze", "--in", str(state)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and message in err[0]


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
        assert float(row["s_formula"]) == 0.5 * float(row["concurrence"]) * float(row["min_pair_sum"])


def test_sample_coset_agreement_column(tmp_path):
    out = tmp_path / "coset.csv"
    assert main(["sample", "--ensemble", "coset", "--n", "25", "--seed", "3",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    idx = header.index("k_agreement")
    for line in lines[1:]:
        assert float(line.split(",")[idx]) <= 1e-9


def test_sample_rank_deficient_row_is_nan_in_closed_form_columns(tmp_path, monkeypatch):
    # a rank-3 state put in at Bures seed 9626 (Bell weights 0.6, 0.3, 0.1, 0):
    # K4 is undefined, so no pair sum involving it exists
    inject_state(monkeypatch, 9626, bell_diagonal(BellWeights(np.array([0.6, 0.3, 0.1, 0.0]))))
    out = tmp_path / "rank3.csv"
    assert main(["sample", "--ensemble", "bures", "--n", "1", "--seed", "9626", "--out", str(out)]) == 0
    header, row = (line.split(",") for line in out.read_text().splitlines())
    values = dict(zip(header, row))
    assert all(values[column] == "nan" for column in ("K4", "min_pair_sum", "s_formula", "s_bisection"))
    assert all(values[column] != "nan" for column in ("concurrence", "K1", "K2", "K3"))


def test_tolerance_scale_changes_no_computed_column(tmp_path, monkeypatch):
    # QROBUST_TOL rescales check bounds only; Bures seed 181 has
    # lambda_4/lambda_1 = 2.0e-8, which a scaled rank cut would drop
    argv = ["sample", "--ensemble", "bures", "--n", "200", "--seed", "0", "--out"]
    default, scaled = tmp_path / "default.csv", tmp_path / "scaled.csv"
    assert main([*argv, str(default)]) == 0
    monkeypatch.setenv("QROBUST_TOL", "10")
    assert main([*argv, str(scaled)]) == 0
    assert default.read_text().splitlines()[0].endswith(",s_formula,s_bisection")
    assert scaled.read_bytes() == default.read_bytes()


def test_tolerance_scale_changes_no_oracle_value(tmp_path, monkeypatch, capsys):
    # the crossing's PPT cut and the SDP's stop width are oracle constants:
    # s_bisection, s_best and gap are the same at every QROBUST_TOL
    argv = ["sample", "--ensemble", "ginibre", "--n", "20", "--seed", "0", "--oracle", "--out"]
    written = []
    for scale in ("0.01", "1", "100"):
        monkeypatch.setenv("QROBUST_TOL", scale)
        out = tmp_path / f"sample-{scale}.csv"
        assert main([*argv, str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1] == written[2]
    # the audit of Bell 0.7: the same crossing and SDP numbers; only verdicts may move
    state = tmp_path / "bell.json"
    write_state(bell_diagonal(BellWeights(np.array([0.7, 0.1, 0.1, 0.1]))), state)
    audits = []
    for scale in ("1", "100"):
        monkeypatch.setenv("QROBUST_TOL", scale)
        out = tmp_path / f"bell-{scale}.json"
        assert main(["analyze", "--in", str(state), "--oracle", "--out", str(out)]) == 0
        verification = json.loads(out.read_text())["verification"]
        oracle_numbers = {k: v for k, v in verification["oracle"].items() if k != "minimality_flag"}
        audits.append((verification["s_bisection"], oracle_numbers))
    assert audits[0] == audits[1]


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


@pytest.mark.parametrize("ensemble, seed, n", [("ginibre", 0, 4), ("bures", 9624, 4)])
def test_sample_oracle_columns_are_the_public_search(tmp_path, monkeypatch, ensemble, seed, n):
    # each row's s_best and gap are those of the search on its state alone;
    # the Bures run gets the rank-deficient rank_two_state(0.5) at seed 9626:
    # no closed form, so a nan gap
    drawn = {seed + i: sample_state(ensemble, seed + i) for i in range(n)}
    if ensemble == "bures":
        drawn[9626] = rank_two_state(0.5)
        inject_state(monkeypatch, 9626, drawn[9626])
    out = tmp_path / "oracle.csv"
    assert main(["sample", "--ensemble", ensemble, "--n", str(n), "--seed", str(seed),
                 "--oracle", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    for i, row in enumerate(rows):
        result = oracle.minimize_absolute_robustness(drawn[seed + i])
        assert row[-2:] == [repr(result.s_best), repr(result.gap_to_formula)]
    if ensemble == "bures":
        assert rows[9626 - seed][-1] == "nan" and rows[9626 - seed][7] == "nan"


@pytest.mark.parametrize("ensemble, seed", [("ginibre", 0), ("bures", 9624)])
def test_sample_oracle_chunks_are_the_public_search(tmp_path, monkeypatch, ensemble, seed):
    # one oracle pass per chunk of 3: each row is the N = 1 run on its state
    monkeypatch.setattr(cli, "_SAMPLE_CHUNK", 3)
    out = tmp_path / "oracle.csv"
    assert main(["sample", "--ensemble", ensemble, "--n", "7", "--seed", str(seed), "--oracle", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 7
    for i, row in enumerate(rows):
        result = oracle.minimize_absolute_robustness(sample_state(ensemble, seed + i))
        assert row[-2:] == [repr(result.s_best), repr(result.gap_to_formula)]


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


def test_verify_passes_at_large_tolerance_scales(monkeypatch, capsys):
    # a larger factor never turns a pass into a failure: the not-PPT-before-s
    # check reads the oracle's fixed PPT cut, not the scaled ppt bound
    for scale in ("1e9", "1e12"):
        monkeypatch.setenv("QROBUST_TOL", scale)
        assert main(["verify", "--corpus", "5", "--seed", "0"]) == 0
        assert capsys.readouterr().out.endswith("14/14 property groups passed\n")


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


def test_no_command_loads_numpy_ma(tmp_path):
    # np.unique imports numpy.ma, about 0.4 MB of peak RSS; every command,
    # closed-form and oracle routes alike, runs without it
    script = f"""
import sys
import numpy as np
from qrobust.cli import main
from qrobust.states import BellWeights, bell_diagonal, werner, write_state
write_state(bell_diagonal(BellWeights(np.array([0.7, 0.1, 0.1, 0.1]))), "bell.json")
write_state(werner(1.0), "singlet.json")
for ensemble in ("ginibre", "bell_diagonal", "coset"):
    assert main(["sample", "--ensemble", ensemble, "--n", "20", "--out", ensemble + ".csv"]) == 0
assert main(["sample", "--ensemble", "bures", "--n", "4", "--seed", "9624", "--oracle", "--out", "bures.csv"]) == 0
assert main(["analyze", "--in", "bell.json", "--oracle"]) == 0
assert main(["analyze", "--in", "singlet.json"]) == 0
assert main(["param", *{BELL_ARGS!r}, "--oracle", "--out", "param.json"]) == 0
assert main(["verify", "--corpus", "5"]) == 0
assert "numpy.ma" not in sys.modules
"""
    src = str(Path(qrobust.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


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


def test_sample_chunks_equal_separate_runs(tmp_path, monkeypatch):
    # --n 300 crosses the boundary of the 256-row chunks; rank_two_state(0.5),
    # put in at Bures seed 9626, is a rank-deficient nan row inside the first chunk
    inject_state(monkeypatch, 9626, rank_two_state(0.5))
    whole = tmp_path / "whole.csv"
    assert main(["sample", "--ensemble", "bures", "--n", "300", "--seed", "9500", "--out", str(whole)]) == 0
    parts = []
    for start in (9500, 9600, 9700):
        part = tmp_path / f"part{start}.csv"
        assert main(["sample", "--ensemble", "bures", "--n", "100", "--seed", str(start),
                     "--out", str(part)]) == 0
        parts += _csv_rows(part)[1:]
    rows = _csv_rows(whole)
    assert rows[0] == _csv_rows(part)[0]
    assert [row[1:] for row in rows[1:]] == [row[1:] for row in parts]
    assert [row[0] for row in rows[1:]] == [str(i) for i in range(300)]
    assert rows[1 + 126][7] == "nan"


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

    def injected(rho, sigma):
        s, errors = real(rho, sigma)
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


def test_sample_oracle_crossing_failure_keeps_the_earlier_rows(tmp_path, monkeypatch, capsys):
    # an entangled SDP direction at one row of the second chunk: its crossing
    # fails, the rows before it are written, then one error line and exit 1
    monkeypatch.setattr(cli, "_SAMPLE_CHUNK", 3)
    argv = ["sample", "--ensemble", "ginibre", "--n", "7", "--seed", "4", "--oracle"]
    clean = tmp_path / "clean.csv"
    assert main([*argv, "--out", str(clean)]) == 0
    target = states.partial_transpose_matrix(sample_state("ginibre", 8).matrix)
    real = oracle._sdp

    def injected(rho_pt):
        lower, upper, direction, steps = real(rho_pt)
        if np.array_equal(rho_pt, target):                  # the state itself, which is NPT
            direction = states.partial_transpose_matrix(rho_pt)
        return lower, upper, direction, steps

    monkeypatch.setattr(oracle, "_sdp", injected)
    failed = tmp_path / "failed.csv"
    assert main([*argv, "--out", str(failed)]) == 1
    assert failed.read_text().splitlines() == clean.read_text().splitlines()[:5]
    assert re.fullmatch(r"error: direction has PT eigenvalue -\d\.\d{3}e-\d\d\n", capsys.readouterr().err)


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
