import dataclasses
import json
import warnings

import numpy as np
import pytest

import sdemoments.bench
import sdemoments.moments
from sdemoments import (Formulation, classify, hilbert_systems, run_bench,
                        serialize_model)
from sdemoments.cli import main

OU_DOC = {"d": 1, "m": 1, "t0": 0.0, "A": [[-1.0]], "a0": [0.0],
          "b0": [[1.0]], "m0": [0.0], "P0": [[0.0]]}


@pytest.fixture
def ou_file(tmp_path):
    path = tmp_path / "ou.json"
    path.write_text(json.dumps(OU_DOC))
    return str(path)


def test_hilbert_systems_labels_and_classes():
    systems = hilbert_systems(3)
    assert [label for label, _, _ in systems] == [
        "non_autonomous_multiplicative", "autonomous_multiplicative",
        "autonomous_additive"]
    expected = [Formulation.GENERAL, Formulation.AUTONOMOUS, Formulation.ADDITIVE]
    for (label, sde, state), narrowest in zip(systems, expected):
        assert classify(sde) is narrowest
        assert sde.d == 3 and state.d == 3
        np.testing.assert_array_equal(state.m0, np.ones(3))


def test_run_bench_report_contents():
    report = run_bench(dims=(1,), reps=5)
    assert len(report.rows) == 3
    for row in report.rows:
        assert row.d == 1 and row.reps == 5
        assert row.time_new > 0.0 and row.time_baseline > 0.0
        np.testing.assert_allclose(row.ratio, row.time_new / row.time_baseline,
                                   rtol=1e-15)
        assert row.max_rel_diff <= 1e-9
    table = report.format_table()
    assert "equation_class" in table and report.environment in table


def test_run_bench_times_cold_evaluations(monkeypatch):
    # assemble reuses the system of the last model it saw, so every timed
    # moments_at call gets a model object of its own
    models = []
    moments_at = sdemoments.bench.moments_at

    def recording(sde, state, t):
        models.append(sde)
        return moments_at(sde, state, t)

    monkeypatch.setattr(sdemoments.bench, "moments_at", recording)
    run_bench(dims=(1,), reps=5)
    assert len(models) > 3 * 5
    assert len({id(sde) for sde in models}) == len(models)


def test_run_bench_csv_round_trip():
    report = run_bench(dims=(1,), reps=5)
    lines = report.to_csv().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["equation_class", "d", "time_new", "time_baseline",
                      "ratio", "reps", "max_rel_diff"]
    for line, row in zip(lines[1:], report.rows):
        cells = line.split(",")
        assert cells[0] == row.equation_class
        assert int(cells[1]) == row.d and int(cells[5]) == row.reps
        for cell, value in zip((cells[2], cells[3], cells[4], cells[6]),
                               (row.time_new, row.time_baseline, row.ratio,
                                row.max_rel_diff)):
            assert float(cell) == value
            assert "%.17g" % float(cell) == cell


def test_run_bench_validation():
    with pytest.raises(ValueError):
        run_bench(dims=(1,), reps=4)
    with pytest.raises(ValueError, match="integer"):
        run_bench(dims=(1,), reps=5.5)
    with pytest.raises(ValueError):
        run_bench(dims=(0,), reps=5)
    with pytest.raises(ValueError):
        run_bench(dims=(13,), reps=5)


def test_cli_moments_table(ou_file, capsys):
    assert main(["moments", ou_file, "--t", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "t = 1" in out
    assert "0.432332" in out  # (1 - e^-2)/2
    assert "secmom" not in out


def test_cli_moments_secmom_and_csv(ou_file, tmp_path, capsys):
    csv_path = str(tmp_path / "out.csv")
    code = main(["moments", ou_file, "--t", "0.5,1.0", "--secmom",
                 "--csv", csv_path])
    assert code == 0
    out = capsys.readouterr().out
    assert "secmom" in out
    with open(csv_path) as handle:
        lines = handle.read().strip().splitlines()
    assert lines[0] == "t,mean_0,var_0_0,secmom_0_0"
    from sdemoments import load_model, moments_at
    sde, state = load_model(ou_file)
    for line, t in zip(lines[1:], (0.5, 1.0)):
        cells = line.split(",")
        res = moments_at(sde, state, t)
        assert float(cells[0]) == t
        assert cells[2] == "%.17g" % res.variance[0, 0]
        assert cells[3] == "%.17g" % res.secmom[0, 0]


def test_cli_moments_initial_time_echoes_state(tmp_path, capsys):
    doc = dict(OU_DOC, m0=[2.0], P0=[[5.0]])
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert main(["moments", str(path), "--t", "0.0"]) == 0
    out = capsys.readouterr().out
    assert "mean     =            2" in out
    # variance = P0 - m0 m0^T = 1
    assert "variance =            1" in out


def test_cli_moments_input_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(OU_DOC, P0=[[1.0, 0.0]])))
    assert main(["moments", str(bad), "--t", "1.0"]) == 2
    assert "P0" in capsys.readouterr().err

    assert main(["moments", str(tmp_path / "missing.json"), "--t", "1"]) == 2
    capsys.readouterr()

    ou = tmp_path / "ou.json"
    ou.write_text(json.dumps(OU_DOC))
    assert main(["moments", str(ou), "--t", "-1.0"]) == 2
    assert "t0" in capsys.readouterr().err
    assert main(["moments", str(ou), "--t", "one"]) == 2
    capsys.readouterr()


def test_cli_moments_overflow_is_a_computation_failure(tmp_path, capsys):
    base = {"d": 1, "m": 1, "t0": 0.0, "A": [[333.0]], "a0": [0.0],
            "m0": [1e10], "P0": [[1e20]]}
    docs = [{**base, **noise}
            for noise in ({"B": [[[0.1]]], "b0": [[0.0]]}, {"b0": [[1.0]]})]
    # B (x) B overflows: on the dense route at d = 2, on the action route at
    # d = 11 (n = 134)
    for d in (2, 11):
        eye = np.eye(d)
        docs.append({"d": d, "m": 1, "t0": 0.0, "A": (-eye).tolist(),
                     "a0": [0.0] * d, "B": [(1e160 * eye).tolist()],
                     "b0": [[0.0] * d], "m0": [1.0] * d,
                     "P0": np.ones((d, d)).tolist()})
    cases = [(doc, "1.0") for doc in docs]
    # at t = 1.7e308 the norm of M t overflows before expm counts squarings
    cases.append(({"d": 1, "m": 1, "t0": 0.0, "A": [[-1.0]], "a0": [0.0],
                   "B": [[[0.5]]], "b0": [[1.0]], "m0": [0.0], "P0": [[0.0]]},
                  "1.7e308"))
    path = tmp_path / "overflow.json"
    for doc, t in cases:
        path.write_text(json.dumps(doc))
        # a numpy RuntimeWarning would raise here instead of reaching stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["moments", str(path), "--t", t]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and "overflow" in err[0]
        if doc["d"] > 1:
            assert "1e+160" in err[0]


def test_cli_moments_assembles_once_for_all_times(ou_file, tmp_path, monkeypatch,
                                                  capsys):
    # every time of one model file evaluates the one system assembled for it
    layouts = []
    layout = sdemoments.moments._layout

    def counting(*args):
        layouts.append(args[2])
        return layout(*args)

    monkeypatch.setattr(sdemoments.moments, "_layout", counting)
    _, sde, state = hilbert_systems(11)[0]  # n = 150: the Krylov action
    path = tmp_path / "hilbert.json"
    path.write_text(serialize_model(sde, state))
    for model in (str(path), ou_file):
        assert main(["moments", model, "--t", "0.5,1,1.5,2,2.5"]) == 0
        assert len(layouts) == 1
        layouts.clear()
    capsys.readouterr()


def test_cli_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_cli_main_serves_call_after_call(ou_file, capsys):
    # the parser is built once and kept: a repeated call prints what the
    # first did, and refused calls leave it serving the next one
    args = ["moments", ou_file, "--t", "0.5,1.0", "--secmom"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    assert main(["moments", ou_file, "--t", "one"]) == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["moments", ou_file])  # no --t
    assert excinfo.value.code == 2
    capsys.readouterr()
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_cli_validate_passes(ou_file, capsys):
    assert main(["validate", ou_file, "--t", "1.0",
                 "--rk4-steps", "4000"]) == 0
    out = capsys.readouterr().out
    assert "VALIDATION: PASS" in out


def test_cli_validate_with_mc(ou_file, capsys):
    code = main(["validate", ou_file, "--t", "1.0", "--rk4-steps", "2000",
                 "--paths", "2000", "--mc-steps", "100", "--seed", "11"])
    out = capsys.readouterr().out
    assert "mc" in out
    assert code == 0, out


def test_cli_validate_negative_control(ou_file, capsys, monkeypatch):
    real = sdemoments.moments.moments_at

    def corrupted(*args, **kwargs):
        res = real(*args, **kwargs)
        return dataclasses.replace(res, mean=res.mean + 0.1)

    monkeypatch.setattr(sdemoments.moments, "moments_at", corrupted)
    assert main(["validate", ou_file, "--t", "1.0",
                 "--rk4-steps", "1000"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_bench(tmp_path, capsys):
    csv_path = str(tmp_path / "bench.csv")
    assert main(["bench", "--dims", "1", "--reps", "5",
                 "--csv", csv_path]) == 0
    out = capsys.readouterr().out
    assert "equation_class" in out
    with open(csv_path) as handle:
        header = handle.readline().strip()
    assert header.startswith("equation_class,d,time_new")


def test_cli_bench_bad_input(capsys):
    assert main(["bench", "--dims", "40", "--reps", "5"]) == 2
    assert main(["bench", "--dims", "2", "--reps", "2"]) == 2
    capsys.readouterr()
