"""Tests of the benchmark itself: its checks, its reference and its tracer.

Run from the repository root with ``python3 -m pytest momentbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import inputs
import reference
import run
import workloads  # puts the checkout's src on sys.path
from tracing import BUILD_HOOKS, Tracer

import sdemoments
from sdemoments import ExpmOptions

HERE = os.path.dirname(os.path.abspath(__file__))


def scalar_spec(A, a0=0.0, a1=0.0, B=0.0, b0=0.0, b1=0.0, t0=0.0, m0=0.0, p0=0.0):
    return inputs.make_spec(1, 1, t0, [[A]], [a0], [a1], [[[B]]], [[b0]], [[b1]],
                        [m0], [[p0]])


def engine_case(seed=7):
    return inputs.sysid_fit(seed)[-1]  # autonomous additive, d = 6, m = 2


def engine_run(case):
    outcome = workloads.run_case(case, scratch="")
    ref = dict(zip(("mean", "secmom", "gnorm"),
                   reference.reference_moments(case.spec, case.ref_times())))
    return outcome, ref


def as_result(res, **changes):
    fields = dict(t=res.t, mean=res.mean, secmom=res.secmom, variance=res.variance)
    fields.update(changes)
    return SimpleNamespace(**fields)


# --- the reference against closed forms ------------------------------------


@pytest.mark.parametrize("t", [0.25, 1.0, 2.0])
def test_reference_gbm(t):
    a, b = 0.3, 0.5
    mean, secmom, _ = reference.reference_moments(
        scalar_spec(a, B=b, m0=1.0, p0=1.0), [t])
    assert mean[0, 0] == pytest.approx(np.exp(a * t), rel=1e-13)
    assert secmom[0, 0, 0] == pytest.approx(np.exp((2 * a + b * b) * t), rel=1e-13)


@pytest.mark.parametrize("t", [0.5, 1.0, 5.0])
def test_reference_ou_variance(t):
    mean, secmom, _ = reference.reference_moments(scalar_spec(-1.0, b0=1.0), [t])
    assert mean[0, 0] == 0.0
    assert secmom[0, 0, 0] == pytest.approx((1 - np.exp(-2 * t)) / 2, rel=1e-13)


def test_reference_time_dependent_forcing():
    # dx = a1 t dt + b1 t dw from x(t0) = 0: E x = a1 (t^2 - t0^2) / 2,
    # Var x = b1^2 (t^3 - t0^3) / 3
    a1, b1, t0, t = 0.7, 0.4, 0.3, 1.9
    mean, secmom, _ = reference.reference_moments(
        scalar_spec(0.0, a1=a1, b1=b1, t0=t0), [t])
    want_mean = a1 * (t * t - t0 * t0) / 2
    want_var = b1 * b1 * (t ** 3 - t0 ** 3) / 3
    assert mean[0, 0] == pytest.approx(want_mean, rel=1e-13)
    assert secmom[0, 0, 0] - mean[0, 0] ** 2 == pytest.approx(want_var, rel=1e-12)


def test_reference_generator_matches_the_rhs():
    spec = inputs.random_stable(np.random.default_rng(3), 3, "non_autonomous", 2)
    z = np.random.default_rng(4).standard_normal(9 + 6 + 3)
    assert np.allclose(reference.generator(spec) @ z, reference.moment_rhs(spec, z),
                       rtol=1e-13, atol=1e-13)


# --- every check passes a correct result and rejects a corrupted one --------


def test_engine_results_pass_every_check():
    case = engine_case()
    outcome, ref = engine_run(case)
    assert workloads.check_case(case, outcome, ref) == []


def test_checks_reject_corrupted_results():
    case = engine_case()
    (direct, grid), ref = engine_run(case)
    t = case.times[0]
    i = case.ref_times().index(t)
    ref_mean, ref_secmom = ref["mean"][i], ref["secmom"][i]
    res = direct[0]
    assert checks.check_moments(res, t, ref_mean, ref_secmom) == []

    shifted = as_result(res, mean=res.mean + 1e-6 * np.abs(res.secmom).max())
    assert checks.check_reference(shifted.mean, shifted.secmom, ref_mean, ref_secmom)

    skew = np.zeros_like(res.secmom)
    skew[0, -1] = 1e-9 * np.abs(res.secmom).max()
    assert checks.check_symmetric(res.secmom + skew)

    e = np.zeros(res.variance.shape[0])
    e[0] = 1.0
    dent = -1e-6 * np.abs(res.secmom).max() - np.linalg.eigvalsh(res.variance).max()
    assert checks.check_psd(res.variance + dent * np.outer(e, e), res.secmom)

    assert checks.check_label(np.nextafter(res.t, np.inf), t)
    assert checks.check_moments(as_result(res, t=res.t + 1e-9), t,
                                ref_mean, ref_secmom)

    last = grid[-1]
    assert checks.check_flow(last, direct[-1]) is None
    assert checks.check_flow(as_result(last, mean=last.mean * (1 + 1e-8)), direct[-1])


def test_check_case_rejects_a_shifted_grid_point():
    case = engine_case()
    (direct, grid), ref = engine_run(case)
    grid[3] = as_result(grid[3], mean=grid[3].mean + 1e-3)
    found = workloads.check_case(case, (direct, grid), ref)
    assert any("normwise" in f for f in found)


def oracle_case(op):
    return next(c for c in inputs.validate_oracles(5) if c.op == op)


def test_rk4_check_bound():
    case = oracle_case("rk4")
    outcome, ref = engine_run(case)
    assert workloads.check_case(case, outcome, ref) == []
    # halving the step count must stay within the (larger) bound as well
    coarse = replace(case, params={"n_steps": 50})
    assert workloads.check_case(coarse, workloads.run_case(coarse, ""), ref) == []
    bad = as_result(outcome, mean=outcome.mean + 1e-4)
    found = workloads.check_case(case, bad, ref)
    assert len(found) == 1 and "O(h^4)" in found[0]


def test_mc_check():
    case = oracle_case("mc")
    outcome, ref = engine_run(case)
    assert workloads.check_case(case, outcome, ref) == []
    bad = replace(outcome, mean=outcome.mean + 2.0 * checks.MC_SIGMAS * outcome.stderr_mean)
    assert workloads.check_case(case, bad, ref)


def test_cli_checks(tmp_path):
    cases = [c for c in inputs.validate_oracles(5) if c.op.startswith("cli")]
    workloads.write_model_files(cases, str(tmp_path))
    for case in cases:
        outcome = workloads.run_case(case, str(tmp_path))
        ref = dict(zip(("mean", "secmom", "gnorm"),
                       reference.reference_moments(case.spec, case.ref_times())))
        assert workloads.check_case(case, outcome, ref) == [], case.label
        code, text = outcome
        if case.op == "cli_validate":
            failed = text.replace("VALIDATION: PASS", "VALIDATION: FAIL")
            assert workloads.check_case(case, (1, failed), ref)
        else:
            lines = text.splitlines()
            cells = lines[1].split(",")
            cells[1] = repr(float(cells[1]) + 1e-3)  # first mean entry
            lines[1] = ",".join(cells)
            assert workloads.check_case(case, (code, "\n".join(lines)), ref)


def test_a_raised_operation_makes_the_run_incorrect():
    case = engine_case()
    outcome, ref = engine_run(case)
    tally = run.Tally()
    tally.check(workloads, case, outcome, ref)
    assert tally.correct and tally.failed_checks == 0
    tally.check(workloads, case, sdemoments.ExpmError("no convergence"), ref)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert not tally.correct
    assert tally.errors == [f"{case.label}: ExpmError: no convergence"]


def test_fastest_pass_sums_each_operation_at_its_fastest():
    assert run.Tally(op_s=[[0.3, 0.1, 0.2], [0.5, 0.4]]).fastest_pass_s == 0.5


# --- tracing -----------------------------------------------------------------


def package_namespaces():
    spaces = {name: dict(vars(mod)) for name, mod in sys.modules.items()
              if name == "sdemoments" or name.startswith("sdemoments.")}
    for cls in BUILD_HOOKS:
        spaces[cls] = {"__post_init__": getattr(sdemoments, cls).__post_init__}
    spaces["numpy"] = {"kron": np.kron}
    return spaces


def test_tracer_restores_every_name_and_results_pass(tmp_path):
    before = package_namespaces()
    case = engine_case()
    cli_case = next(c for c in inputs.validate_oracles(5) if c.op == "cli_validate")
    tracer = Tracer()
    tracer.install()
    try:
        assert sdemoments.moments.expm is not before["sdemoments.moments"]["expm"]
        outcome, ref = engine_run(case)
        assert workloads.check_case(case, outcome, ref) == []
        code, text = workloads.run_case(cli_case, str(tmp_path))
        assert checks.check_validate_output(code, text) is None
        layers = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    after = package_namespaces()
    assert after.keys() == before.keys()
    for space, names in before.items():
        assert after[space].keys() == names.keys(), space
        for attr, value in names.items():
            assert after[space][attr] is value, f"{space}.{attr}"
    # moments_at per time and one propagate_grid, then validate's moments_at
    assert layers["moments.assemble_calls"] == len(case.times) + 1 + 1
    assert layers["model.classify_calls"] >= layers["moments.assemble_calls"]
    assert layers["oracle.rhs_calls"] == 4 * cli_case.params["rk4_steps"]
    assert layers["oracle.mc_paths"] == cli_case.params["paths"]
    assert layers["cli.main_ms"] > 0.0


def test_tracer_counts_krylov_steps_apart_from_dense_calls():
    spec = inputs.hilbert_spec(3, "autonomous_multiplicative")
    sde, state = workloads.build_model(spec)
    tracer = Tracer()
    tracer.install()
    try:
        sdemoments.moments_at(sde, state, 1.0, ExpmOptions(method="action"))
        layers = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert layers["expm.action_calls"] == 1
    assert layers["moments.make_result_calls"] == 1
    assert layers["expm.dense_calls"] == 0
    # at most one Arnoldi step per dimension of the n = 14 augmented system
    assert 1 <= layers["expm.action_inner_expm_calls"] <= 14
    assert layers["expm.action_ms"] > 0.0


# --- the command -------------------------------------------------------------


def copy_checkout(dest, with_sources=True):
    root = inputs.ROOT
    shutil.copytree(HERE, os.path.join(dest, "momentbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), dest)
    if with_sources:
        for sub in ("src", "demos"):
            shutil.copytree(os.path.join(root, sub), os.path.join(dest, sub),
                            ignore=shutil.ignore_patterns("__pycache__"))


def declared(cwd):
    with open(os.path.join(cwd, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_bench(cwd, trace):
    cmd = declared(cwd)["command"] + ["--workload", "sysid_fit", "--seed", "3",
                             "--seconds", "0.5", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_declared_metrics(tmp_path, trace):
    copy_checkout(str(tmp_path))
    proc = run_bench(str(tmp_path), trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] % len(inputs.sysid_fit(3)) == 0
    metrics = declared(tmp_path)["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in metrics} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert os.path.isfile(os.path.join(tmp_path, f"BENCH_sysid_fit_seed3_trace{trace}.json"))
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".momentbench-")]


def test_command_fails_without_the_package(tmp_path):
    copy_checkout(str(tmp_path), with_sources=False)
    proc = run_bench(str(tmp_path), 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
