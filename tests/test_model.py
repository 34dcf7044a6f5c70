import json

import numpy as np
import pytest

from sdemoments import (Formulation, LinearSde, McConfig, ModelError,
                        MomentState, classify, expm_action, parse_model,
                        propagate_grid, rk4_moments, run_bench, serialize_model)
from support import random_stable_model

OU_TEXT = """{
  "d": 1, "m": 1, "t0": 0.0,
  "A": [[-1.0]], "a0": [0.0],
  "b0": [[1.0]],
  "m0": [0.0], "P0": [[0.0]]
}"""


def test_construction_defaults():
    sde = LinearSde(d=2, m=1, A=np.eye(2), a0=[1.0, 0.0], b0=[[1.0, 0.0]])
    np.testing.assert_array_equal(sde.a1, [0.0, 0.0])
    np.testing.assert_array_equal(sde.B, np.zeros((1, 2, 2)))
    np.testing.assert_array_equal(sde.b1, np.zeros((1, 2)))
    assert sde.t0 == 0.0


def test_coefficient_arrays_are_read_only():
    sde = LinearSde(d=1, m=1, A=[[-1.0]], a0=[0.0], b0=[[1.0]])
    with pytest.raises(ValueError):
        sde.A[0, 0] = 5.0
    state = MomentState(m0=[0.0], P0=[[1.0]])
    with pytest.raises(ValueError):
        state.P0[0, 0] = 2.0


def test_shape_errors_carry_field_path():
    with pytest.raises(ModelError, match="a0"):
        LinearSde(d=2, m=0, A=np.eye(2), a0=[1.0])
    with pytest.raises(ModelError, match="B"):
        LinearSde(d=2, m=1, A=np.eye(2), a0=[0.0, 0.0], B=np.zeros((2, 2, 2)),
                  b0=np.zeros((1, 2)))
    with pytest.raises(ModelError, match="A"):
        LinearSde(d=1, m=0, A=[[np.nan]], a0=[0.0])
    with pytest.raises(ModelError):
        LinearSde(d=0, m=0, A=np.zeros((0, 0)), a0=[])
    # non-integral counts are rejected, not truncated
    with pytest.raises(ModelError, match="^d: "):
        LinearSde(d=2.5, m=0, A=np.eye(2), a0=[0.0, 0.0])
    with pytest.raises(ModelError, match="^m: "):
        LinearSde(d=1, m=1.7, A=[[0.0]], a0=[0.0], b0=[[1.0]])


def test_counts_reject_bools():
    # True is no count of 1 anywhere, as parse_model already holds
    sde = LinearSde(d=1, m=1, A=[[-1.0]], a0=[0.0], b0=[[1.0]])
    state = MomentState(m0=[0.0], P0=[[1.0]])
    cases = [
        (lambda: LinearSde(d=True, m=1, A=[[-1.0]], a0=[0.0], b0=[[1.0]]),
         ModelError, "d: d must be an integer >= 1, got True"),
        (lambda: LinearSde(d=1, m=False, A=[[-1.0]], a0=[0.0]),
         ModelError, "m: m must be an integer >= 0, got False"),
        (lambda: propagate_grid(sde, state, 0.1, n_steps=True),
         ValueError, "n_steps must be an integer >= 1, got True"),
        (lambda: rk4_moments(sde, state, 1.0, True),
         ValueError, "n_steps must be an integer >= 1, got True"),
        (lambda: expm_action(np.eye(2), np.ones(2), 1.0, n_steps=True),
         ValueError, "n_steps must be an integer >= 1, got True"),
        (lambda: McConfig(n_paths=10, n_steps=True, seed=0),
         ValueError, "n_steps must be an integer >= 1, got True"),
        (lambda: McConfig(n_paths=10, n_steps=2, seed=True),
         ValueError, "seed must be an integer >= 0, got True"),
        (lambda: run_bench(dims=(1,), reps=True),
         ValueError, "reps must be an integer >= 5, got True"),
    ]
    for call, error, message in cases:
        with pytest.raises(error) as excinfo:
            call()
        assert str(excinfo.value) == message


def test_forcing_evaluation():
    sde = LinearSde(d=1, m=1, A=[[0.0]], a0=[1.0], a1=[2.0],
                    b0=[[3.0]], b1=[[-1.0]])
    np.testing.assert_allclose(sde.drift_forcing(2.0), [5.0])
    np.testing.assert_allclose(sde.noise_forcing(2.0), [[1.0]])


def test_moment_state_invariants():
    MomentState(m0=[1.0, 2.0], P0=np.outer([1.0, 2.0], [1.0, 2.0]))
    with pytest.raises(ModelError, match="P0"):
        MomentState(m0=[0.0, 0.0], P0=[[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ModelError, match="P0"):
        # P0 - m0 m0^T = -0.5, clearly not PSD
        MomentState(m0=[1.0], P0=[[0.5]])
    with pytest.raises(ModelError, match="m0"):
        MomentState(m0=[[1.0]], P0=[[1.0]])


def test_covariance():
    state = MomentState(m0=[1.0], P0=[[3.0]])
    np.testing.assert_allclose(state.covariance(), [[2.0]])


def test_classify_basic():
    rng = np.random.default_rng(30)
    for kind, narrowest in (("non_autonomous", Formulation.GENERAL),
                            ("autonomous_multiplicative", Formulation.AUTONOMOUS),
                            ("autonomous_additive", Formulation.ADDITIVE)):
        sde, _ = random_stable_model(rng, 3, kind)
        assert classify(sde) is narrowest
    # the zero test is exact: a tiny coefficient still counts
    tiny = LinearSde(d=1, m=1, A=[[-1.0]], a0=[0.0], B=[[[1e-300]]], b0=[[1.0]])
    assert classify(tiny) is Formulation.AUTONOMOUS


def test_classify_noise_free():
    ode = LinearSde(d=2, m=0, A=np.eye(2), a0=[1.0, 0.0])
    assert classify(ode) is Formulation.ADDITIVE
    ramp = LinearSde(d=2, m=0, A=np.eye(2), a0=[1.0, 0.0], a1=[1.0, 0.0])
    assert classify(ramp) is Formulation.GENERAL


def test_classify_scaling_invariance():
    rng = np.random.default_rng(31)
    for kind in ("non_autonomous", "autonomous_multiplicative",
                 "autonomous_additive"):
        sde, _ = random_stable_model(rng, 2, kind, m=1)
        for scale in (1e-3, 1.0, 1e3):
            scaled = LinearSde(d=sde.d, m=sde.m, A=sde.A, a0=scale * sde.a0,
                               a1=scale * sde.a1, B=scale * sde.B,
                               b0=scale * sde.b0, b1=scale * sde.b1, t0=sde.t0)
            assert classify(scaled) is classify(sde)


def test_parse_minimal_ou():
    sde, state = parse_model(OU_TEXT)
    assert (sde.d, sde.m) == (1, 1)
    assert classify(sde) is Formulation.ADDITIVE
    np.testing.assert_array_equal(sde.A, [[-1.0]])
    np.testing.assert_array_equal(state.P0, [[0.0]])


def test_parse_hilbert_benchmark_file():
    d = 3
    H = [[1.0 / (i + j + 1) for j in range(d)] for i in range(d)]
    doc = {"d": d, "m": 1, "t0": 0.0,
           "A": [[-h for h in row] for row in H],
           "a0": [0.0] * d, "B": [H], "b0": [[0.0] * d],
           "m0": [1.0] * d, "P0": [[1.0] * d for _ in range(d)]}
    sde, state = parse_model(json.dumps(doc))
    assert classify(sde) is Formulation.AUTONOMOUS
    np.testing.assert_array_equal(state.m0, np.ones(d))


def test_parse_rejects_unknown_field():
    doc = json.loads(OU_TEXT)
    doc["extra"] = 1
    with pytest.raises(ModelError, match="extra"):
        parse_model(json.dumps(doc))


def test_parse_rejects_missing_field():
    doc = json.loads(OU_TEXT)
    del doc["m0"]
    with pytest.raises(ModelError, match="m0"):
        parse_model(json.dumps(doc))


def test_parse_error_paths_are_precise():
    doc = json.loads(OU_TEXT)
    doc["A"] = [[-1.0, 0.0]]
    with pytest.raises(ModelError, match=r"A\[0\]"):
        parse_model(json.dumps(doc))
    doc = json.loads(OU_TEXT)
    doc["b0"] = [[True]]
    with pytest.raises(ModelError, match=r"b0\[0\]\[0\]"):
        parse_model(json.dumps(doc))
    doc = json.loads(OU_TEXT)
    doc["t0"] = "zero"
    with pytest.raises(ModelError, match="t0"):
        parse_model(json.dumps(doc))


def test_parse_rejects_non_finite_numbers():
    text = OU_TEXT.replace('"a0": [0.0]', '"a0": [NaN]')
    with pytest.raises(ModelError, match="a0"):
        parse_model(text)
    text = OU_TEXT.replace('"a0": [0.0]', '"a0": [Infinity]')
    with pytest.raises(ModelError, match="a0"):
        parse_model(text)


def test_parse_rejects_asymmetric_p0():
    doc = {"d": 2, "m": 0, "t0": 0.0, "A": [[0.0, 0.0], [0.0, 0.0]],
           "a0": [0.0, 0.0], "b0": [], "m0": [0.0, 0.0],
           "P0": [[1.0, 2.0], [0.0, 1.0]]}
    with pytest.raises(ModelError, match="P0"):
        parse_model(json.dumps(doc))


def test_parse_rejects_bad_json():
    with pytest.raises(ModelError, match="JSON"):
        parse_model("{not json")
    with pytest.raises(ModelError, match="object"):
        parse_model("[1, 2]")


def test_round_trip_is_bitwise():
    rng = np.random.default_rng(32)
    for kind in ("non_autonomous", "autonomous_multiplicative",
                 "autonomous_additive"):
        for d in (1, 3):
            sde, state = random_stable_model(rng, d, kind)
            sde2, state2 = parse_model(serialize_model(sde, state))
            for name in ("A", "a0", "a1", "B", "b0", "b1"):
                np.testing.assert_array_equal(getattr(sde2, name),
                                              getattr(sde, name))
            assert sde2.t0 == sde.t0 and (sde2.d, sde2.m) == (sde.d, sde.m)
            np.testing.assert_array_equal(state2.m0, state.m0)
            np.testing.assert_array_equal(state2.P0, state.P0)
