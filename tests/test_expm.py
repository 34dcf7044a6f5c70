import importlib
import math

import numpy as np
import pytest
import scipy.linalg

from sdemoments import (ExpmConvergenceError, ExpmOptions, ExpmOverflowError,
                        assemble, expm, expm_action)
from support import random_stable_model

expm_module = importlib.import_module("sdemoments.expm")


def test_matches_scipy_across_scales():
    rng = np.random.default_rng(10)
    for scale in (1e-3, 1e-1, 1.0, 10.0, 100.0):
        for _ in range(5):
            n = int(rng.integers(1, 10))
            a = rng.uniform(-1.0, 1.0, (n, n)) * scale
            ref = scipy.linalg.expm(a)
            np.testing.assert_allclose(expm(a), ref, rtol=1e-11,
                                       atol=1e-11 * np.abs(ref).max())


def test_scalar_exact():
    for a in (-3.0, 0.0, 0.5, 2.0):
        for t in (0.0, 0.25, 1.0, 3.0):
            np.testing.assert_allclose(expm(np.array([[a]]), t),
                                       [[np.exp(a * t)]], rtol=1e-14)


def test_zero_time_is_identity():
    a = np.random.default_rng(11).standard_normal((6, 6))
    np.testing.assert_array_equal(expm(a, 0.0), np.eye(6))


def test_semigroup():
    rng = np.random.default_rng(12)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        a = rng.uniform(-1.0, 1.0, (n, n)) * rng.uniform(0.1, 3.0)
        full = expm(a, 1.0)
        split = expm(a, 0.65) @ expm(a, 0.35)
        np.testing.assert_allclose(split, full, rtol=1e-10,
                                   atol=1e-10 * np.abs(full).max())


def test_determinant_identity():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        a = rng.uniform(-1.0, 1.0, (n, n))
        t = float(rng.uniform(0.1, 2.0))
        np.testing.assert_allclose(np.linalg.det(expm(a, t)),
                                   np.exp(np.trace(a) * t), rtol=1e-8)


def test_nilpotent_exactness():
    rng = np.random.default_rng(14)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        strict = np.triu(rng.uniform(-1.0, 1.0, (n, n)), 1)
        truth = np.eye(n)
        term = np.eye(n)
        for k in range(1, n):
            term = term @ strict / k
            truth = truth + term
        got = expm(strict)
        np.testing.assert_allclose(got, truth, rtol=0,
                                   atol=1e-14 * max(np.abs(truth).max(), 1.0))


def test_van_loan_two_block_recovery():
    # exp([[0, C], [0, 0]] * t) has C*t in the coupling block
    rng = np.random.default_rng(15)
    c = rng.uniform(-1.0, 1.0, (3, 4))
    M = np.zeros((7, 7))
    M[:3, 3:] = c
    E = expm(M, 0.5)
    np.testing.assert_allclose(E[:3, 3:], 0.5 * c, rtol=0, atol=1e-15)
    np.testing.assert_allclose(E[np.diag_indices(7)], 1.0, rtol=0, atol=1e-15)


def test_block_triangular_zeros_preserved():
    rng = np.random.default_rng(16)
    for _ in range(10):
        p = int(rng.integers(1, 5))
        q = int(rng.integers(1, 5))
        M = rng.uniform(-1.0, 1.0, (p + q, p + q)) * 3.0
        M[p:, :p] = 0.0
        E = expm(M)
        assert np.abs(E[p:, :p]).max() <= 1e-13 * np.abs(E).max()


def test_automatic_order_matches_scipy(monkeypatch):
    # one norm inside each Pade bracket, then each threshold from both sides
    orders = []
    pade_uv = expm_module._pade_uv

    def recording(b, order):
        orders.append(order)
        return pade_uv(b, order)

    monkeypatch.setattr(expm_module, "_pade_uv", recording)
    thetas = expm_module._THETA
    base = np.random.default_rng(17).uniform(-1.0, 1.0, (6, 6))
    base /= np.linalg.norm(base, 1)
    cases = [(1e-2, 3), (0.1, 5), (0.5, 7), (1.5, 9), (4.0, 13), (50.0, 13)]
    for below, above in zip(thetas, list(thetas)[1:] + [13]):
        cases += [(thetas[below] * (1 - 1e-9), below),
                  (thetas[below] * (1 + 1e-9), above)]
    for norm, order in cases:
        for t in (1.0, -1.0):
            a = base * norm
            ref = scipy.linalg.expm(a * t)
            np.testing.assert_allclose(expm(a, t), ref, rtol=1e-12,
                                       atol=1e-12 * np.abs(ref).max())
            assert orders.pop() == order, (norm, order)


def test_overflow_raises():
    with pytest.raises(ExpmOverflowError):
        expm(np.array([[2000.0]]))


def test_input_validation():
    with pytest.raises(ValueError):
        expm(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        expm(np.array([[np.nan]]))
    with pytest.raises(ValueError):
        expm(np.eye(2), t=np.inf)


def test_action_matches_dense():
    rng = np.random.default_rng(19)
    for _ in range(10):
        n = int(rng.integers(2, 40))
        a = rng.uniform(-1.0, 1.0, (n, n))
        v = rng.uniform(-1.0, 1.0, n)
        t = float(rng.uniform(0.0, 2.0))
        want = expm(a, t) @ v
        got = expm_action(a, v, t)
        np.testing.assert_allclose(got, want, rtol=1e-10,
                                   atol=1e-10 * max(np.abs(want).max(), 1.0))


def test_action_trivial_cases():
    a = np.random.default_rng(20).standard_normal((5, 5))
    v = np.arange(5.0)
    np.testing.assert_array_equal(expm_action(a, v, 0.0), v)
    np.testing.assert_array_equal(expm_action(a, np.zeros(5), 1.0), np.zeros(5))
    np.testing.assert_array_equal(expm_action(a, v, 0.0, 3), np.tile(v, (3, 1)))
    np.testing.assert_array_equal(expm_action(a, np.zeros(5), 1.0, 2),
                                  np.zeros((2, 5)))


def test_action_happy_breakdown():
    # rank-1 matrix: the Krylov space closes after two vectors
    rng = np.random.default_rng(21)
    u = rng.uniform(-1.0, 1.0, 30)
    a = np.outer(u, u)
    v = rng.uniform(-1.0, 1.0, 30)
    want = expm(a, 1.0) @ v
    got = expm_action(a, v, 1.0)
    np.testing.assert_allclose(got, want, rtol=1e-12,
                               atol=1e-12 * np.abs(want).max())


def test_action_full_basis_is_exact():
    rng = np.random.default_rng(22)
    a = rng.uniform(-1.0, 1.0, (12, 12)) * 30.0
    v = rng.uniform(-1.0, 1.0, 12)
    want = expm(a, 1.0) @ v
    got = expm_action(a, v, 1.0)
    np.testing.assert_allclose(got, want, rtol=1e-8)


def test_action_checkpoints_bound_inner_exponentials(monkeypatch):
    # n = 295 at t = 10 needs well over 60 basis vectors; exponentiating the
    # projected matrix at every step would cost one inner expm per vector
    sde, state = random_stable_model(np.random.default_rng(1), 16,
                                     "non_autonomous", m=1)
    aug = assemble(sde, state)
    sizes = []
    dense = expm_module.expm

    def recording(a, t=1.0):
        sizes.append(a.shape[0])
        return dense(a, t)

    monkeypatch.setattr(expm_module, "expm", recording)
    got = expm_action(aug.M, aug.u, 10.0)
    want = scipy.linalg.expm(aug.M * 10.0) @ aug.u
    assert sizes[-1] >= 60
    assert len(sizes) <= 12
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_action_convergence_failure():
    # ||a||_1 ~ 3000 needs more than the 96-vector basis cap
    rng = np.random.default_rng(23)
    a = rng.uniform(-1.0, 1.0, (150, 150)) * 40.0
    v = rng.uniform(-1.0, 1.0, 150)
    with pytest.raises(ExpmConvergenceError) as excinfo:
        expm_action(a, v, 1.0)
    assert excinfo.value.residual > 0.0
    assert 'ExpmOptions(method="dense")' in str(excinfo.value)


def test_action_input_validation():
    a = np.eye(3)
    with pytest.raises(ValueError):
        expm_action(a, np.zeros(4), 1.0)
    with pytest.raises(ValueError):
        expm_action(a, np.zeros(3), -1.0)
    with pytest.raises(ValueError):
        expm_action(a, np.ones(3), 1.0, 0)
    with pytest.raises(ValueError, match="integer"):
        expm_action(a, np.ones(3), 1.0, 2.5)


def test_options_name_a_known_route():
    assert ExpmOptions(method="dense").method == "dense"
    assert ExpmOptions(method="action").method == "action"
    with pytest.raises(ValueError):
        ExpmOptions(method="Action")
    with pytest.raises(TypeError):
        ExpmOptions()


def _single_vector_action(a, v, t):
    """The one-vector Arnoldi evaluation as it stood before grid steps."""
    n = a.shape[0]
    beta = np.linalg.norm(v)
    cap = min(n, expm_module._MAX_KRYLOV)
    basis = np.zeros((cap + 1, n))
    h = np.zeros((cap + 1, cap))
    basis[0] = v / beta
    checkpoint = 8
    for j in range(cap):
        w = a @ basis[j]
        q = basis[:j + 1]
        for _ in range(2):
            c = q @ w
            w -= c @ q
            h[:j + 1, j] += c
        h_next = np.linalg.norm(w)
        h[j + 1, j] = h_next
        m = j + 1
        breakdown = h_next <= 1e-14 * max(1.0, np.abs(h[:m, :m]).max())
        if breakdown or m == cap or m >= checkpoint:
            y = expm(h[:m, :m], t)[:, 0]
            estimate = t * h_next * abs(y[-1]) / np.linalg.norm(y)
            if breakdown or m == n or estimate <= expm_module._KRYLOV_TOL:
                return beta * (y @ q)
            checkpoint = math.ceil(1.25 * m)
        basis[j + 1] = w / h_next
    raise ExpmConvergenceError("no convergence", residual=estimate)


def test_action_without_steps_is_the_single_vector_evaluation():
    rng = np.random.default_rng(24)
    for _ in range(20):
        n = int(rng.integers(2, 140))
        a = rng.uniform(-1.0, 1.0, (n, n)) * rng.uniform(0.1, 4.0)
        v = rng.uniform(-1.0, 1.0, n)
        t = float(rng.uniform(0.1, 3.0))
        got = expm_action(a, v, t)
        assert got.shape == (n,)
        np.testing.assert_array_equal(got, _single_vector_action(a, v, t))
        # a one-step grid is the same evaluation
        np.testing.assert_array_equal(expm_action(a, v, t, 1), got[None, :])


def test_action_grid_rows_match_scipy():
    # one basis for the whole grid: row k - 1 is e^(a k t) v
    rng = np.random.default_rng(25)
    cases = [(int(rng.integers(2, 40)), 1.0) for _ in range(6)]
    cases += [(150, 0.2), (150, 0.05)]
    for n, scale in cases:
        a = rng.uniform(-1.0, 1.0, (n, n)) * scale
        a -= np.eye(n) * 0.5 * scale * np.sqrt(n)
        v = rng.uniform(-1.0, 1.0, n)
        t = float(rng.uniform(0.05, 0.5))
        n_steps = int(rng.integers(2, 25))
        rows = expm_action(a, v, t, n_steps)
        assert rows.shape == (n_steps, n)
        for k, row in enumerate(rows, start=1):
            want = scipy.linalg.expm(a * (k * t)) @ v
            np.testing.assert_allclose(row, want, rtol=1e-10,
                                       atol=1e-10 * max(np.abs(want).max(), 1.0))


def test_action_grid_converges_at_its_last_horizon():
    # one step of 0.1 converges where forty steps, horizon 4, need more
    # than the 96-vector cap
    rng = np.random.default_rng(23)
    a = rng.uniform(-1.0, 1.0, (150, 150)) * 40.0
    v = rng.uniform(-1.0, 1.0, 150)
    want = scipy.linalg.expm(a * 0.05) @ v
    np.testing.assert_allclose(expm_action(a, v, 0.05, 1)[0], want, rtol=1e-9,
                               atol=1e-9 * np.abs(want).max())
    with pytest.raises(ExpmConvergenceError):
        expm_action(a, v, 0.05, 40)
