import dataclasses
import gc
import importlib
import itertools
import math
import sys
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from sdemoments import (ExpmConvergenceError, ExpmError, ExpmOptions,
                        ExpmOverflowError, Formulation, LinearSde, McConfig,
                        MomentState, assemble, classify, euler_maruyama_mc,
                        expm, hilbert_systems, kron, kron_sum, kron_sum_vec,
                        moment_ode_rhs, moments_at, moments_baseline,
                        propagate_grid, rk4_moments, vec)
from sdemoments.moments import (_DENSE_LIMIT, _wants_action, build_beta, build_C,
                                build_calA, build_script_B, make_result)
from support import (CLASSES, ito_closure_moments, random_stable_model,
                     random_state, reference_grid, rel_diff, stiff_model)

moments_module = importlib.import_module("sdemoments.moments")
oracle_module = importlib.import_module("sdemoments.oracle")
expm_module = importlib.import_module("sdemoments.expm")


def test_calA_scalar_reduction():
    sde = LinearSde(d=1, m=2, A=[[-0.7]], a0=[0.0],
                    B=[[[0.3]], [[0.5]]], b0=[[0.0], [0.0]])
    np.testing.assert_allclose(build_calA(sde),
                               [[2 * -0.7 + 0.3 ** 2 + 0.5 ** 2]], rtol=1e-15)


def test_calA_drives_homogeneous_second_moment():
    # e^{calA t} vec(P0) solves dP/dt = AP + PA^T + sum B P B^T
    rng = np.random.default_rng(40)
    for _ in range(5):
        d = int(rng.integers(1, 4))
        sde, _ = random_stable_model(rng, d, "autonomous_multiplicative", m=2)
        hom = LinearSde(d=d, m=sde.m, A=sde.A, a0=np.zeros(d), B=sde.B,
                        b0=np.zeros((sde.m, d)), t0=sde.t0)
        state = MomentState(m0=np.zeros(d), P0=random_state(rng, d).P0)
        want = rk4_moments(hom, state, sde.t0 + 1.0, 2000).secmom
        got = expm(build_calA(hom), 1.0) @ vec(state.P0)
        np.testing.assert_allclose(got.reshape((d, d), order="F"), want,
                                   rtol=0, atol=1e-8 * np.abs(want).max())


def test_build_C_autonomous_scalar():
    sde = LinearSde(d=1, m=0, A=[[-2.0]], a0=[3.0], t0=0.0)
    state = MomentState(m0=[0.5], P0=[[0.25]])
    C = build_C(sde, state)
    # a1 = 0 leaves the time entry C[0, 1] zero
    np.testing.assert_allclose(C, [[-2.0, 0.0, -2.0 * 0.5 + 3.0],
                                   [0.0, 0.0, 1.0],
                                   [0.0, 0.0, 0.0]])


def test_build_C_non_autonomous_shape():
    sde = LinearSde(d=2, m=0, A=-np.eye(2), a0=[0.0, 0.0], a1=[1.0, 2.0])
    state = MomentState(m0=[0.0, 0.0], P0=np.zeros((2, 2)))
    C = build_C(sde, state)
    assert C.shape == (4, 4)
    np.testing.assert_array_equal(C[:2, 2], [1.0, 2.0])
    assert C[2, 3] == 1.0


def test_build_C_solves_mean_ode():
    rng = np.random.default_rng(41)
    for kind in CLASSES:
        sde, state = random_stable_model(rng, 3, kind)
        C = build_C(sde, state)
        t = sde.t0 + 0.8
        # the flow of the last unit vector carries m_t - m0 in its first d
        mean = state.m0 + expm(C, 0.8)[:3, -1]
        want = rk4_moments(sde, state, t, 4000).mean
        np.testing.assert_allclose(mean, want, rtol=0,
                                   atol=1e-9 * max(np.abs(want).max(), 1.0))


def test_beta_zero_model():
    sde = LinearSde(d=2, m=2, A=np.zeros((2, 2)), a0=np.zeros(2),
                    b0=np.zeros((2, 2)))
    betas = build_beta(sde)
    for b in betas:
        np.testing.assert_array_equal(b, np.zeros_like(b))


def test_beta_scalar_hand_case():
    a0, a1, sigma, B = 0.4, 0.2, 0.7, -0.9
    t0 = 0.5
    sde = LinearSde(d=1, m=1, A=[[B]], a0=[a0], a1=[a1], B=[[[B]]],
                    b0=[[sigma]], t0=t0)
    beta1, beta2, _, beta4, beta5 = build_beta(sde)
    abar = a0 + a1 * t0
    np.testing.assert_allclose(beta1, [[sigma ** 2]], rtol=1e-15)
    np.testing.assert_allclose(beta2, [[0.0]], atol=0)
    np.testing.assert_allclose(beta4, [[2 * abar + 2 * sigma * B]],
                               rtol=1e-15)
    np.testing.assert_allclose(beta5, [[2 * a1]], rtol=1e-15)


def test_script_B_matches_direct_forcing():
    # B1 + B2 s + B3 s^2 + (beta4 + s beta5) (m_s - m0) reproduces the
    # exact inhomogeneity of the second-moment ODE along the true mean path
    rng = np.random.default_rng(42)
    for _ in range(5):
        d = int(rng.integers(1, 4))
        sde, state = random_stable_model(rng, d, "non_autonomous")
        B1, B2, B3, beta4, beta5 = build_script_B(sde, state)
        C = build_C(sde, state)
        for s in (0.0, 0.3, 1.2):
            mean_s = moments_at(sde, state, sde.t0 + s).mean
            _, forcing = moment_ode_rhs(sde, mean_s, np.zeros((d, d)),
                                        sde.t0 + s)
            flow = expm(C, s)[:d, -1]
            got = B1 + B2 * s + B3 * s ** 2 + (beta4 + s * beta5) @ flow
            np.testing.assert_allclose(
                got, vec(forcing), rtol=0,
                atol=1e-10 * max(np.abs(forcing).max(), 1.0))


def test_script_B_additive_zeros():
    rng = np.random.default_rng(43)
    sde, state = random_stable_model(rng, 3, "autonomous_additive")
    _, B2, B3, _, beta5 = build_script_B(sde, state)
    np.testing.assert_array_equal(B2, np.zeros_like(B2))
    np.testing.assert_array_equal(B3, np.zeros_like(B3))
    np.testing.assert_array_equal(beta5, np.zeros_like(beta5))


def test_assemble_dimensions():
    rng = np.random.default_rng(44)
    for d in range(1, 9):
        sizes = {}
        for kind in CLASSES:
            sde, state = random_stable_model(rng, d, kind)
            sizes[kind] = assemble(sde, state).n
        assert sizes["non_autonomous"] == d * d + 2 * d + 7
        assert sizes["autonomous_multiplicative"] == d * d + d + 2
        assert sizes["autonomous_additive"] == 2 * d + 2


def test_assemble_block_structure():
    rng = np.random.default_rng(45)
    sde, state = random_stable_model(rng, 2, "non_autonomous")
    aug = assemble(sde, state)
    d, dd, w = 2, 4, 4
    # secmom, mean ramp, mean flow, s^2, s and 1
    offs = (0, dd, dd + w, dd + 2 * w, dd + 2 * w + 1, dd + 2 * w + 2)
    assert aug.n == offs[-1] + 1
    # strictly block upper triangular below the diagonal blocks
    for off in offs:
        np.testing.assert_array_equal(aug.M[off:, :off], 0.0)
    C = build_C(sde, state)
    np.testing.assert_array_equal(aug.M[:dd, :dd], build_calA(sde))
    np.testing.assert_array_equal(aug.M[dd:dd + w, dd:dd + w], C)
    np.testing.assert_array_equal(aug.M[dd + w:dd + 2 * w, dd + w:dd + 2 * w], C)
    # u seeds vec(P0), the mean flow's last unit vector r, and the constant 1
    np.testing.assert_array_equal(aug.u[:dd], vec(state.P0))
    assert aug.u[-1] == 1.0
    np.testing.assert_array_equal(aug.u[dd + w:dd + 2 * w], np.eye(w)[-1])
    assert aug.mean_slice == slice(dd + w, dd + w + d)
    assert aug.mean_block == slice(dd + w, dd + 2 * w)


def _kronecker_assembly(sde, state, formulation):
    """M and u laid out as in the paper, from Kronecker products and L, r."""
    d, dd = sde.d, sde.d * sde.d
    abar, bbar = sde.drift_forcing(sde.t0), sde.noise_forcing(sde.t0)
    calA = kron_sum(sde.A, sde.A)
    beta4 = kron_sum_vec(abar, abar)
    beta5 = kron_sum_vec(sde.a1, sde.a1)
    for i in range(sde.m):
        Bi, bar_i, b1_i = sde.B[i], bbar[i][:, None], sde.b1[i][:, None]
        calA = calA + kron(Bi, Bi)
        beta4 = beta4 + kron(bar_i, Bi) + kron(Bi, bar_i)
        beta5 = beta5 + kron(b1_i, Bi) + kron(Bi, b1_i)
    B1 = vec(bbar.T @ bbar) + beta4 @ state.m0
    B2 = vec(bbar.T @ sde.b1 + sde.b1.T @ bbar) + beta5 @ state.m0
    B3 = vec(sde.b1.T @ sde.b1)
    drive = sde.A @ state.m0 + abar
    w = d + 1 if formulation is Formulation.AUTONOMOUS else d + 2
    C = np.zeros((w, w))
    C[:d, :d] = sde.A
    C[:d, w - 1] = drive
    if w == d + 2:
        C[:d, d] = sde.a1
        C[d, d + 1] = 1.0
    L = np.eye(d, w)
    r = np.eye(w)[-1]
    B4, B5 = beta4 @ L, beta5 @ L
    if formulation is Formulation.AUTONOMOUS:
        M = np.block([[calA, B1[:, None], B4],
                      [np.zeros((1, dd + 1 + w))],
                      [np.zeros((w, dd + 1)), C]])
        u = np.concatenate([vec(state.P0), [1.0], r])
        return M, u
    time = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    M = np.block([[calA, B5, B4, B3[:, None], B2[:, None], B1[:, None]],
                  [np.zeros((w, dd)), C, np.eye(w), np.zeros((w, 3))],
                  [np.zeros((w, dd + w)), C, np.zeros((w, 3))],
                  [np.zeros((3, dd + 2 * w)), time]])
    u = np.concatenate([vec(state.P0), np.zeros(w), r, [0.0, 0.0, 1.0]])
    return M, u


def test_structured_product_matches_dense_M():
    # the action route's product from M's blocks equals M @ x on every
    # formulation, including the wider ones on narrower models
    rng = np.random.default_rng(63)
    covered = set()
    for d in range(1, 9):
        for m in range(4):
            for kind in CLASSES:
                sde, state = random_stable_model(rng, d, kind, m=m)
                for formulation in Formulation:
                    try:
                        aug = assemble(sde, state, formulation)
                    except ValueError:
                        continue
                    u = np.ones(aug.n) if aug.u is None else aug.u
                    for x in (u, rng.standard_normal(aug.n)):
                        want = aug.M @ x
                        got = aug.apply(x)
                        assert got.shape == want.shape
                        assert (np.linalg.norm(got - want)
                                <= 1e-14 * np.linalg.norm(want))
                    covered.add((formulation, classify(sde)))
    assert len(covered) == 6


def test_action_routes_never_form_M(monkeypatch):
    # the default and the named action route run on the product alone: at
    # d = 12 without calA, and at d = 24 (n = 631, where M takes 3.2 MB)
    # without any allocation the size of M
    action = ExpmOptions(method="action")
    rng = np.random.default_rng(64)
    cases = []
    for d in (12, 24):
        for kind in ("non_autonomous", "autonomous_multiplicative"):
            sde, state = random_stable_model(rng, d, kind, m=2)
            sde = dataclasses.replace(sde, B=sde.B / np.sqrt(d))
            assert _wants_action(assemble(sde, state), None)
            dense = None
            if d == 12:
                dense = [moments_at(sde, state, sde.t0 + 2.0,
                                    ExpmOptions(method="dense"))]
                dense += propagate_grid(sde, state, 0.5, 4,
                                        ExpmOptions(method="dense"))
            cases.append((sde, state, dense))

    def forbidden(sde):
        raise AssertionError("build_calA called on the action route")

    monkeypatch.setattr(moments_module, "build_calA", forbidden)
    for sde, state, dense in cases:
        n = assemble(sde, state).n
        for options in (None, action):
            tracemalloc.start()
            try:
                got = [moments_at(sde, state, sde.t0 + 2.0, options)]
                got += propagate_grid(sde, state, 0.5, 4, options)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            if dense is None:
                assert peak < 8 * n * n
                continue
            for res, ref in zip(got, dense, strict=True):
                assert rel_diff(res.mean, ref.mean, floor=1.0) < 1e-10
                assert rel_diff(res.secmom, ref.secmom) < 1e-10


def test_assemble_matches_kronecker_construction():
    rng = np.random.default_rng(60)
    for d in range(1, 7):
        for m in range(4):
            for kind in CLASSES:
                sde, state = random_stable_model(rng, d, kind, m=m)
                forms = [Formulation.GENERAL]
                if kind != "non_autonomous":
                    forms.append(Formulation.AUTONOMOUS)
                for formulation in forms:
                    aug = assemble(sde, state, formulation)
                    M, u = _kronecker_assembly(sde, state, formulation)
                    assert aug.M.shape == M.shape
                    assert rel_diff(aug.M, M) <= 1e-15
                    assert rel_diff(aug.u, u) <= 1e-15
                    # the mean's block, of size d + 2, holds the mean and
                    # its rows see no column outside it
                    block, mean = aug.mean_block, aug.mean_slice
                    assert block.stop - block.start == d + 2
                    assert block.start <= mean.start < mean.stop <= block.stop
                    outside = np.ones(aug.n, dtype=bool)
                    outside[block] = False
                    np.testing.assert_array_equal(aug.M[block][:, outside], 0.0)


def test_assemble_formulation_validation():
    # a formulation covers a model exactly when it is at least as wide as
    # the narrowest one, classify's; Formulation is declared widest first
    rng = np.random.default_rng(46)
    order = list(Formulation)
    sizes = {Formulation.GENERAL: 15, Formulation.AUTONOMOUS: 8,
             Formulation.ADDITIVE: 6}
    for kind in CLASSES:
        sde, state = random_stable_model(rng, 2, kind)
        narrowest = classify(sde)
        assert assemble(sde, state).formulation is narrowest
        for formulation in Formulation:
            if order.index(formulation) <= order.index(narrowest):
                aug = assemble(sde, state, formulation)
                assert (aug.formulation, aug.n) == (formulation, sizes[formulation])
            else:
                with pytest.raises(ValueError, match=f"{formulation.name} .* "
                                                     f"narrowest is {narrowest.name}"):
                    assemble(sde, state, formulation)
    # a formulation or route named by a string is no Formulation or ExpmOptions
    t = sde.t0 + 1.0
    with pytest.raises(TypeError, match="must be a Formulation or None"):
        moments_at(sde, state, t, formulation="general")
    for call in (lambda: moments_at(sde, state, t, options="action"),
                 lambda: propagate_grid(sde, state, 0.5, 2, options="action")):
        with pytest.raises(TypeError, match="must be an ExpmOptions or None"):
            call()


def test_state_dimension_mismatch_raises_one_error():
    rng = np.random.default_rng(49)
    sde, _ = random_stable_model(rng, 2, "non_autonomous")
    state = random_state(rng, 3)
    t = sde.t0 + 1.0
    config = McConfig(n_paths=4, n_steps=2, seed=0)
    calls = (lambda: assemble(sde, state),
             lambda: rk4_moments(sde, state, t, 10),
             lambda: euler_maruyama_mc(sde, state, t, config),
             lambda: moments_baseline(sde, state, t))
    for call in calls:
        with pytest.raises(ValueError,
                           match=r"^state dimension 3 != model dimension 2$"):
            call()


def test_moments_at_initial_time_exact():
    rng = np.random.default_rng(47)
    for kind in CLASSES:
        sde, state = random_stable_model(rng, 3, kind)
        res = moments_at(sde, state, sde.t0)
        np.testing.assert_array_equal(res.mean, state.m0)
        np.testing.assert_allclose(res.secmom, state.P0, rtol=0, atol=0)


def test_moments_at_rejects_past_times():
    rng = np.random.default_rng(48)
    sde, state = random_stable_model(rng, 2, "autonomous_additive")
    with pytest.raises(ValueError):
        moments_at(sde, state, sde.t0 - 0.1)


def test_gbm_closed_form():
    a, b = 0.31, 0.42
    sde = LinearSde(d=1, m=1, A=[[a]], a0=[0.0], B=[[[b]]], b0=[[0.0]], t0=0.25)
    state = MomentState(m0=[1.0], P0=[[1.0]])
    res = moments_at(sde, state, 1.25)
    np.testing.assert_allclose(res.mean, [np.exp(a)], rtol=1e-12)
    np.testing.assert_allclose(res.secmom, [[np.exp(2 * a + b * b)]], rtol=1e-12)


def test_ou_closed_form():
    sde = LinearSde(d=1, m=1, A=[[-1.0]], a0=[0.0], b0=[[1.0]])
    state = MomentState(m0=[0.0], P0=[[0.0]])
    for t in (0.5, 1.0, 2.0):
        res = moments_at(sde, state, t)
        np.testing.assert_allclose(res.variance,
                                   [[(1.0 - np.exp(-2.0 * t)) / 2.0]],
                                   rtol=1e-12)


def test_matches_rk4_all_classes():
    rng = np.random.default_rng(49)
    for kind in CLASSES:
        for d in (1, 2, 3):
            sde, state = random_stable_model(rng, d, kind)
            t = sde.t0 + 1.0
            res = moments_at(sde, state, t)
            ref = rk4_moments(sde, state, t, 4000)
            assert rel_diff(res.mean, ref.mean, floor=1.0) < 1e-8
            assert rel_diff(res.secmom, ref.secmom) < 1e-8


def test_overflowing_moments_raise_typed_error():
    # e^{2 * 333} P0 is not representable, on the dense vector, Krylov
    # action and additive routes; the typed error is all the caller sees,
    # with no numpy RuntimeWarning ahead of it
    state = MomentState(m0=[1e10], P0=[[1e20]])
    mult = LinearSde(d=1, m=1, A=[[333.0]], a0=[0.0], B=[[[0.1]]], b0=[[0.0]])
    add = LinearSde(d=1, m=1, A=[[333.0]], a0=[0.0], b0=[[1.0]])
    action = ExpmOptions(method="action")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sde in (mult, add):
            with pytest.raises(ExpmOverflowError):
                moments_at(sde, state, 1.0)
            with pytest.raises(ExpmOverflowError):
                propagate_grid(sde, state, 0.5, 2)
            with pytest.raises(ExpmOverflowError):
                moments_baseline(sde, state, 1.0)
        with pytest.raises(ExpmOverflowError):
            moments_at(mult, state, 1.0, options=action)
        with pytest.raises(ExpmOverflowError):
            propagate_grid(mult, state, 0.5, 2, options=action)
        # at n = 112 the 96-vector basis is never exact, and a later step
        # of the grid's one basis overflows before it converges
        rng = np.random.default_rng(0)
        d = 10
        big = LinearSde(d=d, m=1, A=3.0 * np.eye(d) + rng.uniform(-0.3, 0.3, (d, d)),
                        a0=np.ones(d), B=rng.uniform(-0.1, 0.1, (1, d, d)),
                        b0=np.ones((1, d)))
        big_state = MomentState(m0=np.ones(d), P0=np.eye(d) + np.ones((d, d)))
        with pytest.raises(ExpmOverflowError):
            propagate_grid(big, big_state, 10.0, 12, options=action)
        # e^{100 t} overflows the second moment first at t = 4 of 6; the
        # error names the first time whose variance is not finite, not the
        # last one, on every route. The named action route (the additive
        # model takes it under the general formulation) returns overflowed
        # Krylov rows, but steps the mean by the flow's own exponential
        state = MomentState(m0=[1.0], P0=[[1.0]])
        for sde, vector_formulation in (
                (LinearSde(d=1, m=1, A=[[100.0]], a0=[0.0], B=[[[0.1]]],
                           b0=[[0.0]]), None),
                (LinearSde(d=1, m=1, A=[[100.0]], a0=[0.0], b0=[[1.0]]),
                 Formulation.GENERAL)):
            with pytest.raises(ExpmOverflowError, match=r"at t = 4 "):
                propagate_grid(sde, state, 1.0, 6)
            with pytest.raises(ExpmOverflowError, match=r"at t = 4 "):
                propagate_grid(sde, state, 1.0, 6, options=action,
                               formulation=vector_formulation)


def test_overflowing_generator_raises_typed_error():
    # B = 1e160 I makes B (x) B overflow: the dense route would meet a
    # non-finite M and the action route a non-finite product, and both name
    # the model's scale instead
    for d in (2, 11):
        sde = LinearSde(d=d, m=1, A=-np.eye(d), a0=np.zeros(d),
                        B=[1e160 * np.eye(d)], b0=np.zeros((1, d)))
        state = MomentState(m0=np.ones(d), P0=np.ones((d, d)))
        routes = [None, ExpmOptions(method="dense"), ExpmOptions(method="action")]
        assert _wants_action(assemble(sde, state), None) == (d == 11)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for options in routes:
                with pytest.raises(ExpmOverflowError, match=r"reach 1e\+160"):
                    moments_at(sde, state, 1.0, options)
                with pytest.raises(ExpmOverflowError, match=r"reach 1e\+160"):
                    propagate_grid(sde, state, 0.5, 2, options)
            with pytest.raises(ExpmOverflowError, match=r"reach 1e\+160"):
                assemble(sde, state).M
    # expm itself keeps rejecting a non-finite matrix as bad input
    with pytest.raises(ValueError, match="non-finite"):
        expm(np.full((2, 2), np.inf))


def test_formulation_consistency():
    rng = np.random.default_rng(50)
    for d in (1, 2, 4):
        mult, state = random_stable_model(rng, d, "autonomous_multiplicative")
        t = mult.t0 + 1.0
        via_aut = moments_at(mult, state, t, formulation=Formulation.AUTONOMOUS)
        via_gen = moments_at(mult, state, t, formulation=Formulation.GENERAL)
        assert rel_diff(via_aut.mean, via_gen.mean, floor=1.0) < 1e-10
        assert rel_diff(via_aut.secmom, via_gen.secmom) < 1e-10

        add, state2 = random_stable_model(rng, d, "autonomous_additive")
        t = add.t0 + 1.0
        results = [moments_at(add, state2, t, formulation=f)
                   for f in Formulation]
        for res in results[1:]:
            assert rel_diff(res.mean, results[0].mean, floor=1.0) < 1e-10
            assert rel_diff(res.secmom, results[0].secmom) < 1e-10


def test_variance_identity_and_symmetry():
    rng = np.random.default_rng(51)
    for kind in CLASSES:
        sde, state = random_stable_model(rng, 3, kind)
        res = moments_at(sde, state, sde.t0 + 1.3)
        np.testing.assert_array_equal(res.variance,
                                      res.secmom - np.outer(res.mean, res.mean))
        np.testing.assert_array_equal(res.secmom, res.secmom.T)
        assert res.symmetry_defect <= 1e-10 * max(np.abs(res.secmom).max(), 1.0)
        assert res.min_variance_eig >= -1e-8 * np.abs(res.variance).max()


def test_propagate_grid_matches_direct():
    rng = np.random.default_rng(52)
    for kind in CLASSES:
        sde, state = random_stable_model(rng, 2, kind)
        grid = propagate_grid(sde, state, 0.1, 10)
        assert len(grid) == 10
        for k, res in enumerate(grid, start=1):
            direct = moments_at(sde, state, sde.t0 + k * 0.1)
            assert rel_diff(res.mean, direct.mean, floor=1.0) < 1e-9
            assert rel_diff(res.secmom, direct.secmom) < 1e-9


def test_propagate_grid_single_step():
    # one routine serves both: a one-step grid repeats moments_at bit for
    # bit, on every formulation and route
    rng = np.random.default_rng(53)
    routes = {"non_autonomous": ("dense", "action"),
              "autonomous_multiplicative": ("dense", "action"),
              "autonomous_additive": ("dense",)}
    for kind, methods in routes.items():
        sde, state = random_stable_model(rng, 3, kind)
        for options in [None] + [ExpmOptions(method=m) for m in methods]:
            for tau in (0.4, 3.0):
                t = sde.t0 + tau
                direct = moments_at(sde, state, t, options)
                [step] = propagate_grid(sde, state, t - sde.t0, 1, options)
                for field in ("mean", "secmom", "variance"):
                    np.testing.assert_array_equal(getattr(step, field),
                                                  getattr(direct, field))
                assert step.symmetry_defect == direct.symmetry_defect
                assert step.min_variance_eig == direct.min_variance_eig


def test_stacked_results_match_per_point_reference(monkeypatch):
    # one make_result call per evaluation, and its stacked packaging equals
    # the per-point reference bit for bit on every formulation and route
    calls = []
    make_result = moments_module.make_result

    def counting(times, means, secmoms_raw):
        calls.append(len(times))
        return make_result(times, means, secmoms_raw)

    monkeypatch.setattr(moments_module, "make_result", counting)
    monkeypatch.setattr(oracle_module, "make_result", counting)
    rng = np.random.default_rng(62)
    for kind in CLASSES:
        sde, state = random_stable_model(rng, 3, kind)
        for formulation in Formulation:
            try:
                assemble(sde, state, formulation)
            except ValueError:
                continue
            methods = (("dense",) if formulation is Formulation.ADDITIVE
                       else ("dense", "action"))
            for method in methods:
                options = ExpmOptions(method=method)
                for step, n_steps in ((0.15, 20), (1.3, 1)):
                    got = propagate_grid(sde, state, step, n_steps, options,
                                         formulation)
                    want = reference_grid(sde, state, step, n_steps, method,
                                          formulation)
                    assert calls == [n_steps]
                    moments_at(sde, state, sde.t0 + step, options, formulation)
                    assert calls == [n_steps, 1]
                    calls.clear()
                    for res, ref in zip(got, want, strict=True):
                        assert res.t == ref.t
                        for field in ("mean", "secmom", "variance"):
                            np.testing.assert_array_equal(getattr(res, field),
                                                          getattr(ref, field))
                        assert res.symmetry_defect == ref.symmetry_defect
                        assert res.min_variance_eig == ref.min_variance_eig
                        assert not res.mean.flags.writeable
        moments_baseline(sde, state, sde.t0 + 1.0)
        rk4_moments(sde, state, sde.t0 + 1.0, 10)
        assert calls == [1, 1]
        calls.clear()


def test_propagate_grid_zero_model():
    sde = LinearSde(d=2, m=1, A=np.zeros((2, 2)), a0=np.zeros(2),
                    b0=np.zeros((1, 2)))
    state = MomentState(m0=[1.0, -1.0], P0=np.outer([1, -1], [1, -1]) + np.eye(2))
    for res in propagate_grid(sde, state, 0.5, 4):
        np.testing.assert_allclose(res.mean, state.m0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(res.secmom, state.P0, rtol=0, atol=1e-15)


def test_propagate_grid_validation():
    rng = np.random.default_rng(54)
    sde, state = random_stable_model(rng, 2, "autonomous_additive")
    with pytest.raises(ValueError):
        propagate_grid(sde, state, 0.0, 5)
    with pytest.raises(ValueError):
        propagate_grid(sde, state, 0.1, 0)
    with pytest.raises(ValueError, match="integer"):
        propagate_grid(sde, state, 0.1, 2.5)


def test_baseline_agrees_with_engine():
    rng = np.random.default_rng(55)
    for kind in CLASSES:
        for d in (1, 2, 4):
            sde, state = random_stable_model(rng, d, kind)
            t = sde.t0 + 1.0
            res = moments_at(sde, state, t)
            base = moments_baseline(sde, state, t)
            assert rel_diff(base.mean, res.mean, floor=1.0) < 1e-9
            assert rel_diff(base.secmom, res.secmom) < 1e-9


def test_baseline_initial_time():
    rng = np.random.default_rng(56)
    sde, state = random_stable_model(rng, 3, "autonomous_multiplicative")
    base = moments_baseline(sde, state, sde.t0)
    np.testing.assert_allclose(base.mean, state.m0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(base.secmom, state.P0, rtol=0, atol=1e-15)


def test_baseline_ou_closed_form():
    sde = LinearSde(d=1, m=1, A=[[-1.0]], a0=[0.0], b0=[[1.0]])
    state = MomentState(m0=[0.0], P0=[[0.0]])
    base = moments_baseline(sde, state, 1.0)
    np.testing.assert_allclose(base.variance,
                               [[(1.0 - np.exp(-2.0)) / 2.0]], rtol=1e-12)


def test_action_route_matches_dense():
    rng = np.random.default_rng(57)
    sde, state = random_stable_model(rng, 5, "non_autonomous")
    t = sde.t0 + 1.0
    dense = moments_at(sde, state, t)
    act = moments_at(sde, state, t, options=ExpmOptions(method="action"))
    assert rel_diff(act.mean, dense.mean, floor=1.0) < 1e-9
    assert rel_diff(act.secmom, dense.secmom) < 1e-9
    grid_a = propagate_grid(sde, state, 0.25, 4,
                            options=ExpmOptions(method="action"))
    grid_d = propagate_grid(sde, state, 0.25, 4)
    assert rel_diff(grid_a[-1].secmom, grid_d[-1].secmom) < 1e-9


def test_action_route_rejected_for_additive():
    rng = np.random.default_rng(58)
    sde, state = random_stable_model(rng, 2, "autonomous_additive")
    with pytest.raises(ValueError):
        moments_at(sde, state, sde.t0 + 1.0, options=ExpmOptions(method="action"))
    with pytest.raises(ValueError):
        propagate_grid(sde, state, 0.1, 2, options=ExpmOptions(method="action"))


def test_additive_answers_at_long_horizons():
    # the growing adjoint block e^{-A^T tau} is never formed, so horizons
    # where reading the noise integral off e^{M tau} cancelled, or where
    # that block overflowed, give the autonomous formulation's moments
    label, sde, state = hilbert_systems(8)[2]
    assert label == "autonomous_additive"
    stiff = LinearSde(d=2, m=1, A=np.diag([-0.1, -10.0]), a0=[1.0, 0.0],
                      b0=[[1.0, 1.0]])
    zero = MomentState(m0=np.zeros(2), P0=np.zeros((2, 2)))
    autonomous = {"formulation": Formulation.AUTONOMOUS}
    cases = [(sde, state, 4.0), (sde, state, 20.0), (sde, state, 50.0),
             (stiff, zero, 3.0), (stiff, zero, 10.0), (stiff, zero, 50.0)]
    pairs = [(moments_at(model, s, model.t0 + tau),
              moments_at(model, s, model.t0 + tau, **autonomous))
             for model, s, tau in cases]
    pairs += zip(propagate_grid(sde, state, 0.5, 60),
                 propagate_grid(sde, state, 0.5, 60, **autonomous))
    for additive, want in pairs:
        assert rel_diff(additive.mean, want.mean, floor=1.0) < 1e-12
        assert rel_diff(additive.secmom, want.secmom) < 1e-12


def _stiff_additive_model(rng, d):
    """The stiff-model fuzz recipe with B = 0: A = V diag(-lambda) V^-1,
    lambda log-uniform in [1e-2, 10^k] with k ~ U(0, 3), V = I + c U for a
    strictly upper Gaussian U and c ~ U(0, 1.5); a0, b0 and m0 standard
    normal, P0 = G G^T / 2 + m0 m0^T and tau = 10^U(-1, 2)."""
    m = int(rng.integers(0, 3))
    lam = 10.0 ** rng.uniform(-2.0, rng.uniform(0.0, 3.0), d)
    V = np.eye(d) + rng.uniform(0.0, 1.5) * np.triu(rng.standard_normal((d, d)), 1)
    sde = LinearSde(d=d, m=m, A=V @ np.diag(-lam) @ np.linalg.inv(V),
                    a0=rng.standard_normal(d), b0=rng.standard_normal((m, d)))
    m0, G = rng.standard_normal(d), rng.standard_normal((d, d))
    state = MomentState(m0=m0, P0=0.5 * G @ G.T + np.outer(m0, m0))
    return sde, state, 10.0 ** rng.uniform(-1.0, 2.0)


def test_stiff_additive_models_match_ito_closure():
    # stiff, non-normal drifts over horizons where e^{-A^T tau} grows far
    # past e^{A tau}: mean against mean and P against P, each relative to
    # its own largest entry, so a large P cannot hide an error in the mean
    rng = np.random.default_rng(2027)
    for _ in range(60):
        sde, state, tau = _stiff_additive_model(rng, int(rng.integers(1, 14)))
        assert classify(sde) is Formulation.ADDITIVE
        mean, secmom = ito_closure_moments(sde, state, tau)
        res = moments_at(sde, state, sde.t0 + tau)
        assert rel_diff(res.mean, mean) <= 1e-8
        assert rel_diff(res.secmom, secmom) <= 1e-8


def test_make_result_rejects_an_overflowing_variance():
    # a finite mean and second moment whose variance overflows raise the
    # typed error at its time, with no numpy warning and no garbage variance
    means = np.array([[1.0, 1.0], [1e200, 1.0]])
    secmoms = np.array([np.eye(2), [[1e300, 0.0], [0.0, 1.0]]])
    with pytest.raises(ExpmOverflowError, match=r"at t = 1 "):
        make_result([0.5, 1.0], means, secmoms)


def test_default_method_selection():
    rng = np.random.default_rng(59)
    small, state = random_stable_model(rng, 3, "non_autonomous")
    aug_small = assemble(small, state)
    assert not _wants_action(aug_small, None)
    big, state_big = random_stable_model(rng, 20, "non_autonomous", m=1)
    aug_big = assemble(big, state_big)
    assert aug_big.n == 20 * 20 + 2 * 20 + 7
    assert _wants_action(aug_big, None)
    assert not _wants_action(aug_big, ExpmOptions(method="dense"))
    # either side of the one limit that moments_at and propagate_grid
    # share: (d, kind) -> augmented size and the default route
    sides = {(8, "non_autonomous"): (87, False),
             (10, "autonomous_multiplicative"): (112, False),
             (10, "non_autonomous"): (127, True),
             (12, "autonomous_multiplicative"): (158, True),
             (16, "non_autonomous"): (295, True),
             (20, "autonomous_multiplicative"): (422, True)}
    for (d, kind), (n, action) in sides.items():
        aug = assemble(*random_stable_model(rng, d, kind, m=1))
        assert aug.n == n
        assert (aug.n > _DENSE_LIMIT) == action
        assert _wants_action(aug, None) == action
    # the additive formulation squares a pair of matrix blocks, so it
    # stays dense
    additive, state_add = random_stable_model(rng, 70, "autonomous_additive")
    aug_add = assemble(additive, state_add)
    assert aug_add.n > _DENSE_LIMIT
    assert not _wants_action(aug_add, None)


def _band_systems(d):
    """Hilbert and random-stable systems in both vector formulations."""
    rng = np.random.default_rng(d)
    systems = [(sde, state) for _, sde, state in hilbert_systems(d)[:2]]
    for kind in ("non_autonomous", "autonomous_multiplicative"):
        sde, state = random_stable_model(rng, d, kind, m=1)
        # noise scaled by 1/sqrt(d) keeps the second moment bounded
        systems.append((dataclasses.replace(sde, B=sde.B / np.sqrt(d)), state))
    return systems


def test_action_matches_dense_across_switched_band():
    # the named action route raises rather than falls back, so every case
    # here runs Krylov; the default routes of moments_at and propagate_grid
    # must equal the route their shared limit chooses
    action, dense = ExpmOptions(method="action"), ExpmOptions(method="dense")
    for d in (10, 12, 14, 16):
        for sde, state in _band_systems(d):
            n = assemble(sde, state).n
            for tau in (1.0, 10.0):
                t = sde.t0 + tau
                got = moments_at(sde, state, t, options=action)
                want = moments_at(sde, state, t, options=dense)
                assert rel_diff(got.mean, want.mean, floor=1.0) < 1e-10
                assert rel_diff(got.secmom, want.secmom) < 1e-10
                default = moments_at(sde, state, t)
                chosen = got if n > _DENSE_LIMIT else want
                np.testing.assert_array_equal(default.secmom, chosen.secmom)
                grid = propagate_grid(sde, state, tau, 2, options=action)
                grid_dense = propagate_grid(sde, state, tau, 2, options=dense)
                grid_default = propagate_grid(sde, state, tau, 2)
                grid_chosen = grid if n > _DENSE_LIMIT else grid_dense
                for got, want, default, chosen in zip(grid, grid_dense,
                                                      grid_default, grid_chosen):
                    assert got.t == want.t
                    assert rel_diff(got.mean, want.mean, floor=1.0) < 1e-10
                    assert rel_diff(got.secmom, want.secmom) < 1e-10
                    np.testing.assert_array_equal(default.secmom, chosen.secmom)


def test_default_route_falls_back_to_dense_where_krylov_fails():
    # a stiff drift at n = 158: Krylov needs more than its 96-vector cap
    rng = np.random.default_rng(1)
    d = 12
    A = rng.uniform(-1.0, 1.0, (d, d)) * 30.0
    A -= (np.linalg.eigvals(A).real.max() + 0.5) * np.eye(d)
    sde = LinearSde(d=d, m=1, A=A, a0=np.ones(d), b0=np.ones((1, d)),
                    B=rng.uniform(-1.0, 1.0, (1, d, d)) / np.sqrt(d))
    state = random_state(rng, d)
    assert _wants_action(assemble(sde, state), None)
    action, dense = ExpmOptions(method="action"), ExpmOptions(method="dense")
    with pytest.raises(ExpmConvergenceError):
        moments_at(sde, state, 1.0, options=action)
    with pytest.raises(ExpmConvergenceError):
        propagate_grid(sde, state, 1.0, 2, options=action)
    got = moments_at(sde, state, 1.0)
    grid = propagate_grid(sde, state, 1.0, 2)
    # the kept system holds the capped basis, not the fallback's M beside
    # it, and serves the same grid again as before
    assert "M" not in vars(assemble(sde, state))
    _assert_identical(propagate_grid(sde, state, 1.0, 2), grid)
    want = moments_at(sde, state, 1.0, options=dense)
    np.testing.assert_array_equal(got.secmom, want.secmom)
    grid_dense = propagate_grid(sde, state, 1.0, 2, options=dense)
    for got, want in zip(grid, grid_dense):
        np.testing.assert_array_equal(got.secmom, want.secmom)


def test_inner_overflow_below_the_cap_grows_the_basis(monkeypatch):
    # a stiff, non-normal model from the fuzz recipe (d = 3, m = 2, n = 22):
    # a spurious Ritz value of the 8-vector basis overflows e^(H_8 tau),
    # though the moments (second moment 6e254) are finite. The basis
    # is not exact, so it is not converged: the basis grows and meets
    # the dense route
    rng = np.random.default_rng(938)
    sde, state, tau = stiff_model(rng, int(rng.integers(2, 7)))
    t = sde.t0 + tau
    action = ExpmOptions(method="action")
    got = moments_at(sde, state, t, options=action)
    want = moments_at(sde, state, t, options=ExpmOptions(method="dense"))
    assert rel_diff(got.mean, want.mean) < 1e-12
    assert rel_diff(got.secmom, want.secmom) < 1e-12
    # with the cap at that basis, the overflow is a convergence failure,
    # the error on which the default route falls back to dense
    monkeypatch.setattr(expm_module, "_MAX_KRYLOV", 8)
    with pytest.raises(ExpmConvergenceError) as excinfo:
        moments_at(sde, state, t, options=action)
    assert excinfo.value.residual == math.inf


def test_action_grid_takes_one_krylov_basis(monkeypatch):
    calls = []
    action = moments_module.expm_action

    def counting(*args):
        calls.append(args[3:])
        return action(*args)

    monkeypatch.setattr(moments_module, "expm_action", counting)
    rng = np.random.default_rng(61)
    for kind in ("non_autonomous", "autonomous_multiplicative"):
        sde, state = random_stable_model(rng, 4, kind, m=1)
        grid = propagate_grid(sde, state, 0.3, 12,
                              options=ExpmOptions(method="action"))
        assert calls == [(12,)]
        calls.clear()
        dense = propagate_grid(sde, state, 0.3, 12,
                               options=ExpmOptions(method="dense"))
        assert calls == []
        for got, want in zip(grid, dense):
            assert got.t == want.t
            assert rel_diff(got.mean, want.mean, floor=1.0) < 1e-10
            assert rel_diff(got.secmom, want.secmom) < 1e-10


DENSE, ACTION = ExpmOptions(method="dense"), ExpmOptions(method="action")


def _evaluate(name, sde, state, options=None, formulation=None):
    """One of the evaluations a fitting loop makes on a model: its results,
    or the type of the error it raises."""
    try:
        if name == "grid":
            return propagate_grid(sde, state, 0.5, 20, options, formulation)
        tau = {"tau1": 1.0, "tau10": 10.0}[name]
        return [moments_at(sde, state, sde.t0 + tau, options, formulation)]
    except (ExpmError, ValueError) as exc:
        return type(exc)


def _assert_identical(got, want):
    if isinstance(want, type):
        assert got is want
        return
    for res, ref in zip(got, want, strict=True):
        assert res.t == ref.t
        for field in ("mean", "secmom", "variance"):
            np.testing.assert_array_equal(getattr(res, field), getattr(ref, field))
        assert res.symmetry_defect == ref.symmetry_defect
        assert res.min_variance_eig == ref.min_variance_eig


def _reuse_models(rng):
    """d = 4 models of each class, and a d = 12 one the default route
    evaluates by Krylov action."""
    models = [random_stable_model(rng, 4, kind, m=1) for kind in CLASSES]
    sde, state = random_stable_model(rng, 12, "non_autonomous", m=1)
    models.append((dataclasses.replace(sde, B=sde.B / np.sqrt(12)), state))
    return models


def test_reused_system_gives_what_a_fresh_one_gives():
    # assemble hands every evaluation of one model its one system, with the
    # dense M or the Krylov basis earlier evaluations built; in any order of
    # times and grids, on every route and formulation, each result is the
    # one a fresh model object gives, bit for bit
    names = ("tau1", "tau10", "grid")
    for sde, state in _reuse_models(np.random.default_rng(65)):
        assert assemble(sde, state) is assemble(sde, state)
        assert (assemble(sde, state, Formulation.GENERAL)
                is not assemble(dataclasses.replace(sde), state, Formulation.GENERAL))
        for formulation in Formulation:
            try:
                assemble(sde, state, formulation)
            except ValueError:
                continue
            for options in (None, DENSE, ACTION):
                want = {name: _evaluate(name, dataclasses.replace(sde), state,
                                        options, formulation) for name in names}
                for order in itertools.permutations(names):
                    model = dataclasses.replace(sde)
                    for name in order:
                        _assert_identical(
                            _evaluate(name, model, state, options, formulation),
                            want[name])


def test_threads_keep_their_own_systems():
    # two threads evaluating the same model objects at once each resume
    # their own system, and get what a serial run gets
    models = _reuse_models(np.random.default_rng(66))
    names = ("tau1", "tau10", "grid")
    want = {(i, name): _evaluate(name, dataclasses.replace(sde), state)
            for i, (sde, state) in enumerate(models) for name in names}

    def work(order):
        got = []
        for _ in range(3):
            for i, (sde, state) in enumerate(models):
                got += [((i, name), _evaluate(name, sde, state)) for name in order]
        return got

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(work, order)
                       for order in itertools.permutations(names)]
            results = [future.result(timeout=300) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for got in results:
        for key, res in got:
            _assert_identical(res, want[key])


def test_a_dropped_model_is_freed_without_the_collector():
    # the thread's last system holds its model, Krylov basis and M without
    # a reference cycle, so they go once another model is evaluated
    rng = np.random.default_rng(67)
    sde, state = random_stable_model(rng, 12, "non_autonomous", m=1)
    other, other_state = random_stable_model(rng, 2, "autonomous_additive")
    ref = weakref.ref(sde)
    gc.disable()
    try:
        moments_at(sde, state, sde.t0 + 1.0)
        moments_at(sde, state, sde.t0 + 1.0, ACTION)
        propagate_grid(sde, state, 0.5, 4, DENSE)
        del sde, state
        assert ref() is not None
        moments_at(other, other_state, other.t0 + 1.0)
        assert ref() is None
    finally:
        gc.enable()


def test_reused_system_after_a_failure_gives_fresh_results():
    # a basis left at its cap by ExpmConvergenceError, or an evaluation that
    # raised ExpmOverflowError, leaves later results as a fresh model gives
    rng = np.random.default_rng(1)
    d = 12
    A = rng.uniform(-1.0, 1.0, (d, d)) * 30.0
    A -= (np.linalg.eigvals(A).real.max() + 0.5) * np.eye(d)
    stiff = LinearSde(d=d, m=1, A=A, a0=np.ones(d), b0=np.ones((1, d)),
                      B=rng.uniform(-1.0, 1.0, (1, d, d)) / np.sqrt(d))
    stiff_state = random_state(rng, d)
    with pytest.raises(ExpmConvergenceError):
        moments_at(stiff, stiff_state, 1.0, ACTION)
    for options, t in ((ACTION, 0.01), (None, 1.0), (ACTION, 0.005)):
        _assert_identical([moments_at(stiff, stiff_state, t, options)],
                          [moments_at(dataclasses.replace(stiff), stiff_state, t,
                                      options)])
    # at t = 1.7e308, ||M t||_1 overflows before expm can count squarings;
    # e^{100 t} overflows the second moment at t = 4, after these grids end
    state = MomentState(m0=[1.0], P0=[[1.0]])
    for sde, t in ((LinearSde(d=1, m=1, A=[[-1.0]], a0=[0.0], B=[[[0.5]]],
                              b0=[[1.0]]), 1.7e308),
                   (LinearSde(d=1, m=1, A=[[100.0]], a0=[0.0], B=[[[0.1]]],
                              b0=[[0.0]]), 6.0)):
        for options in (None, ACTION):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ExpmOverflowError):
                    moments_at(sde, state, t, options)
            for tau in (0.5, 1.0):
                _assert_identical(
                    propagate_grid(sde, state, tau, 3, options),
                    propagate_grid(dataclasses.replace(sde), state, tau, 3, options))


def test_assembled_system_is_read_only():
    # one system serves every evaluation of a model, so nothing may write to it
    rng = np.random.default_rng(68)
    for kind in CLASSES:
        sde, state = random_stable_model(rng, 3, kind)
        aug = assemble(sde, state)
        arrays = [aug.apply.columns, aug.M] + ([] if aug.u is None else [aug.u])
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0
