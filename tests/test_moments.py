import dataclasses
import importlib
import warnings

import numpy as np
import pytest

from sdemoments import (ExpmConvergenceError, ExpmError, ExpmOptions,
                        ExpmOverflowError, Formulation, LinearSde,
                        MomentState, SdeClass, assemble, expm, hilbert_systems,
                        kron, kron_sum, kron_sum_vec, moment_ode_rhs,
                        moments_at, moments_baseline, propagate_grid,
                        rk4_moments, vec)
from sdemoments.moments import (_DENSE_LIMIT, _wants_action, build_beta, build_C,
                                build_calA, build_script_B)
from support import (CLASSES, random_stable_model, random_state, reference_grid,
                     rel_diff)

moments_module = importlib.import_module("sdemoments.moments")
oracle_module = importlib.import_module("sdemoments.oracle")


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
    C = build_C(sde, state, SdeClass.AUTONOMOUS_ADDITIVE)
    np.testing.assert_allclose(C, [[-2.0, -2.0 * 0.5 + 3.0], [0.0, 0.0]])


def test_build_C_non_autonomous_shape():
    sde = LinearSde(d=2, m=0, A=-np.eye(2), a0=[0.0, 0.0], a1=[1.0, 2.0])
    state = MomentState(m0=[0.0, 0.0], P0=np.zeros((2, 2)))
    C = build_C(sde, state, SdeClass.NON_AUTONOMOUS)
    assert C.shape == (4, 4)
    np.testing.assert_array_equal(C[:2, 2], [1.0, 2.0])
    assert C[2, 3] == 1.0


def test_build_C_solves_mean_ode():
    rng = np.random.default_rng(41)
    for kind in CLASSES:
        sde, state = random_stable_model(rng, 3, kind)
        cls = (SdeClass.NON_AUTONOMOUS if kind == "non_autonomous"
               else SdeClass.AUTONOMOUS_MULTIPLICATIVE)
        C = build_C(sde, state, cls)
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
        C = build_C(sde, state, SdeClass.NON_AUTONOMOUS)
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
    C = build_C(sde, state, SdeClass.NON_AUTONOMOUS)
    np.testing.assert_array_equal(aug.M[:dd, :dd], build_calA(sde))
    np.testing.assert_array_equal(aug.M[dd:dd + w, dd:dd + w], C)
    np.testing.assert_array_equal(aug.M[dd + w:dd + 2 * w, dd + w:dd + 2 * w], C)
    # u seeds vec(P0), the mean flow's last unit vector r, and the constant 1
    np.testing.assert_array_equal(aug.u[:dd], vec(state.P0))
    assert aug.u[-1] == 1.0
    np.testing.assert_array_equal(aug.u[dd + w:dd + 2 * w], np.eye(w)[-1])
    assert aug.mean_slice == slice(dd + w, dd + w + d)


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


def test_assemble_formulation_validation():
    rng = np.random.default_rng(46)
    non_aut, state = random_stable_model(rng, 2, "non_autonomous")
    with pytest.raises(ValueError):
        assemble(non_aut, state, Formulation.AUTONOMOUS)
    with pytest.raises(ValueError):
        assemble(non_aut, state, Formulation.ADDITIVE)
    mult, state2 = random_stable_model(rng, 2, "autonomous_multiplicative")
    with pytest.raises(ValueError):
        assemble(mult, state2, Formulation.ADDITIVE)
    assert assemble(mult, state2, Formulation.GENERAL).n == 15
    with pytest.raises(ValueError):
        assemble(mult, random_state(rng, 3))


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
        # error names that time, not the last one
        state = MomentState(m0=[1.0], P0=[[1.0]])
        for sde in (LinearSde(d=1, m=1, A=[[100.0]], a0=[0.0], B=[[[0.1]]],
                              b0=[[0.0]]),
                    LinearSde(d=1, m=1, A=[[100.0]], a0=[0.0], b0=[[1.0]])):
            with pytest.raises(ExpmOverflowError, match=r"at t = 4 "):
                propagate_grid(sde, state, 1.0, 6)


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


def test_additive_raises_where_cancellation_loses_accuracy():
    label, sde, state = hilbert_systems(8)[2]
    assert label == "autonomous_additive"
    with pytest.raises(ExpmError, match="Formulation.AUTONOMOUS"):
        moments_at(sde, state, sde.t0 + 20.0)
    with pytest.raises(ExpmError, match="Formulation.AUTONOMOUS"):
        propagate_grid(sde, state, 0.5, 60)
    t = sde.t0 + 4.0
    additive = moments_at(sde, state, t)
    autonomous = moments_at(sde, state, t, formulation=Formulation.AUTONOMOUS)
    assert rel_diff(additive.mean, autonomous.mean, floor=1.0) < 1e-12
    assert rel_diff(additive.secmom, autonomous.secmom) < 1e-12


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
    # the additive formulation reads matrix blocks, so it stays dense
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
    want = moments_at(sde, state, 1.0, options=dense)
    np.testing.assert_array_equal(got.secmom, want.secmom)
    grid = propagate_grid(sde, state, 1.0, 2)
    grid_dense = propagate_grid(sde, state, 1.0, 2, options=dense)
    for got, want in zip(grid, grid_dense):
        np.testing.assert_array_equal(got.secmom, want.secmom)


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
