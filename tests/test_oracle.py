import numpy as np
import pytest

import sdemoments.oracle
from sdemoments import (LinearSde, McConfig, MomentState, euler_maruyama_mc,
                        moment_ode_rhs, moments_at, rk4_moments)
from sdemoments.oracle import _initial_factor, _simulate
from support import random_stable_model, rel_diff


def test_rhs_zero_model():
    sde = LinearSde(d=2, m=1, A=np.zeros((2, 2)), a0=np.zeros(2),
                    b0=np.zeros((1, 2)))
    dm, dP = moment_ode_rhs(sde, np.zeros(2), np.zeros((2, 2)), 0.0)
    np.testing.assert_array_equal(dm, np.zeros(2))
    np.testing.assert_array_equal(dP, np.zeros((2, 2)))


def test_rhs_ou_diffusion_floor():
    # dP/dt at P=0, m=0 reduces to sigma^2
    sde = LinearSde(d=1, m=1, A=[[-1.0]], a0=[0.0], b0=[[0.8]])
    _, dP = moment_ode_rhs(sde, np.zeros(1), np.zeros((1, 1)), 0.0)
    np.testing.assert_allclose(dP, [[0.64]], rtol=1e-15)


def test_rhs_preserves_symmetry():
    rng = np.random.default_rng(60)
    for _ in range(10):
        sde, state = random_stable_model(rng, 3, "non_autonomous")
        m = rng.standard_normal(3)
        G = rng.standard_normal((3, 3))
        P = G @ G.T
        _, dP = moment_ode_rhs(sde, m, P, 0.7)
        np.testing.assert_allclose(dP, dP.T, rtol=0,
                                   atol=1e-13 * np.abs(dP).max())


def _rhs_per_channel(sde, m, P, t):
    """The moment ODE right-hand side with one loop pass per noise channel."""
    a_t = sde.drift_forcing(t)
    dm = sde.A @ m + a_t
    dP = sde.A @ P + P @ sde.A.T
    dP = dP + np.outer(a_t, m) + np.outer(m, a_t)
    if sde.m:
        b_t = sde.noise_forcing(t)
        for i in range(sde.m):
            Bi = sde.B[i]
            dP = dP + Bi @ P @ Bi.T
            Bm = Bi @ m
            dP = dP + np.outer(Bm, b_t[i]) + np.outer(b_t[i], Bm)
        dP = dP + b_t.T @ b_t
    return dm, dP


def test_rhs_matches_per_channel_reference():
    rng = np.random.default_rng(65)
    for d in range(1, 6):
        for n_channels in range(4):
            sde, _ = random_stable_model(rng, d, "non_autonomous", m=n_channels)
            m = rng.standard_normal(d)
            G = rng.standard_normal((d, d))
            for P in (G @ G.T, G):  # G: a non-symmetric P
                t = sde.t0 + 0.7
                dm, dP = moment_ode_rhs(sde, m, P, t)
                ref_m, ref_P = _rhs_per_channel(sde, m, P, t)
                assert rel_diff(dm, ref_m) <= 1e-14
                assert rel_diff(dP, ref_P) <= 1e-14


def test_rk4_calls_rhs_four_times_per_step(monkeypatch):
    # the benchmark's tracer counts these calls: one per RK4 stage
    calls = []

    def counting(*args):
        calls.append(args)
        return moment_ode_rhs(*args)

    rng = np.random.default_rng(66)
    sde, state = random_stable_model(rng, 2, "non_autonomous")
    plain = rk4_moments(sde, state, sde.t0 + 1.0, 7)
    monkeypatch.setattr(sdemoments.oracle, "moment_ode_rhs", counting)
    counted = rk4_moments(sde, state, sde.t0 + 1.0, 7)
    assert len(calls) == 4 * 7
    np.testing.assert_array_equal(counted.secmom, plain.secmom)


def test_rk4_initial_time():
    rng = np.random.default_rng(61)
    sde, state = random_stable_model(rng, 2, "autonomous_multiplicative")
    res = rk4_moments(sde, state, sde.t0, 10)
    np.testing.assert_array_equal(res.mean, state.m0)
    np.testing.assert_allclose(res.secmom, state.P0, rtol=0, atol=0)


def test_rk4_gbm_closed_form():
    a, b = 0.5, 0.3
    sde = LinearSde(d=1, m=1, A=[[a]], a0=[0.0], B=[[[b]]], b0=[[0.0]])
    state = MomentState(m0=[1.0], P0=[[1.0]])
    res = rk4_moments(sde, state, 1.0, 10 ** 4)
    np.testing.assert_allclose(res.mean, [np.exp(a)], rtol=1e-9)
    np.testing.assert_allclose(res.secmom, [[np.exp(2 * a + b * b)]], rtol=1e-9)


def test_rk4_fourth_order_convergence():
    rng = np.random.default_rng(62)
    sde, state = random_stable_model(rng, 2, "non_autonomous")
    t = sde.t0 + 1.0
    truth = moments_at(sde, state, t)
    errors = []
    for n in (40, 80, 160):
        res = rk4_moments(sde, state, t, n)
        errors.append(np.abs(res.secmom - truth.secmom).max())
    slopes = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(slopes > 3.7) and np.all(slopes < 4.3), slopes


def test_rk4_divergence_names_step():
    sde = LinearSde(d=1, m=0, A=[[1e40]], a0=[0.0])
    state = MomentState(m0=[1.0], P0=[[1.0]])
    with pytest.raises(RuntimeError, match="step"):
        rk4_moments(sde, state, 10.0, 10)


def test_rk4_validation():
    sde = LinearSde(d=1, m=0, A=[[0.0]], a0=[0.0])
    state = MomentState(m0=[0.0], P0=[[0.0]])
    with pytest.raises(ValueError):
        rk4_moments(sde, state, -1.0, 10)
    with pytest.raises(ValueError):
        rk4_moments(sde, state, 1.0, 0)
    with pytest.raises(ValueError, match="integer"):
        rk4_moments(sde, state, 1.0, 2.5)


def test_mc_reproducible_and_seed_sensitive():
    rng = np.random.default_rng(63)
    sde, state = random_stable_model(rng, 2, "autonomous_multiplicative")
    cfg = McConfig(n_paths=400, n_steps=40, seed=99)
    a = euler_maruyama_mc(sde, state, sde.t0 + 0.5, cfg)
    b = euler_maruyama_mc(sde, state, sde.t0 + 0.5, cfg)
    np.testing.assert_array_equal(a.mean, b.mean)
    np.testing.assert_array_equal(a.secmom, b.secmom)
    np.testing.assert_array_equal(a.stderr_mean, b.stderr_mean)
    c = euler_maruyama_mc(sde, state, sde.t0 + 0.5,
                          McConfig(n_paths=400, n_steps=40, seed=100))
    assert np.abs(a.mean - c.mean).max() > 0.0


def test_mc_chunking_does_not_change_paths(monkeypatch):
    # one stream read in path order: changing the vectorization chunk,
    # also to one that divides neither n_paths nor the default chunk,
    # reorders only the reduction, so estimates agree to roundoff
    rng = np.random.default_rng(64)
    sde, state = random_stable_model(rng, 2, "autonomous_multiplicative", m=1)
    cfg = McConfig(n_paths=2500, n_steps=30, seed=7)
    t = sde.t0 + 0.3
    coarse = euler_maruyama_mc(sde, state, t, cfg)
    for chunk in (128, 7):
        monkeypatch.setattr("sdemoments.oracle._CHUNK", chunk)
        fine = euler_maruyama_mc(sde, state, t, cfg)
        np.testing.assert_allclose(fine.mean, coarse.mean, rtol=1e-12)
        np.testing.assert_allclose(fine.secmom, coarse.secmom, rtol=1e-12)
        np.testing.assert_allclose(fine.stderr_mean, coarse.stderr_mean,
                                   rtol=1e-9)


def test_mc_blocks_are_capped_in_draws_as_well_as_paths(monkeypatch):
    # at L = d + n_steps m = 5001 a block of 1024 paths would hold 5.1M
    # draws; the cap of 2^22 draws takes 838 paths per block instead, and
    # the estimates are those of one uncapped block of every path
    n_paths, n_steps, seed = 1000, 5000, 5
    sde = LinearSde(d=1, m=1, A=[[-1.0]], a0=[0.5], B=[[[0.2]]], b0=[[0.3]])
    state = MomentState(m0=[1.0], P0=[[1.5]])
    shapes = []
    default_rng = np.random.default_rng

    class Recording:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def standard_normal(self, shape):
            shapes.append(shape)
            return self.rng.standard_normal(shape)

    monkeypatch.setattr(np.random, "default_rng", Recording)
    mc = euler_maruyama_mc(sde, state, 1.0, McConfig(n_paths, n_steps, seed))
    monkeypatch.undo()
    assert shapes == [(838, 5001), (162, 5001)]
    assert all(rows * cols <= 2 ** 22 for rows, cols in shapes)
    draws = np.random.default_rng(seed).standard_normal((n_paths, 1 + n_steps))
    x0 = state.m0 + draws[:, :1] @ _initial_factor(state).T
    x = _simulate(sde, x0, draws[:, 1:, None], 1.0 / n_steps, n_steps)
    np.testing.assert_allclose(mc.mean, x.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(mc.secmom, x.T @ x / n_paths, rtol=1e-12)


def _per_path(sde, x0, dW, h, n_steps):
    """Euler-Maruyama endpoints of each path stepped on its own, as the
    scheme is written: x += (A x + a(t)) h + sum_i (B_i x + b_i(t)) sqrt(h) dW_i."""
    finals = []
    for x, dw in zip(x0, dW):
        for step in range(n_steps):
            tk = sde.t0 + step * h
            b_t = sde.noise_forcing(tk)
            x = (x + (sde.A @ x + sde.drift_forcing(tk)) * h
                 + sum((sde.B[i] @ x + b_t[i]) * (np.sqrt(h) * dw[step, i])
                       for i in range(sde.m)))
        finals.append(x)
    return np.array(finals)


def test_mc_matches_documented_stream_layout():
    # path j reads draws j L .. (j + 1) L - 1 of default_rng(seed), with
    # L = d + n_steps m: d for the initial state, then dW step by step
    n_paths, n_steps, d, m, seed = 50, 20, 2, 2, 11
    rng = np.random.default_rng(67)
    sde, state = random_stable_model(rng, d, "non_autonomous", m=m)
    t = sde.t0 + 0.4
    h = (t - sde.t0) / n_steps
    draws = np.random.default_rng(seed).standard_normal((n_paths, d + n_steps * m))
    x0 = [state.m0 + _initial_factor(state) @ z[:d] for z in draws]
    finals = _per_path(sde, x0, draws[:, d:].reshape(n_paths, n_steps, m), h, n_steps)
    mc = euler_maruyama_mc(sde, state, t, McConfig(n_paths, n_steps, seed))
    np.testing.assert_allclose(mc.mean, finals.mean(axis=0),
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(mc.secmom, finals.T @ finals / n_paths,
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("d, m", [(1, 3), (3, 0), (4, 2)])
def test_simulate_matches_a_per_path_loop(monkeypatch, d, m):
    # the paths-last block, which folds h and sqrt(h) into its product,
    # gives each path what stepping it alone gives, to rounding; so do
    # blocks of 7 paths, which divide neither n_paths nor 1024
    rng = np.random.default_rng(68 + d)
    sde, state = random_stable_model(rng, d, "non_autonomous", m=m)
    n_paths, n_steps, seed = 30, 25, 13
    t = sde.t0 + 0.5
    h = (t - sde.t0) / n_steps
    draws = np.random.default_rng(seed).standard_normal((n_paths, d + n_steps * m))
    x0 = state.m0 + draws[:, :d] @ _initial_factor(state).T
    dW = draws[:, d:].reshape(n_paths, n_steps, m)
    want = _per_path(sde, x0, dW, h, n_steps)
    atol = 1e-12 * np.abs(want).max()
    np.testing.assert_allclose(_simulate(sde, x0, dW, h, n_steps), want,
                               rtol=1e-12, atol=atol)
    monkeypatch.setattr("sdemoments.oracle._CHUNK", 7)
    mc = euler_maruyama_mc(sde, state, t, McConfig(n_paths, n_steps, seed))
    np.testing.assert_allclose(mc.mean, want.mean(axis=0), rtol=1e-12, atol=atol)
    np.testing.assert_allclose(mc.secmom, want.T @ want / n_paths, rtol=1e-12,
                               atol=atol * np.abs(want).max())
    # step matrices tabulated 4 steps at a time, which divides neither
    # n_steps nor the blocks' count, and refilled for each block: the same bits
    monkeypatch.setattr("sdemoments.oracle._TABLE", 4 * ((1 + m) * d + 1) * (d + 1))
    chunked = euler_maruyama_mc(sde, state, t, McConfig(n_paths, n_steps, seed))
    np.testing.assert_array_equal(chunked.mean, mc.mean)
    np.testing.assert_array_equal(chunked.secmom, mc.secmom)


def test_mc_zero_noise_collapses():
    sde = LinearSde(d=2, m=0, A=[[-1.0, 0.2], [0.0, -0.5]], a0=[1.0, 0.0])
    m0 = np.array([1.0, 2.0])
    state = MomentState(m0=m0, P0=np.outer(m0, m0))
    mc = euler_maruyama_mc(sde, state, 1.0,
                           McConfig(n_paths=64, n_steps=2000, seed=3))
    assert mc.stderr_mean.max() == 0.0
    assert mc.stderr_secmom.max() == 0.0
    ref = rk4_moments(sde, state, 1.0, 2000)
    np.testing.assert_allclose(mc.mean, ref.mean, rtol=2e-3)


def test_mc_initial_sampling_matches_state():
    # tau = 0: the estimate reduces to a draw from (m0, P0)
    m0 = np.array([0.5, -1.0])
    P0 = np.array([[2.0, 0.3], [0.3, 1.5]]) + np.outer(m0, m0)
    state = MomentState(m0=m0, P0=P0)
    sde = LinearSde(d=2, m=1, A=np.zeros((2, 2)), a0=np.zeros(2),
                    b0=np.zeros((1, 2)))
    mc = euler_maruyama_mc(sde, state, 0.0,
                           McConfig(n_paths=50000, n_steps=1, seed=17))
    assert np.all(np.abs(mc.mean - m0) <= 3.0 * mc.stderr_mean)
    assert np.all(np.abs(mc.secmom - P0) <= 3.0 * mc.stderr_secmom)


def test_mc_ou_stationary_variance():
    sde = LinearSde(d=1, m=1, A=[[-1.0]], a0=[0.0], b0=[[1.0]])
    state = MomentState(m0=[0.0], P0=[[0.0]])
    mc = euler_maruyama_mc(sde, state, 5.0,
                           McConfig(n_paths=20000, n_steps=2000, seed=29))
    target = moments_at(sde, state, 5.0).secmom[0, 0]
    assert abs(mc.secmom[0, 0] - target) <= 3.0 * mc.stderr_secmom[0, 0]
    assert abs(target - 0.5) < 1e-4


def test_mc_gbm_mean():
    a, b = 0.4, 0.25
    sde = LinearSde(d=1, m=1, A=[[a]], a0=[0.0], B=[[[b]]], b0=[[0.0]])
    state = MomentState(m0=[1.0], P0=[[1.0]])
    mc = euler_maruyama_mc(sde, state, 1.0,
                           McConfig(n_paths=40000, n_steps=500, seed=37))
    assert abs(mc.mean[0] - np.exp(a)) <= 3.0 * mc.stderr_mean[0] + 1e-3


def test_mc_config_validation():
    with pytest.raises(ValueError):
        McConfig(n_paths=1, n_steps=10, seed=0)
    with pytest.raises(ValueError):
        McConfig(n_paths=10, n_steps=0, seed=0)
    with pytest.raises(ValueError, match="integer"):
        McConfig(n_paths=10.5, n_steps=10, seed=0)
    with pytest.raises(ValueError, match="integer"):
        McConfig(n_paths=10, n_steps=2.5, seed=0)
    # a seed numpy's SeedSequence would refuse is refused at construction
    for seed in (1.5, -1):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            McConfig(n_paths=10, n_steps=2, seed=seed)


def test_mc_rejects_past_times():
    sde = LinearSde(d=1, m=1, A=[[0.0]], a0=[0.0], b0=[[1.0]])
    state = MomentState(m0=[0.0], P0=[[0.0]])
    with pytest.raises(ValueError):
        euler_maruyama_mc(sde, state, -0.5, McConfig(n_paths=4, n_steps=2, seed=0))
