"""Shared helpers for the test suite."""

import math

import numpy as np
import scipy.linalg

from sdemoments import (ExpmOverflowError, LinearSde, MomentResult, MomentState,
                        assemble, expm, expm_action)
from sdemoments.expm import _squarings

CLASSES = ("non_autonomous", "autonomous_multiplicative", "autonomous_additive")


def random_stable_model(rng, d, kind, m=None):
    """Random model of the requested class with a Hurwitz drift matrix.

    Entries are uniform in [-1, 1]; A is shifted so its spectral
    abscissa is -0.5. t0 is drawn in [-0.5, 0.5].
    """
    if m is None:
        m = int(rng.integers(1, 3))
    t0 = float(rng.uniform(-0.5, 0.5))
    A = rng.uniform(-1.0, 1.0, (d, d))
    A = A - (np.linalg.eigvals(A).real.max() + 0.5) * np.eye(d)
    a0 = rng.uniform(-1.0, 1.0, d)
    b0 = rng.uniform(-1.0, 1.0, (m, d))
    if kind == "non_autonomous":
        sde = LinearSde(d=d, m=m, A=A, a0=a0, a1=rng.uniform(-1.0, 1.0, d),
                        B=rng.uniform(-1.0, 1.0, (m, d, d)), b0=b0,
                        b1=rng.uniform(-1.0, 1.0, (m, d)), t0=t0)
    elif kind == "autonomous_multiplicative":
        sde = LinearSde(d=d, m=m, A=A, a0=a0,
                        B=rng.uniform(-1.0, 1.0, (m, d, d)), b0=b0, t0=t0)
    elif kind == "autonomous_additive":
        sde = LinearSde(d=d, m=m, A=A, a0=a0, b0=b0, t0=t0)
    else:
        raise ValueError(kind)
    return sde, random_state(rng, d)


def stiff_model(rng, d):
    """Random stiff, non-normal model with its state and horizon tau.

    A = V diag(-lambda) V^-1, lambda log-uniform in [1e-2, 10^k] with
    k ~ U(0, 3), and V = I + c (strictly upper Gaussian) with c ~ U(0, 1.5).
    m is 0, 1 or 2; the class is non-autonomous, autonomous multiplicative
    or additive with equal weight. B is Gaussian times 10^U(-3, 1) / sqrt(d),
    the forcings and m0 standard normal, P0 = G G^T / 2 + m0 m0^T, and
    tau = 10^U(-1, 2).
    """
    m = int(rng.integers(0, 3))
    kind = CLASSES[int(rng.integers(0, 3))]
    lam = 10.0 ** rng.uniform(-2.0, rng.uniform(0.0, 3.0), d)
    V = np.eye(d) + rng.uniform(0.0, 1.5) * np.triu(rng.standard_normal((d, d)), 1)
    A = V @ np.diag(-lam) @ np.linalg.inv(V)
    B = rng.standard_normal((m, d, d)) * 10.0 ** rng.uniform(-3.0, 1.0) / np.sqrt(d)
    a0, b0 = rng.standard_normal(d), rng.standard_normal((m, d))
    if kind == "non_autonomous":
        sde = LinearSde(d=d, m=m, A=A, a0=a0, a1=rng.standard_normal(d), B=B,
                        b0=b0, b1=rng.standard_normal((m, d)))
    else:
        sde = LinearSde(d=d, m=m, A=A, a0=a0, b0=b0,
                        B=B if kind == "autonomous_multiplicative" else None)
    m0, G = rng.standard_normal(d), rng.standard_normal((d, d))
    P0 = 0.5 * (G @ G.T) + np.outer(m0, m0)
    return sde, MomentState(m0=m0, P0=(P0 + P0.T) / 2.0), 10.0 ** rng.uniform(-1.0, 2.0)


def random_state(rng, d):
    """Random valid MomentState: P0 = 0.5 G G^T + m0 m0^T."""
    m0 = rng.uniform(-1.0, 1.0, d)
    G = rng.uniform(-1.0, 1.0, (d, d))
    P0 = 0.5 * (G @ G.T) + np.outer(m0, m0)
    return MomentState(m0=m0, P0=(P0 + P0.T) / 2.0)


def rel_diff(a, b, floor=1e-300):
    """max-abs difference over max-abs of the reference."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.abs(a - b).max()) / max(float(np.abs(b).max()), floor)


def reference_make_result(t, mean, secmom_raw):
    """One time's raw moments packaged on their own, as make_result once did."""
    if not (np.isfinite(mean).all() and np.isfinite(secmom_raw).all()):
        raise ExpmOverflowError(
            f"moments at t = {float(t):g} overflow double precision; "
            f"rescale the problem or reduce t")
    defect = float(np.abs(secmom_raw - secmom_raw.T).max())
    secmom = (secmom_raw + secmom_raw.T) / 2.0
    variance = secmom - np.outer(mean, mean)
    min_eig = float(np.linalg.eigvalsh(variance).min())
    return MomentResult(t=float(t), mean=np.array(mean, dtype=float),
                        secmom=secmom, variance=variance,
                        symmetry_defect=defect, min_variance_eig=min_eig)


def ito_closure_moments(sde, state, tau):
    """Mean and second moment of an autonomous model at t0 + tau, from
    scipy's exponential of the Ito closure of z = (vec P, m, 1).

    The generator is read off column by column from the moment equations

        dm/dt = A m + a0
        dP/dt = A P + P A^T + a0 m^T + m a0^T
                + sum_i (B_i P B_i^T + B_i m b_i^T + b_i m^T B_i^T + b_i b_i^T)

    with b_i = b_{i,0}, written directly rather than from the engine.
    """
    if sde.a1.any() or sde.b1.any():
        raise ValueError("the closure covers autonomous models only")
    d = sde.d
    dd = d * d

    def rhs(z):
        P, m, one = z[:dd].reshape(d, d, order="F"), z[dd:dd + d], z[-1]
        am = np.outer(sde.a0, m)
        dP = sde.A @ P + P @ sde.A.T + am + am.T
        for B, b in zip(sde.B, sde.b0):
            bm = np.outer(B @ m, b)
            dP = dP + B @ P @ B.T + bm + bm.T + np.outer(b, b) * one
        return np.concatenate([dP.ravel("F"), sde.A @ m + sde.a0 * one, [0.0]])

    G = np.column_stack([rhs(e) for e in np.eye(dd + d + 1)])
    z = scipy.linalg.expm(G * tau) @ np.concatenate(
        [state.P0.ravel("F"), state.m0, [1.0]])
    return z[dd:dd + d], z[:dd].reshape(d, d, order="F")


def reference_grid(sde, state, step, n_steps, method, formulation=None):
    """propagate_grid one point at a time: each grid point is extracted
    from its own e^{M k step} u, or on the additive formulation from its
    own E[z z^T] for z = [x; 1], and packaged by
    :func:`reference_make_result`. The additive step's transition F and
    noise integral Q come from M's exponential at step / 2^s, with expm's
    squarings s for M step, by doubling. The action route applies M by the
    engine's own product, which test_structured_product_matches_dense_M
    checks against M @ x, through a plain callable, so that it builds a
    Krylov basis of its own rather than continue the one the engine keeps
    on the system. Below vec(P), M is [0, flow], so on the action route the
    mean's block of flow steps by its own exponential."""
    aug = assemble(sde, state, formulation)
    d = aug.d
    if method == "action":
        points = list(expm_action(lambda x: aug.apply(x), aug.u, step, n_steps))
        block = aug.mean_block
        E = expm(aug.M[block, block], step)
        flow = aug.u[block]
        for x in points:
            x[block] = flow = E @ flow
    elif aug.u is None:
        s = _squarings(np.linalg.norm(aug.M * step, 1))
        E = expm(aug.M, math.ldexp(step, -s))
        F = E[:d + 1, :d + 1]
        Q = E[:d + 1, d + 1:] @ F.T
        for _ in range(s):
            Q = Q + F @ Q @ F.T
            F = F @ F
        z = np.block([[state.P0, state.m0[:, None]], [state.m0[None], 1.0]])
        points = []
        while len(points) < n_steps:
            z = F @ z @ F.T + Q
            points.append(z)
    else:
        E = expm(aug.M, step)
        points = [E @ aug.u]
        while len(points) < n_steps:
            points.append(E @ points[-1])
    results = []
    for k, x in enumerate(points, start=1):
        if aug.u is None:
            mean, secmom = x[:d, d], x[:d, :d]
        else:
            mean = state.m0 + x[aug.mean_slice]
            secmom = x[:d * d].reshape((d, d), order="F")
        results.append(reference_make_result(sde.t0 + k * step, mean, secmom))
    return results
