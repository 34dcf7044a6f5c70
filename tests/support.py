"""Shared helpers for the test suite."""

import numpy as np

from sdemoments import (ExpmOverflowError, LinearSde, MomentResult, MomentState,
                        assemble, expm, expm_action)

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


def reference_grid(sde, state, step, n_steps, method, formulation=None):
    """propagate_grid one point at a time: each grid point is extracted
    from its own e^{M k step} u (or e^{M k step}) and packaged by
    :func:`reference_make_result`. The action route applies M by the
    engine's own product, which test_structured_product_matches_dense_M
    checks against M @ x, through a plain callable, so that it builds a
    Krylov basis of its own rather than continue the one the engine keeps
    on the system."""
    aug = assemble(sde, state, formulation)
    d = aug.d
    if method == "action":
        points = list(expm_action(lambda x: aug.apply(x), aug.u, step, n_steps))
    else:
        E = expm(aug.M, step)
        points = [E if aug.u is None else E @ aug.u]
        while len(points) < n_steps:
            points.append(E @ points[-1])
    results = []
    for k, x in enumerate(points, start=1):
        if aug.u is None:
            F1, H1 = x[:d, :d], x[:d, d + 1:2 * d + 1]
            mean = state.m0 + x[:d, -1]
            secmom = F1 @ state.P0 @ F1.T + H1 @ F1.T + F1 @ H1.T
        else:
            mean = state.m0 + x[aug.mean_slice]
            secmom = x[:d * d].reshape((d, d), order="F")
        results.append(reference_make_result(sde.t0 + k * step, mean, secmom))
    return results
