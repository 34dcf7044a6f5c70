"""First and second moments of linear SDEs from a single matrix exponential.

Everything here reduces to one augmented block matrix M and one vector u
such that e^{M (t - t0)} u carries vec(P_t) and the mean increment
m_t - m0 simultaneously. Three formulations exist:

* ``GENERAL`` works for any model (affine time dependence in drift and
  diffusion), with an augmented dimension of d^2 + 2d + 7.
* ``AUTONOMOUS`` requires a1 = b_{i,1} = 0 and shrinks to d^2 + d + 2.
* ``ADDITIVE`` additionally requires B_i = 0 and shrinks to 2d + 2; it
  reads matrix blocks of e^{M h} instead of propagating a vector.

:func:`moments_baseline` recomputes the same moments the classical way,
from seven separate exponentials of Van Loan block matrices, and exists
solely as a benchmark comparator.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .expm import ExpmConvergenceError, ExpmError, ExpmOptions, expm, expm_action
from .kron import kron_sum, kron_sum_vec, unvec, vec
from .model import LinearSde, MomentState, SdeClass, classify

__all__ = [
    "Formulation",
    "AugmentedSystem",
    "MomentResult",
    "build_beta",
    "build_C",
    "build_script_B",
    "build_calA",
    "assemble",
    "moments_at",
    "propagate_grid",
    "moments_baseline",
]

#: augmented dimension above which moments_at defaults to the Krylov path;
#: demos/krylov_crossover.py measures both routes on either side of it
_DENSE_LIMIT = 120
#: the same for propagate_grid, which runs one Krylov action per grid step
#: but one dense exponential per grid: at 20 steps dense wins up to n = 184
#: and the action from n = 242 (demos/krylov_crossover.py), and longer
#: grids move the crossover higher, so dense stays until the action route
#: reuses one Krylov basis across steps
_GRID_DENSE_LIMIT = 400

#: largest predicted relative error the additive formulation may return
_ADDITIVE_MAX_ERROR = 1e-6

Betas = namedtuple("Betas", ["beta1", "beta2", "beta3", "beta4", "beta5"])
ScriptB = namedtuple("ScriptB", ["B1", "B2", "B3", "B4", "B5"])


class Formulation(enum.Enum):
    """Which augmented-system layout to assemble."""

    GENERAL = "general"
    AUTONOMOUS = "autonomous"
    ADDITIVE = "additive"


@dataclass(frozen=True)
class AugmentedSystem:
    """Augmented matrix M, initial vector u and extraction metadata.

    ``mean_slice`` and ``secmom_slice`` index the propagated vector
    e^{M h} u (pure selectors, never materialized as matrices). The
    additive formulation has ``u = None``: its moments are read off
    matrix blocks of e^{M h} directly.
    """

    formulation: Formulation
    n: int
    d: int
    M: np.ndarray
    u: np.ndarray | None
    mean_slice: slice | None
    secmom_slice: slice | None
    block_offsets: tuple[tuple[str, int, int], ...]


@dataclass(frozen=True)
class MomentResult:
    """Moments at one time point.

    ``secmom`` is symmetrized as (P + P^T)/2; ``symmetry_defect`` is the
    max-abs asymmetry before that, and ``variance = secmom - mean mean^T``
    holds exactly. ``min_variance_eig`` is a PSD diagnostic.
    """

    t: float
    mean: np.ndarray
    secmom: np.ndarray
    variance: np.ndarray
    symmetry_defect: float
    min_variance_eig: float


def make_result(t: float, mean: np.ndarray, secmom_raw: np.ndarray) -> MomentResult:
    """Package raw (mean, second moment) into a symmetrized MomentResult."""
    defect = float(np.abs(secmom_raw - secmom_raw.T).max())
    secmom = (secmom_raw + secmom_raw.T) / 2.0
    variance = secmom - np.outer(mean, mean)
    min_eig = float(np.linalg.eigvalsh(variance).min())
    mean = np.array(mean, dtype=float)
    for a in (mean, secmom, variance):
        a.setflags(write=False)
    return MomentResult(t=float(t), mean=mean, secmom=secmom,
                        variance=variance, symmetry_defect=defect,
                        min_variance_eig=min_eig)


def build_beta(sde: LinearSde) -> Betas:
    """Coefficient matrices of the forcing expansion around t0.

    With abar = a(t0) and bbar_i = b_i(t0):

    * beta1 = sum_i bbar_i bbar_i^T
    * beta2 = sum_i (bbar_i b_{i,1}^T + b_{i,1} bbar_i^T)
    * beta3 = sum_i b_{i,1} b_{i,1}^T
    * beta4 = abar (+) abar + sum_i (bbar_i (x) B_i + B_i (x) bbar_i)
    * beta5 = a1 (+) a1 + sum_i (b_{i,1} (x) B_i + B_i (x) b_{i,1})

    where (+) on vectors is kron_sum_vec, so beta4 and beta5 are d^2-by-d.
    """
    d = sde.d
    abar = sde.drift_forcing(sde.t0)
    bbar = sde.noise_forcing(sde.t0)
    b1 = sde.b1

    beta1 = bbar.T @ bbar
    beta2 = bbar.T @ b1 + b1.T @ bbar
    beta3 = b1.T @ b1
    beta4 = kron_sum_vec(abar, abar)
    beta5 = kron_sum_vec(sde.a1, sde.a1)
    for i in range(sde.m):
        col_bar = bbar[i][:, None]
        col_b1 = b1[i][:, None]
        beta4 = beta4 + np.kron(col_bar, sde.B[i]) + np.kron(sde.B[i], col_bar)
        beta5 = beta5 + np.kron(col_b1, sde.B[i]) + np.kron(sde.B[i], col_b1)
    assert beta4.shape == (d * d, d)
    return Betas(beta1, beta2, beta3, beta4, beta5)


def build_C(sde: LinearSde, state: MomentState,
            cls: SdeClass) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean-propagation companion matrix with its selector L and seed r.

    For the non-autonomous layout C is (d+2)x(d+2) and couples to a
    linear-in-time forcing; autonomous models get the (d+1)x(d+1) form.
    In both cases m_t = m0 + L e^{C (t-t0)} r.
    """
    d = sde.d
    drive = sde.A @ state.m0 + sde.drift_forcing(sde.t0)
    if cls is SdeClass.NON_AUTONOMOUS:
        n = d + 2
        C = np.zeros((n, n))
        C[:d, :d] = sde.A
        C[:d, d] = sde.a1
        C[:d, d + 1] = drive
        C[d, d + 1] = 1.0
    else:
        n = d + 1
        C = np.zeros((n, n))
        C[:d, :d] = sde.A
        C[:d, d] = drive
    L = np.zeros((d, n))
    L[:, :d] = np.eye(d)
    r = np.zeros(n)
    r[-1] = 1.0
    return C, L, r


def build_script_B(sde: LinearSde, state: MomentState,
                   cls: SdeClass | None = None) -> ScriptB:
    """Inhomogeneity blocks feeding the second-moment row of M.

    B1 = vec(beta1) + beta4 m0, B2 = vec(beta2) + beta5 m0,
    B3 = vec(beta3), B4 = beta4 L, B5 = beta5 L, with L sized by the
    classification (pass ``cls`` to override).
    """
    if cls is None:
        cls = classify(sde)
    betas = build_beta(sde)
    _, L, _ = build_C(sde, state, cls)
    B1 = vec(betas.beta1) + betas.beta4 @ state.m0
    B2 = vec(betas.beta2) + betas.beta5 @ state.m0
    B3 = vec(betas.beta3)
    B4 = betas.beta4 @ L
    B5 = betas.beta5 @ L
    return ScriptB(B1, B2, B3, B4, B5)


def build_calA(sde: LinearSde) -> np.ndarray:
    """d^2 x d^2 generator of the homogeneous second-moment flow.

    A (+) A + sum_i B_i (x) B_i, i.e. the vec-space operator with
    (A (+) A) vec(P) = vec(A P + P A^T) and
    (B (x) B) vec(P) = vec(B P B^T).
    """
    out = kron_sum(sde.A, sde.A)
    for i in range(sde.m):
        out = out + np.kron(sde.B[i], sde.B[i])
    return out


def _default_formulation(cls: SdeClass) -> Formulation:
    if cls is SdeClass.NON_AUTONOMOUS:
        return Formulation.GENERAL
    if cls is SdeClass.AUTONOMOUS_MULTIPLICATIVE:
        return Formulation.AUTONOMOUS
    return Formulation.ADDITIVE


def assemble(sde: LinearSde, state: MomentState,
             formulation: Formulation | None = None) -> AugmentedSystem:
    """Build the augmented system for a model, validating the formulation.

    By default the formulation follows :func:`classify`. An explicit
    ``formulation`` may widen but not narrow: GENERAL accepts any model,
    AUTONOMOUS requires a1 = b1 = 0, ADDITIVE additionally requires B = 0.

    Raises
    ------
    ValueError
        If the requested formulation does not cover the model's class,
        or the state dimension disagrees with the model.
    """
    if state.d != sde.d:
        raise ValueError(f"state dimension {state.d} != model dimension {sde.d}")
    cls = classify(sde)
    if formulation is None:
        formulation = _default_formulation(cls)
    if formulation is Formulation.AUTONOMOUS and cls is SdeClass.NON_AUTONOMOUS:
        raise ValueError("autonomous formulation requires a1 = 0 and b1 = 0")
    if formulation is Formulation.ADDITIVE and cls is not SdeClass.AUTONOMOUS_ADDITIVE:
        raise ValueError("additive formulation requires a1 = 0, b1 = 0 and B = 0")

    d = sde.d
    dd = d * d

    if formulation is Formulation.ADDITIVE:
        n = 2 * d + 2
        drive = sde.A @ state.m0 + sde.a0
        M = np.zeros((n, n))
        M[:d, :d] = sde.A
        M[:d, d] = sde.a0
        M[:d, d + 1:2 * d + 1] = np.outer(sde.a0, state.m0) + 0.5 * (sde.b0.T @ sde.b0)
        M[:d, n - 1] = drive
        M[d, d + 1:2 * d + 1] = drive
        M[d + 1:2 * d + 1, d + 1:2 * d + 1] = -sde.A.T
        blocks = (("state", 0, d), ("one", d, 1),
                  ("adjoint", d + 1, d), ("shift", 2 * d + 1, 1))
        return AugmentedSystem(formulation=formulation, n=n, d=d, M=M, u=None,
                               mean_slice=None, secmom_slice=None,
                               block_offsets=blocks)

    calA = build_calA(sde)

    if formulation is Formulation.AUTONOMOUS:
        C, _, r = build_C(sde, state, SdeClass.AUTONOMOUS_MULTIPLICATIVE)
        sb = build_script_B(sde, state, SdeClass.AUTONOMOUS_MULTIPLICATIVE)
        n = dd + d + 2
        M = np.zeros((n, n))
        M[:dd, :dd] = calA
        M[:dd, dd] = sb.B1
        M[:dd, dd + 1:] = sb.B4
        M[dd + 1:, dd + 1:] = C
        u = np.zeros(n)
        u[:dd] = vec(state.P0)
        u[dd] = 1.0
        u[dd + 1:] = r
        blocks = (("secmom", 0, dd), ("one", dd, 1), ("mean_flow", dd + 1, d + 1))
        return AugmentedSystem(formulation=formulation, n=n, d=d, M=M, u=u,
                               mean_slice=slice(dd + 1, dd + 1 + d),
                               secmom_slice=slice(0, dd),
                               block_offsets=blocks)

    C, _, r = build_C(sde, state, SdeClass.NON_AUTONOMOUS)
    sb = build_script_B(sde, state, SdeClass.NON_AUTONOMOUS)
    w = d + 2
    n = dd + 2 * w + 3
    M = np.zeros((n, n))
    M[:dd, :dd] = calA
    M[:dd, dd:dd + w] = sb.B5
    M[:dd, dd + w:dd + 2 * w] = sb.B4
    M[:dd, n - 3] = sb.B3
    M[:dd, n - 2] = sb.B2
    M[:dd, n - 1] = sb.B1
    M[dd:dd + w, dd:dd + w] = C
    M[dd:dd + w, dd + w:dd + 2 * w] = np.eye(w)
    M[dd + w:dd + 2 * w, dd + w:dd + 2 * w] = C
    M[n - 3, n - 2] = 2.0
    M[n - 2, n - 1] = 1.0
    u = np.zeros(n)
    u[:dd] = vec(state.P0)
    u[dd + w:dd + 2 * w] = r
    u[n - 1] = 1.0
    blocks = (("secmom", 0, dd), ("mean_ramp", dd, w), ("mean_flow", dd + w, w),
              ("time_sq", n - 3, 1), ("time", n - 2, 1), ("one", n - 1, 1))
    return AugmentedSystem(formulation=formulation, n=n, d=d, M=M, u=u,
                           mean_slice=slice(dd + w, dd + w + d),
                           secmom_slice=slice(0, dd),
                           block_offsets=blocks)


def _elapsed(sde: LinearSde, t: float) -> float:
    tau = float(t) - sde.t0
    if not np.isfinite(tau):
        raise ValueError("t must be finite")
    if tau < 0.0:
        raise ValueError(f"t must be >= t0 = {sde.t0}, got {t}")
    return tau


def _wants_action(aug: AugmentedSystem, options: ExpmOptions | None,
                  limit: int = _DENSE_LIMIT) -> bool:
    if options is None:
        return aug.formulation is not Formulation.ADDITIVE and aug.n > limit
    if options.method == "action" and aug.formulation is Formulation.ADDITIVE:
        raise ValueError(
            "expm-action is unavailable for the additive formulation: "
            "it extracts matrix blocks, not a propagated vector")
    return options.method == "action"


def _additive_extract(aug: AugmentedSystem, state: MomentState,
                      E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d = aug.d
    F1 = E[:d, :d]
    H1 = E[:d, d + 1:2 * d + 1]
    # H1 grows like the adjoint block e^{-A^T tau} and H1 F1^T cancels that
    # growth, so rounding is amplified by about ||F1||_1 ||e^{-A^T tau}||_1
    adjoint = E[d + 1:2 * d + 1, d + 1:2 * d + 1]
    error = np.linalg.norm(F1, 1) * np.linalg.norm(adjoint, 1) * np.finfo(float).eps
    if error > _ADDITIVE_MAX_ERROR:
        raise ExpmError(
            f"additive formulation cancels catastrophically at this horizon "
            f"(predicted relative error {error:.1e}); "
            f"use formulation=Formulation.AUTONOMOUS")
    k1 = E[:d, -1]
    mean = state.m0 + k1
    secmom = F1 @ state.P0 @ F1.T + H1 @ F1.T + F1 @ H1.T
    return mean, secmom


def _vector_extract(aug: AugmentedSystem, state: MomentState,
                    v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = state.m0 + v[aug.mean_slice]
    secmom = unvec(v[aug.secmom_slice], aug.d, aug.d)
    return mean, secmom


def moments_at(sde: LinearSde, state: MomentState, t: float,
               options: ExpmOptions | None = None,
               formulation: Formulation | None = None) -> MomentResult:
    """Exact first and second moments of the model at time t >= t0.

    One matrix exponential of the assembled augmented system yields the
    mean and vec(P_t) together. With ``options=None`` the dense route is
    used up to n = 120 and the Krylov action route beyond, where it is
    faster (the additive formulation is always dense); should Krylov not
    converge within its basis cap, the dense route gives the result.
    Passing :class:`ExpmOptions` forces the route it names.

    Raises
    ------
    ValueError
        t < t0, or an invalid formulation/method combination.
    ExpmError
        Propagated from the exponential evaluation, or raised by the
        additive formulation when cancellation would cost more than 1e-6
        relative accuracy; ``formulation=Formulation.AUTONOMOUS`` then
        gives the moments.
    """
    tau = _elapsed(sde, t)
    aug = assemble(sde, state, formulation)
    use_action = _wants_action(aug, options)
    if aug.formulation is Formulation.ADDITIVE:
        E = expm(aug.M, tau)
        mean, secmom = _additive_extract(aug, state, E)
    else:
        v = None
        if use_action:
            try:
                v = expm_action(aug.M, aug.u, tau)
            except ExpmConvergenceError:
                # a route chosen by size alone is no promise of convergence
                if options is not None:
                    raise
        if v is None:
            v = expm(aug.M, tau) @ aug.u
        mean, secmom = _vector_extract(aug, state, v)
    return make_result(t, mean, secmom)


def propagate_grid(sde: LinearSde, state: MomentState, step: float,
                   n_steps: int,
                   options: ExpmOptions | None = None,
                   formulation: Formulation | None = None) -> list[MomentResult]:
    """Moments on the uniform grid t0 + k*step for k = 1..n_steps.

    Exploits the exponential flow property: e^{M h} is computed once and
    the augmented state is advanced by repeated multiplication, so the
    whole grid costs a single exponential. Results accumulate rounding
    of order n_steps * eps relative to per-time direct evaluation.
    ``options`` and ``formulation`` act as in :func:`moments_at`, except
    that with ``options=None`` the dense route is kept up to n = 400:
    the action route runs one Krylov action per grid step. The additive
    formulation raises :class:`ExpmError` at the first grid time where
    :func:`moments_at` would.
    """
    if not (step > 0.0 and np.isfinite(step)):
        raise ValueError(f"step must be positive and finite, got {step!r}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps!r}")
    aug = assemble(sde, state, formulation)
    use_action = _wants_action(aug, options, _GRID_DENSE_LIMIT)
    results = []

    if aug.formulation is Formulation.ADDITIVE:
        E = expm(aug.M, step)
        W = np.eye(aug.n)
        for k in range(1, n_steps + 1):
            W = E @ W
            mean, secmom = _additive_extract(aug, state, W)
            results.append(make_result(sde.t0 + k * step, mean, secmom))
        return results

    E = None if use_action else expm(aug.M, step)
    v = aug.u.copy()
    for k in range(1, n_steps + 1):
        try:
            v = expm_action(aug.M, v, step) if E is None else E @ v
        except ExpmConvergenceError:
            if options is not None:
                raise
            E = expm(aug.M, step)  # Krylov failed: dense from this step on
            v = E @ v
        mean, secmom = _vector_extract(aug, state, v)
        results.append(make_result(sde.t0 + k * step, mean, secmom))
    return results


def _vanloan_chain(diag_blocks: list[np.ndarray],
                   couplings: list[np.ndarray]) -> np.ndarray:
    """Block bidiagonal Van Loan matrix [[D0, C0, 0...], [0, D1, C1, ...], ...]."""
    sizes = [b.shape[0] for b in diag_blocks]
    n = sum(sizes)
    out = np.zeros((n, n))
    offs = np.cumsum([0] + sizes)
    for i, blk in enumerate(diag_blocks):
        out[offs[i]:offs[i + 1], offs[i]:offs[i + 1]] = blk
    for i, cpl in enumerate(couplings):
        out[offs[i]:offs[i + 1], offs[i + 1]:offs[i + 2]] = cpl
    return out


def moments_baseline(sde: LinearSde, state: MomentState, t: float) -> MomentResult:
    """Moments via the classical multi-exponential route (benchmark only).

    Instead of one augmented exponential, the mean flow e^{C tau}, the
    homogeneous second-moment flow e^{calA tau} and five convolution
    integrals are evaluated as seven separate Van Loan exponentials (the
    largest of dimension 3d^2 + 1) and combined. Agrees with
    :func:`moments_at` to roundoff; exists to be timed against it.
    """
    tau = _elapsed(sde, t)
    d = sde.d
    dd = d * d

    C, L, r = build_C(sde, state, SdeClass.NON_AUTONOMOUS)
    sb = build_script_B(sde, state, SdeClass.NON_AUTONOMOUS)
    calA = build_calA(sde)
    w = d + 2
    eye_dd = np.eye(dd)

    # mean flow and homogeneous second-moment flow
    F3 = expm(C, tau)
    F1 = expm(calA, tau)

    # int e^{calA (tau-s)} [B1 B2 B3] ds
    z1 = _vanloan_chain([calA, np.zeros((3, 3))],
                        [np.column_stack([sb.B1, sb.B2, sb.B3])])
    E1 = expm(z1, tau)
    g1, g2, g3 = E1[:dd, dd], E1[:dd, dd + 1], E1[:dd, dd + 2]

    # int (tau-s) e^{calA (tau-s)} [B2 B3] ds
    z2 = _vanloan_chain([calA, calA, np.zeros((2, 2))],
                        [eye_dd, np.column_stack([sb.B2, sb.B3])])
    E2 = expm(z2, tau)
    h2, h3 = E2[:dd, 2 * dd], E2[:dd, 2 * dd + 1]

    # int (tau-s)^2/2 e^{calA (tau-s)} B3 ds
    z3 = _vanloan_chain([calA, calA, calA, np.zeros((1, 1))],
                        [eye_dd, eye_dd, sb.B3[:, None]])
    E3 = expm(z3, tau)
    k3 = E3[:dd, 3 * dd]

    # int e^{calA (tau-s)} [B4 B5] e^{diag(C,C) s} ds
    CC = np.zeros((2 * w, 2 * w))
    CC[:w, :w] = C
    CC[w:, w:] = C
    z4 = _vanloan_chain([calA, CC], [np.column_stack([sb.B4, sb.B5])])
    E4 = expm(z4, tau)
    h4 = E4[:dd, dd:dd + w]
    g5 = E4[:dd, dd + w:]

    # int (tau-s) e^{calA (tau-s)} B5 e^{C s} ds
    z5 = _vanloan_chain([calA, calA, C], [eye_dd, sb.B5])
    E5 = expm(z5, tau)
    h5 = E5[:dd, 2 * dd:]

    mean = state.m0 + L @ (F3 @ r)
    secmom_vec = (F1 @ vec(state.P0)
                  + g1
                  + tau * g2 - h2
                  + tau * tau * g3 - 2.0 * tau * h3 + 2.0 * k3
                  + (h4 + tau * g5 - h5) @ r)
    return make_result(t, mean, unvec(secmom_vec, d, d))
