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
from dataclasses import dataclass

import numpy as np

from .expm import (ExpmConvergenceError, ExpmError, ExpmOptions,
                   ExpmOverflowError, expm, expm_action)
from .model import LinearSde, MomentState, SdeClass, classify

__all__ = [
    "Formulation",
    "AugmentedSystem",
    "MomentResult",
    "assemble",
    "moments_at",
    "propagate_grid",
    "moments_baseline",
]

#: augmented dimension above which moments_at and propagate_grid default to
#: the Krylov path; demos/krylov_crossover.py measures both routes on either
#: side of it
_DENSE_LIMIT = 120

#: largest predicted relative error the additive formulation may return
_ADDITIVE_MAX_ERROR = 1e-6

class Formulation(enum.Enum):
    """Which augmented-system layout to assemble."""

    GENERAL = "general"
    AUTONOMOUS = "autonomous"
    ADDITIVE = "additive"


@dataclass(frozen=True)
class AugmentedSystem:
    """Augmented matrix M, initial vector u and extraction metadata.

    ``mean_slice`` indexes the propagated vector e^{M h} u, whose first
    d^2 entries are vec(P) (pure selectors, never materialized as
    matrices). The additive formulation has ``u = None``: its moments are
    read off matrix blocks of e^{M h} directly.
    """

    formulation: Formulation
    n: int
    d: int
    M: np.ndarray
    u: np.ndarray | None
    mean_slice: slice | None


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


def make_result(times: list[float], means: np.ndarray,
                secmoms_raw: np.ndarray) -> list[MomentResult]:
    """Symmetrized MomentResults, as read-only row views, of raw moment stacks.

    Row k of ``means`` and ``secmoms_raw`` belongs to ``times[k]``. Raises
    :class:`ExpmOverflowError` naming the first time with a non-finite moment.
    """
    finite = np.isfinite(means).all(axis=1) & np.isfinite(secmoms_raw).all(axis=(1, 2))
    if not finite.all():
        raise ExpmOverflowError(
            f"moments at t = {float(times[finite.argmin()]):g} overflow double "
            f"precision; rescale the problem or reduce t")
    defects = np.abs(secmoms_raw - secmoms_raw.transpose(0, 2, 1)).max(axis=(1, 2))
    secmoms = (secmoms_raw + secmoms_raw.transpose(0, 2, 1)) / 2.0
    variances = secmoms - means[:, :, None] * means[:, None, :]
    min_eigs = np.linalg.eigvalsh(variances).min(axis=1)
    for a in (means, secmoms, variances):
        a.setflags(write=False)
    return [MomentResult(t=float(t), mean=mean, secmom=secmom, variance=variance,
                         symmetry_defect=float(defect), min_variance_eig=float(eig))
            for t, mean, secmom, variance, defect, eig
            in zip(times, means, secmoms, variances, defects, min_eigs)]


def build_beta(sde: LinearSde) -> tuple[np.ndarray, ...]:
    """Coefficient matrices beta1..beta5 of the forcing expansion around t0.

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
    # with f = [abar, bbar_i] and [a1, b_{i,1}] stacked and g = [I, B_i],
    # beta4 and beta5 are sum_k (f_k (x) g_k + g_k (x) f_k)
    f = np.stack([np.vstack((abar, bbar)), np.vstack((sde.a1, b1))])
    g = np.concatenate(([np.eye(d)], sde.B))
    beta45 = (np.einsum("pki,kaj->piaj", f, g)
              + np.einsum("kij,pka->piaj", g, f)).reshape(2, d * d, d)
    return beta1, beta2, beta3, beta45[0], beta45[1]


def build_C(sde: LinearSde, state: MomentState, cls: SdeClass) -> np.ndarray:
    """Mean-propagation companion matrix C.

    For the non-autonomous layout C is (d+2)x(d+2) and couples to a
    linear-in-time forcing; autonomous models get the (d+1)x(d+1) form.
    In both cases m_t - m0 is the first d entries of the last column of
    e^{C (t-t0)}.
    """
    d = sde.d
    drive = sde.A @ state.m0 + sde.drift_forcing(sde.t0)
    if cls is SdeClass.NON_AUTONOMOUS:
        C = np.zeros((d + 2, d + 2))
        C[:d, d] = sde.a1
        C[d, d + 1] = 1.0
    else:
        C = np.zeros((d + 1, d + 1))
    C[:d, :d] = sde.A
    C[:d, -1] = drive
    return C


def build_script_B(sde: LinearSde, state: MomentState) -> tuple[np.ndarray, ...]:
    """Inhomogeneity blocks feeding the second-moment row of M.

    Returns B1 = vec(beta1) + beta4 m0, B2 = vec(beta2) + beta5 m0,
    B3 = vec(beta3), beta4 and beta5. The paper's B4 and B5 are beta4 and
    beta5 followed by zero columns up to the width of C.
    """
    beta1, beta2, beta3, beta4, beta5 = build_beta(sde)
    B1 = beta1.ravel("F") + beta4 @ state.m0
    B2 = beta2.ravel("F") + beta5 @ state.m0
    B3 = beta3.ravel("F")
    return B1, B2, B3, beta4, beta5


def build_calA(sde: LinearSde) -> np.ndarray:
    """d^2 x d^2 generator of the homogeneous second-moment flow.

    A (+) A + sum_i B_i (x) B_i, i.e. the vec-space operator with
    (A (+) A) vec(P) = vec(A P + P A^T) and
    (B (x) B) vec(P) = vec(B P B^T).
    """
    d = sde.d
    eye = np.eye(d)
    left = np.concatenate(([sde.A, eye], sde.B))
    right = np.concatenate(([eye, sde.A], sde.B))
    return np.einsum("kij,kab->iajb", left, right).reshape(d * d, d * d)


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
        return AugmentedSystem(formulation=formulation, n=n, d=d, M=M, u=None,
                               mean_slice=None)

    # M = [[calA, forcing], [0, mean flow]]; u seeds vec(P0), the constant
    # 1 and the last unit vector of C, whose flow carries m_t - m0
    calA = build_calA(sde)
    B1, B2, B3, beta4, beta5 = build_script_B(sde, state)

    if formulation is Formulation.AUTONOMOUS:
        C = build_C(sde, state, SdeClass.AUTONOMOUS_MULTIPLICATIVE)
        n = dd + d + 2
        M = np.zeros((n, n))
        M[:dd, :dd] = calA
        M[:dd, dd] = B1
        M[:dd, dd + 1:dd + 1 + d] = beta4
        M[dd + 1:, dd + 1:] = C
        u = np.zeros(n)
        u[:dd] = state.P0.ravel("F")
        u[dd] = 1.0
        u[n - 1] = 1.0
        return AugmentedSystem(formulation=formulation, n=n, d=d, M=M, u=u,
                               mean_slice=slice(dd + 1, dd + 1 + d))

    # the mean flow appears twice, as a ramp s e^{C s} r and as e^{C s} r,
    # followed by s^2, s and 1
    C = build_C(sde, state, SdeClass.NON_AUTONOMOUS)
    w = d + 2
    n = dd + 2 * w + 3
    M = np.zeros((n, n))
    M[:dd, :dd] = calA
    M[:dd, dd:dd + d] = beta5
    M[:dd, dd + w:dd + w + d] = beta4
    M[:dd, n - 3] = B3
    M[:dd, n - 2] = B2
    M[:dd, n - 1] = B1
    M[dd:dd + w, dd:dd + w] = C
    M[dd:dd + w, dd + w:dd + 2 * w] = np.eye(w)
    M[dd + w:dd + 2 * w, dd + w:dd + 2 * w] = C
    M[n - 3, n - 2] = 2.0
    M[n - 2, n - 1] = 1.0
    u = np.zeros(n)
    u[:dd] = state.P0.ravel("F")
    u[dd + 2 * w - 1] = 1.0
    u[n - 1] = 1.0
    return AugmentedSystem(formulation=formulation, n=n, d=d, M=M, u=u,
                           mean_slice=slice(dd + w, dd + w + d))


def _elapsed(sde: LinearSde, t: float) -> float:
    tau = float(t) - sde.t0
    if not np.isfinite(tau):
        raise ValueError("t must be finite")
    if tau < 0.0:
        raise ValueError(f"t must be >= t0 = {sde.t0}, got {t}")
    return tau


def _wants_action(aug: AugmentedSystem, options: ExpmOptions | None) -> bool:
    if options is None:
        return aug.formulation is not Formulation.ADDITIVE and aug.n > _DENSE_LIMIT
    if options.method == "action" and aug.formulation is Formulation.ADDITIVE:
        raise ValueError(
            "expm-action is unavailable for the additive formulation: "
            "it extracts matrix blocks, not a propagated vector")
    return options.method == "action"


def _additive_extract(aug: AugmentedSystem, state: MomentState,
                      E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d = aug.d
    F1 = E[:, :d, :d]
    H1 = E[:, :d, d + 1:2 * d + 1]
    # H1 grows like the adjoint block e^{-A^T tau} and H1 F1^T cancels that
    # growth, so rounding is amplified by about ||F1||_1 ||e^{-A^T tau}||_1
    adjoint = E[:, d + 1:2 * d + 1, d + 1:2 * d + 1]
    error = (np.linalg.norm(F1, 1, axis=(1, 2))
             * np.linalg.norm(adjoint, 1, axis=(1, 2)) * np.finfo(float).eps)
    bad = error > _ADDITIVE_MAX_ERROR
    if bad.any():
        raise ExpmError(
            f"additive formulation cancels catastrophically at this horizon "
            f"(predicted relative error {error[bad.argmax()]:.1e}); "
            f"use formulation=Formulation.AUTONOMOUS")
    mean = state.m0 + E[:, :d, -1]
    F1T = F1.transpose(0, 2, 1)
    secmom = F1 @ state.P0 @ F1T + H1 @ F1T + F1 @ H1.transpose(0, 2, 1)
    return mean, secmom


def _vector_extract(aug: AugmentedSystem, state: MomentState,
                    v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = state.m0 + v[:, aug.mean_slice]
    # vec(P) stacks the columns of P, so each row reshapes to P^T
    secmom = v[:, :aug.d ** 2].reshape(-1, aug.d, aug.d).transpose(0, 2, 1)
    return mean, secmom


def _propagate(aug: AugmentedSystem, state: MomentState, step: float,
               times: list[float],
               options: ExpmOptions | None) -> list[MomentResult]:
    """Moments labelled times[k - 1] after k steps of one exponential e^{M step}."""
    rows = None  # row k - 1: e^{M k step} u, or e^{M k step} if additive
    if _wants_action(aug, options):
        try:
            rows = expm_action(aug.M, aug.u, step, len(times))
        except ExpmConvergenceError:
            # a route chosen by size alone is no promise of convergence
            if options is not None:
                raise
    extract = _additive_extract if aug.u is None else _vector_extract
    # products of a finite exponential may still overflow; make_result
    # reports that as ExpmOverflowError, so numpy's warning is silenced
    with np.errstate(over="ignore", invalid="ignore"):
        if rows is None:
            E = expm(aug.M, step)
            rows = [E if aug.u is None else E @ aug.u]
            for _ in times[1:]:
                rows.append(E @ rows[-1])
        means, secmoms = extract(aug, state, np.asarray(rows))
        return make_result(times, means, secmoms)


def moments_at(sde: LinearSde, state: MomentState, t: float,
               options: ExpmOptions | None = None,
               formulation: Formulation | None = None) -> MomentResult:
    """Exact first and second moments of the model at time t >= t0.

    One matrix exponential of the assembled augmented system yields the
    mean and vec(P_t) together. With ``options=None`` the dense route is
    used up to n = 120 and the Krylov action route beyond, where it is
    faster (the additive formulation is always dense); should Krylov not
    converge within its basis cap, the dense route gives the result.
    Passing :class:`ExpmOptions` forces the route it names. This is the
    one-step case of :func:`propagate_grid`, with the time label t.

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
    return _propagate(aug, state, tau, [t], options)[0]


def propagate_grid(sde: LinearSde, state: MomentState, step: float,
                   n_steps: int,
                   options: ExpmOptions | None = None,
                   formulation: Formulation | None = None) -> list[MomentResult]:
    """Moments on the uniform grid t0 + k*step for k = 1..n_steps.

    Exploits the exponential flow property: the dense route computes
    e^{M step} once and advances the augmented state by repeated
    multiplication, the action route takes every step in one Krylov basis,
    so the whole grid costs a single exponential. Results accumulate
    rounding of order n_steps * eps relative to per-time direct
    evaluation. ``options`` and ``formulation`` act as in
    :func:`moments_at`, with the same limit n = 120. The Krylov basis must
    converge at the last grid time, n_steps * step after t0, or the named
    action route raises :class:`ExpmConvergenceError`. The additive
    formulation raises :class:`ExpmError` at the first grid time where
    :func:`moments_at` would.
    """
    if not (step > 0.0 and np.isfinite(step)):
        raise ValueError(f"step must be positive and finite, got {step!r}")
    if not isinstance(n_steps, (int, np.integer)) or n_steps < 1:
        raise ValueError(f"n_steps must be an integer >= 1, got {n_steps!r}")
    aug = assemble(sde, state, formulation)
    times = [sde.t0 + k * step for k in range(1, n_steps + 1)]
    return _propagate(aug, state, step, times, options)


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

    C = build_C(sde, state, SdeClass.NON_AUTONOMOUS)
    B1, B2, B3, beta4, beta5 = build_script_B(sde, state)
    calA = build_calA(sde)
    w = d + 2
    eye_dd = np.eye(dd)
    # the paper's B4 and B5 are beta4 and beta5 padded with zeros to width w
    B4 = np.zeros((dd, w))
    B4[:, :d] = beta4
    B5 = np.zeros((dd, w))
    B5[:, :d] = beta5

    # mean flow and homogeneous second-moment flow
    F3 = expm(C, tau)
    F1 = expm(calA, tau)

    # int e^{calA (tau-s)} [B1 B2 B3] ds
    z1 = _vanloan_chain([calA, np.zeros((3, 3))],
                        [np.column_stack([B1, B2, B3])])
    E1 = expm(z1, tau)
    g1, g2, g3 = E1[:dd, dd], E1[:dd, dd + 1], E1[:dd, dd + 2]

    # int (tau-s) e^{calA (tau-s)} [B2 B3] ds
    z2 = _vanloan_chain([calA, calA, np.zeros((2, 2))],
                        [eye_dd, np.column_stack([B2, B3])])
    E2 = expm(z2, tau)
    h2, h3 = E2[:dd, 2 * dd], E2[:dd, 2 * dd + 1]

    # int (tau-s)^2/2 e^{calA (tau-s)} B3 ds
    z3 = _vanloan_chain([calA, calA, calA, np.zeros((1, 1))],
                        [eye_dd, eye_dd, B3[:, None]])
    E3 = expm(z3, tau)
    k3 = E3[:dd, 3 * dd]

    # int e^{calA (tau-s)} [B4 B5] e^{diag(C,C) s} ds
    CC = np.zeros((2 * w, 2 * w))
    CC[:w, :w] = C
    CC[w:, w:] = C
    z4 = _vanloan_chain([calA, CC], [np.column_stack([B4, B5])])
    E4 = expm(z4, tau)
    h4 = E4[:dd, dd:dd + w]
    g5 = E4[:dd, dd + w:]

    # int (tau-s) e^{calA (tau-s)} B5 e^{C s} ds
    z5 = _vanloan_chain([calA, calA, C], [eye_dd, B5])
    E5 = expm(z5, tau)
    h5 = E5[:dd, 2 * dd:]

    # the mean flow starts at the last unit vector r, so e^{C tau} r is the
    # last column of e^{C tau}, and m_t - m0 is its first d entries
    mean = state.m0 + F3[:d, -1]
    with np.errstate(over="ignore", invalid="ignore"):  # make_result reports it
        secmom_vec = (F1 @ state.P0.ravel("F")
                      + g1
                      + tau * g2 - h2
                      + tau * tau * g3 - 2.0 * tau * h3 + 2.0 * k3
                      + (h4 + tau * g5 - h5)[:, -1])
    return make_result([t], mean[None], secmom_vec.reshape((1, d, d), order="F"))[0]
