"""First and second moments of linear SDEs from a single matrix exponential.

Everything here reduces to one augmented block matrix M and one vector u
such that e^{M (t - t0)} u carries vec(P_t) and the mean increment
m_t - m0 simultaneously, laid out as a :class:`~sdemoments.model.Formulation`
names. The additive formulation instead squares the pair of matrix blocks
that e^{M h} holds for a short step h.

:func:`moments_baseline` recomputes the same moments the classical way,
from seven separate exponentials of Van Loan block matrices, and exists
solely as a benchmark comparator.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .expm import (ExpmConvergenceError, ExpmOptions, ExpmOverflowError,
                   _ResumableProduct, _squarings, expm, expm_action)
from .model import Formulation, LinearSde, MomentState, _check_count, classify

__all__ = [
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

#: per thread, the last system assemble built, as (sde, state, system)
_last = threading.local()


class _Product(_ResumableProduct):
    """M @ x from M's blocks, without forming M.

    Holds the model and the last columns of M, forcing above flow; the
    vec(P) rows of M are calA's, which acts as
    vec(A P + P A^T + sum_i B_i P B_i^T) on the d x d reshape P of the
    vec(P) entries, by two matrix products and O(m d^3) work. As a
    :class:`~sdemoments.expm._ResumableProduct` it keeps the Krylov
    basis of the action route between evaluations.
    """

    def __init__(self, sde: LinearSde, columns: np.ndarray):
        self.sde = sde
        self.columns = columns

    @cached_property
    def _factors(self) -> tuple[np.ndarray, np.ndarray]:
        """calA's factors stacked for the product, left_k and right_k^T
        each down the rows.

        Raises :class:`ExpmOverflowError` if some entry of M is not finite:
        the stored columns are checked entry by entry and calA by the bound
        2 max|A| + m max|B_i|^2 on its entries.
        """
        sde = self.sde
        b = float(np.abs(sde.B).max(initial=0.0))
        if not (math.isfinite(2.0 * float(np.abs(sde.A).max()) + sde.m * b * b)
                and np.isfinite(self.columns).all()):
            raise _overflow_error(sde)
        left, right = _calA_factors(sde)
        return left.reshape(-1, sde.d), right.transpose(0, 2, 1).reshape(-1, sde.d)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        n, width = self.columns.shape
        dd = n - width  # the vec(P) rows: d^2, or 0 if additive
        y = self.columns @ x[dd:]
        if dd:
            d = self.sde.d
            left, right_t = self._factors
            # x[:dd] reshapes in C order to P^T, and the operator commutes with
            # transposition, so sum_k left_k P^T right_k^T gives the rows in order
            products = (left @ x[:dd].reshape(d, d)).reshape(-1, d, d)
            y[:dd] += (products.transpose(1, 0, 2).reshape(d, -1) @ right_t).ravel()
        return y


@dataclass(frozen=True)
class AugmentedSystem:
    """Augmented matrix M, initial vector u and extraction metadata.

    M = [[calA, forcing], [0, flow]], with the d^2 x d^2 second-moment
    generator calA in its vec(P) rows. Only the last columns, forcing
    above flow, are stored; the additive formulation has no vec(P) rows,
    so they are all of its M. ``apply(x)`` is M @ x from the blocks, which
    the action route uses and which keeps that route's Krylov basis
    between evaluations. :attr:`M` is built on first use, which only the
    dense route makes. ``u``, the stored columns and ``M`` are read-only,
    as one system serves every evaluation of a model (see
    :func:`assemble`).

    ``mean_slice`` indexes the propagated vector e^{M h} u, whose first
    d^2 entries are vec(P) (pure selectors, never materialized as
    matrices). The additive formulation has ``u = None``: its M is Van
    Loan's [[At, St], [0, -At^T]] for z = [x; 1], with At = [[A, a0], [0, 0]]
    and St = diag(b0^T b0, 0), and takes nothing from the initial state.
    """

    formulation: Formulation
    n: int
    d: int
    u: np.ndarray | None
    mean_slice: slice | None
    apply: _Product = field(repr=False)

    @cached_property
    def M(self) -> np.ndarray:
        """The dense n x n augmented matrix, built on first use and kept.

        Raises :class:`ExpmOverflowError` if some entry is not finite.
        """
        return _dense_M(self)


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
    :class:`ExpmOverflowError` naming the first time with a non-finite mean
    or variance, which a non-finite second moment makes non-finite too.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        defects = np.abs(secmoms_raw - secmoms_raw.transpose(0, 2, 1)).max(axis=(1, 2))
        secmoms = (secmoms_raw + secmoms_raw.transpose(0, 2, 1)) / 2.0
        variances = secmoms - means[:, :, None] * means[:, None, :]
    finite = np.isfinite(means).all(axis=1) & np.isfinite(variances).all(axis=(1, 2))
    if not finite.all():
        raise ExpmOverflowError(
            f"moments at t = {float(times[finite.argmin()]):g} overflow double "
            f"precision; rescale the problem or reduce t")
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


def build_C(sde: LinearSde, state: MomentState) -> np.ndarray:
    """(d+2)x(d+2) mean-propagation companion matrix C.

    C couples the mean to the linear-in-time forcing a1; m_t - m0 is the
    first d entries of the last column of e^{C (t-t0)}.
    """
    d = sde.d
    C = np.zeros((d + 2, d + 2))
    C[:d, :d] = sde.A
    C[:d, d] = sde.a1
    C[:d, -1] = sde.A @ state.m0 + sde.drift_forcing(sde.t0)
    C[d, d + 1] = 1.0
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


def _calA_factors(sde: LinearSde) -> tuple[np.ndarray, np.ndarray]:
    """Stacks left_k, right_k with calA = sum_k left_k (x) right_k."""
    eye = np.eye(sde.d)
    return (np.concatenate(([sde.A, eye], sde.B)),
            np.concatenate(([eye, sde.A], sde.B)))


def build_calA(sde: LinearSde) -> np.ndarray:
    """d^2 x d^2 generator of the homogeneous second-moment flow.

    A (+) A + sum_i B_i (x) B_i, i.e. the vec-space operator with
    (A (+) A) vec(P) = vec(A P + P A^T) and
    (B (x) B) vec(P) = vec(B P B^T).
    """
    d = sde.d
    left, right = _calA_factors(sde)
    return np.einsum("kij,kab->iajb", left, right).reshape(d * d, d * d)


def assemble(sde: LinearSde, state: MomentState,
             formulation: Formulation | None = None) -> AugmentedSystem:
    """Build the augmented system for a model, validating the formulation.

    By default the formulation is the narrowest one, :func:`classify`'s.
    An explicit ``formulation`` may be wider but not narrower (see
    :class:`Formulation` for what each covers).

    Each thread keeps the last system it assembled. A call with the same
    ``sde`` and ``state`` objects and the same formulation returns that
    system, with the dense M or the Krylov basis it has built; model and
    state are immutable, so it cannot go stale. Any other call frees it
    before building the next.

    Raises
    ------
    ValueError
        If the requested formulation is narrower than the model's, or the
        state dimension disagrees with the model.
    TypeError
        If ``formulation`` is neither a :class:`Formulation` nor None.
    """
    _check_dimension(sde, state)
    narrowest = classify(sde)
    if formulation is None:
        formulation = narrowest
    if not isinstance(formulation, Formulation):
        raise TypeError(f"formulation must be a Formulation or None, "
                        f"got {formulation!r}")
    order = list(Formulation)  # widest first
    if order.index(formulation) > order.index(narrowest):
        raise ValueError(f"formulation {formulation.name} does not cover this "
                         f"model, whose narrowest is {narrowest.name}")
    last = getattr(_last, "entry", None)
    if (last is not None and last[0] is sde and last[1] is state
            and last[2].formulation is formulation):
        return last[2]
    _last.entry = last = None  # free the previous system before building one
    # entries of the blocks may overflow; M and apply report that
    with np.errstate(over="ignore", invalid="ignore"):
        aug = _layout(sde, state, formulation)
    _last.entry = (sde, state, aug)
    return aug


def _layout(sde: LinearSde, state: MomentState,
            formulation: Formulation) -> AugmentedSystem:
    d = sde.d
    dd = d * d

    if formulation is Formulation.ADDITIVE:
        w = d + 1  # z = [x; 1]
        M = np.zeros((2 * w, 2 * w))
        M[:d, :d] = sde.A
        M[:d, d] = sde.a0
        M[:d, w:w + d] = sde.b0.T @ sde.b0
        M[w:, w:] = -M[:w, :w].T
        return _system(formulation, sde, M, None, None)

    # M = [[calA, forcing], [0, flow]]; u seeds vec(P0), the constant 1 and
    # the last unit vector of C, whose flow carries m_t - m0
    B1, B2, B3, beta4, beta5 = build_script_B(sde, state)
    C = build_C(sde, state)

    if formulation is Formulation.AUTONOMOUS:
        # a1 = 0 leaves C's time entry unused: the mean flow is [[A, drive], [0, 0]]
        n = dd + d + 2
        columns = np.zeros((n, d + 2))
        columns[:dd, 0] = B1
        columns[:dd, 1:d + 1] = beta4
        columns[dd + 1:n - 1, 1:d + 1] = C[:d, :d]
        columns[dd + 1:n - 1, d + 1] = C[:d, -1]
        u = np.zeros(n)
        u[:dd] = state.P0.ravel("F")
        u[dd] = 1.0
        u[n - 1] = 1.0
        return _system(formulation, sde, columns, u, slice(dd + 1, dd + 1 + d))

    # the mean flow appears twice, as a ramp s e^{C s} r and as e^{C s} r,
    # followed by s^2, s and 1
    w = d + 2
    n = dd + 2 * w + 3
    columns = np.zeros((n, 2 * w + 3))
    columns[:dd, :d] = beta5
    columns[:dd, w:w + d] = beta4
    columns[:dd, -3] = B3
    columns[:dd, -2] = B2
    columns[:dd, -1] = B1
    flow = columns[dd:]
    flow[:w, :w] = C
    flow[:w, w:2 * w] = np.eye(w)
    flow[w:2 * w, w:2 * w] = C
    flow[-3, -2] = 2.0
    flow[-2, -1] = 1.0
    u = np.zeros(n)
    u[:dd] = state.P0.ravel("F")
    u[dd + 2 * w - 1] = 1.0
    u[n - 1] = 1.0
    return _system(formulation, sde, columns, u, slice(dd + w, dd + w + d))


def _dense_M(aug: AugmentedSystem) -> np.ndarray:
    """The dense M of ``aug``, read-only, built anew on each call."""
    sde, columns = aug.apply.sde, aug.apply.columns
    dd = aug.n - columns.shape[1]  # the vec(P) rows: d^2, or 0 if additive
    M = columns
    if dd:
        M = np.zeros((aug.n, aug.n))
        M[:dd, :dd] = build_calA(sde)
        M[:, dd:] = columns
        M.setflags(write=False)
    if not np.isfinite(M).all():
        raise _overflow_error(sde)
    return M


def _system(formulation: Formulation, sde: LinearSde, columns: np.ndarray,
            u: np.ndarray | None, mean_slice: slice | None) -> AugmentedSystem:
    for a in (columns, u):
        if a is not None:
            a.setflags(write=False)
    return AugmentedSystem(formulation=formulation, n=columns.shape[0], d=sde.d,
                           u=u, mean_slice=mean_slice, apply=_Product(sde, columns))


def _overflow_error(sde: LinearSde) -> ExpmOverflowError:
    scale = max(float(np.abs(a).max(initial=0.0))
                for a in (sde.A, sde.a0, sde.a1, sde.B, sde.b0, sde.b1))
    return ExpmOverflowError(
        f"the augmented generator of this model overflows double precision: "
        f"its coefficients reach {scale:.3g}; rescale the model")


def _check_dimension(sde: LinearSde, state: MomentState) -> None:
    if state.d != sde.d:
        raise ValueError(f"state dimension {state.d} != model dimension {sde.d}")


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
    if not isinstance(options, ExpmOptions):
        raise TypeError(f"options must be an ExpmOptions or None, got {options!r}")
    if options.method == "action" and aug.formulation is Formulation.ADDITIVE:
        raise ValueError(
            "expm-action is unavailable for the additive formulation: "
            "it squares a pair of matrix blocks, not a propagated vector")
    return options.method == "action"


def _propagate(aug: AugmentedSystem, state: MomentState, step: float,
               times: list[float],
               options: ExpmOptions | None) -> list[MomentResult]:
    """Moments labelled times[k - 1] after k steps of one exponential e^{M step}."""
    d = aug.d
    rows = None  # row k - 1: e^{M k step} u
    action = _wants_action(aug, options)
    if action:
        try:
            rows = expm_action(aug.apply, aug.u, step, len(times))
        except ExpmConvergenceError:
            # a route chosen by size alone is no promise of convergence
            if options is not None:
                raise
    # products of a finite exponential may still overflow; make_result
    # reports that as ExpmOverflowError, so numpy's warning is silenced
    with np.errstate(over="ignore", invalid="ignore"):
        if aug.u is None:
            # e^{M h}, h = step / 2^s with expm's squarings s, holds F = e^{At h}
            # and the noise integral Q = E12 F^T (Van Loan, IEEE TAC 1978); the
            # doublings add PSD terms and never form e^{-At^T step}, which grows
            s = _squarings(np.linalg.norm(aug.M * step, 1))
            E = expm(aug.M, math.ldexp(step, -s))
            F = E[:d + 1, :d + 1]
            Q = E[:d + 1, d + 1:] @ F.T
            for _ in range(s):
                Q, F = Q + F @ Q @ F.T, F @ F
            ez = np.append(state.m0, 1.0)  # E[z]
            zz = np.outer(ez, ez)  # E[z z^T] at t0, once P0 is in place
            zz[:d, :d] = state.P0
            zzs = np.empty((len(times), d + 1, d + 1))
            for k in range(len(times)):
                zz = zzs[k] = F @ zz @ F.T + Q
            means, secmoms = zzs[:, :d, d], zzs[:, :d, :d]
        else:
            if rows is None:
                # the fallback leaves M unkept: the kept system holds the basis
                E = expm(_dense_M(aug) if action else aug.M, step)
                rows = [E @ aug.u]
                for _ in times[1:]:
                    rows.append(E @ rows[-1])
            v = np.asarray(rows)
            means = state.m0 + v[:, aug.mean_slice]
            # vec(P) stacks the columns of P, so each row reshapes to P^T
            secmoms = v[:, :d * d].reshape(-1, d, d).transpose(0, 2, 1)
    return make_result(times, means, secmoms)


def moments_at(sde: LinearSde, state: MomentState, t: float,
               options: ExpmOptions | None = None,
               formulation: Formulation | None = None) -> MomentResult:
    """Exact first and second moments of the model at time t >= t0.

    One matrix exponential of the assembled augmented system yields the
    mean and vec(P_t) together. With ``options=None`` the dense route is
    used up to n = 120 and the Krylov action route beyond, where it is
    faster; should Krylov not converge within its basis cap, the dense
    route gives the result. The additive formulation is always dense and
    squares the transition and noise integral of the short step that expm
    would scale to. Passing :class:`ExpmOptions` forces the route it names.
    This is the one-step case of :func:`propagate_grid`, with the time label t.

    Raises
    ------
    ValueError
        t < t0, or an invalid formulation/method combination.
    TypeError
        ``options`` is not an :class:`ExpmOptions`, or ``formulation`` not a
        :class:`Formulation`, and not None.
    ExpmError
        Propagated from the exponential evaluation, or
        :class:`ExpmOverflowError` for moments that overflow.
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
    multiplication, the additive formulation advances E[z z^T] by the
    transition F and noise integral Q of one step as F E[z z^T] F^T + Q,
    and the action route takes every step in one Krylov basis, so the
    whole grid costs a single exponential. Results accumulate rounding of
    order n_steps * eps relative to per-time direct evaluation. ``options``
    and ``formulation`` act as in :func:`moments_at`, with the same limit
    n = 120. The Krylov basis must converge at the last grid time,
    n_steps * step after t0, or the named action route raises
    :class:`ExpmConvergenceError`.
    """
    if not (step > 0.0 and np.isfinite(step)):
        raise ValueError(f"step must be positive and finite, got {step!r}")
    _check_count(n_steps, "n_steps", 1)
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
    _check_dimension(sde, state)
    d = sde.d
    dd = d * d

    C = build_C(sde, state)
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
