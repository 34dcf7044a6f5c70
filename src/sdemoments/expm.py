"""Dense matrix exponentials and exponential actions on vectors.

The dense path is the order-13 diagonal Pade approximant with norm-based
scaling and squaring; the vector path is an Arnoldi projection onto a
Krylov subspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import _check_count

__all__ = [
    "ExpmOptions",
    "ExpmError",
    "ExpmOverflowError",
    "ExpmConvergenceError",
    "expm",
    "expm_action",
]

#: largest 1-norm that the order-13 diagonal Pade approximant takes to
#: double precision (Higham, SIMAX 2005); larger norms are scaled down to it
_THETA_13 = 5.371920351148152

_PADE_COEFFS = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)

#: Krylov stops once its a posteriori relative error estimate is at most this
_KRYLOV_TOL = 1e-12
#: Krylov basis cap; reaching it unconverged raises ExpmConvergenceError
_MAX_KRYLOV = 96


class ExpmError(RuntimeError):
    """Failure inside a matrix-exponential evaluation."""


class ExpmOverflowError(ExpmError):
    """The exponential is not representable in double precision."""


class ExpmConvergenceError(ExpmError):
    """Krylov iteration did not converge within its basis cap.

    Attributes
    ----------
    residual : float
        Saad's a posteriori estimate t h_{m+1,m} |y_m| / ||y|| of the
        relative error at the last checkpoint (on a grid, the largest over its
        times), with m the basis size and y = e^(H_m t) e_1.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class ExpmOptions:
    """Route choice for :func:`~sdemoments.moments_at` and
    :func:`~sdemoments.propagate_grid`.

    Passing no options lets the route follow the augmented size; passing
    options forces the named route.

    Attributes
    ----------
    method : str
        ``"dense"`` (Pade with scaling and squaring of the whole augmented
        matrix) or ``"action"`` (Krylov projection of its action on the
        initial vector). Any other value raises ``ValueError``.
    """

    method: str

    def __post_init__(self):
        if self.method not in ("dense", "action"):
            raise ValueError(
                f'method must be "dense" or "action", got {self.method!r}')


def _as_square(a, name: str = "a") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _pade_uv(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Odd and even parts u, v of the order-13 Pade numerator at a."""
    c = _PADE_COEFFS
    eye = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (c[13] * a6 + c[11] * a4 + c[9] * a2)
             + c[7] * a6 + c[5] * a4 + c[3] * a2 + c[1] * eye)
    v = (a6 @ (c[12] * a6 + c[10] * a4 + c[8] * a2)
         + c[6] * a6 + c[4] * a4 + c[2] * a2 + c[0] * eye)
    return u, v


def _squarings(norm: float) -> int:
    """Fewest squarings s with 2^-s ``norm`` <= _THETA_13, for the 1-norm of
    a t; raises :class:`ExpmOverflowError` if that norm is not finite."""
    if not math.isfinite(norm):
        raise ExpmOverflowError(
            "the norm of the scaled matrix a t overflows double precision, "
            "so it cannot be scaled for squaring; reduce t or rescale the problem")
    return int(math.ceil(math.log2(norm / _THETA_13))) if norm > _THETA_13 else 0


def expm(a, t: float = 1.0) -> np.ndarray:
    """Dense matrix exponential e^(a*t).

    The order-13 diagonal Pade approximant, which reaches double precision
    for ||a t||_1 <= 5.37 (Higham's scaling and squaring, SIMAX 2005); a
    larger norm is first scaled by 2^-s with the fewest squarings s that
    bring it under that bound, and the result squared s times.

    Parameters
    ----------
    a : array_like
        Square matrix with finite entries.
    t : float
        Scalar factor multiplying ``a``; any finite real value.

    Returns
    -------
    ndarray
        The exponential. An exponential whose entries leave the double
        range raises :class:`ExpmOverflowError` rather than returning
        infinities.
    """
    a = _as_square(a)
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")

    with np.errstate(over="ignore"):
        b = a * t
    norm = np.linalg.norm(b, 1)
    squarings = _squarings(norm)
    if norm == 0.0:
        result = np.eye(b.shape[0])
    else:
        if squarings:
            b = b / (2.0 ** squarings)
        u, v = _pade_uv(b)
        try:
            result = np.linalg.solve(v - u, v + u)
        except np.linalg.LinAlgError as exc:
            raise ExpmError(f"Pade denominator is singular: {exc}") from exc
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(squarings):
                result = result @ result

    if not np.all(np.isfinite(result)):
        raise ExpmOverflowError(
            "matrix exponential overflows double precision; "
            "rescale the problem or reduce t")
    return result


def _norm(x: np.ndarray):
    """2-norm of a vector, rescaled by its largest entry where the squares
    overflow; inf or nan only if the norm itself is not finite."""
    r = np.linalg.norm(x)
    if math.isinf(r):
        s = np.abs(x).max()
        if math.isfinite(s):
            r = s * np.linalg.norm(x / s)
    return r


class _ResumableProduct:
    """Base of product callables x -> a @ x that keep their Krylov basis.

    :func:`expm_action` stores the Arnoldi basis it builds for such an
    ``a`` on the object and continues it on a later call with the same
    ``v``: the Krylov space does not depend on t. Subclasses define
    ``__call__``. An object must not serve two threads at once.
    """

    _arnoldi = None


class _Arnoldi:
    """Arnoldi basis of span{v, a v, a^2 v, ...}, grown on demand.

    Row j of ``basis`` is the j-th orthonormal vector and ``h`` the
    projected Hessenberg matrix; ``size`` steps are taken, so rows
    0..size of ``basis`` and columns 0..size-1 of ``h`` are final.
    ``closed`` marks a happy breakdown at the last step: the space is
    invariant and does not grow. The basis holds no reference to the
    product that builds it, which may own it.
    """

    def __init__(self, v: np.ndarray, beta: float, cap: int):
        self.v = v.copy()
        self.basis = np.zeros((cap + 1, v.shape[0]))
        self.basis[0] = v / beta
        self.h = np.zeros((cap + 1, cap))
        self.size = 0
        self.closed = False

    def extend(self, product, m: int) -> int:
        """Steps until the basis has m vectors or closes; its size then.

        Orthogonalises by two block passes of classical Gram-Schmidt.
        Raises :class:`ExpmOverflowError`, taking no step, when a product
        or its norm is not finite.
        """
        basis, h = self.basis, self.h
        while self.size < m and not self.closed:
            j = self.size
            w = product(basis[j])
            q = basis[:j + 1]
            column = np.zeros(j + 1)
            for _ in range(2):  # CGS2: the second pass restores orthogonality
                c = q @ w
                w -= c @ q
                column += c
            h_next = _norm(w)
            if not math.isfinite(h_next):
                raise ExpmOverflowError(
                    "a Krylov product or its norm overflows double precision; "
                    "rescale the problem")
            h[:j + 1, j] = column
            h[j + 1, j] = h_next
            self.size = j + 1
            self.closed = h_next <= 1e-14 * max(1.0, np.abs(h[:j + 1, :j + 1]).max())
            if not self.closed:
                basis[j + 1] = w / h_next
        return min(m, self.size)


def _arnoldi(a, v: np.ndarray, beta: float, cap: int) -> _Arnoldi:
    """The basis an evaluation of e^(a t) v continues: the one kept on a
    :class:`_ResumableProduct` for this v, or a new one."""
    if not isinstance(a, _ResumableProduct):
        return _Arnoldi(v, beta, cap)
    if a._arnoldi is None or not np.array_equal(a._arnoldi.v, v):
        a._arnoldi = None  # free the old basis before allocating the new one
        a._arnoldi = _Arnoldi(v, beta, cap)
    return a._arnoldi


def _next_checkpoint(previous: tuple[int, float] | None, m: int,
                     estimate: float) -> int:
    """Basis size of the next checkpoint after one at m.

    ``previous`` is the checkpoint before, as (size, estimate). Without
    one, 1.25 m. With one, log(estimate) is extrapolated linearly in the
    basis size to _KRYLOV_TOL, within [ceil(1.05 m), 2 m]; an estimate
    that did not fall gives 2 m.
    """
    if previous is None:
        return math.ceil(1.25 * m)
    low, high = math.ceil(1.05 * m), 2 * m
    slope = (math.log(estimate) - math.log(previous[1])) / (m - previous[0])
    if not slope < 0.0:  # also a nan from an estimate that is nan or inf
        return high
    target = m + (math.log(_KRYLOV_TOL) - math.log(estimate)) / slope
    return max(low, math.ceil(min(target, high)))


def expm_action(a, v, t: float = 1.0, n_steps: int | None = None) -> np.ndarray:
    """Product e^(a*t) @ v without forming the dense exponential.

    ``a`` is a square array or a callable returning a @ x for a vector x,
    which lets a structured matrix act without being formed; n is the
    length of ``v``. Builds an Arnoldi basis of the Krylov space
    span{v, a v, a^2 v, ...}, orthogonalised by two block passes of
    classical Gram-Schmidt, and exponentiates the small projected
    Hessenberg matrix H_m with :func:`expm` only at checkpoints: m = 8,
    then 10, then where the trend of the last two checkpoints' estimates,
    log-linear in m, reaches the tolerance, within [1.05 m, 2 m]. With
    y = e^(H_m t) e_1, it stops once Saad's a posteriori estimate
    t h_{m+1,m} |y_m| / ||y|| of the relative error is at most 1e-12 (Saad,
    SINUM 1992; the factor t makes it the estimate for the Arnoldi process
    of a t), on exact invariance (happy breakdown), or when the basis spans
    the full space, where the projection is exact. Reaching 96 basis
    vectors first raises :class:`ExpmConvergenceError` carrying the last
    estimate as its ``residual``; the dense exponential is then the remedy.
    A product a x, or a norm of v, that is not finite raises
    :class:`ExpmOverflowError`. A result that leaves the double range comes
    back non-finite, without a numpy warning;
    :func:`~sdemoments.moments.make_result` reports it.

    The basis does not depend on t. A product object that keeps its basis
    (:class:`~sdemoments.moments.AugmentedSystem`'s ``apply``) has a later
    call with the same v continue it: that call walks the same checkpoints
    and takes products only beyond the vectors already built, so it
    returns what a new basis would, bit for bit.

    With ``n_steps`` given, one basis serves a uniform grid: row k - 1 of
    the ``(n_steps, n)`` result is e^(a*k*t) @ v. Checkpoints form every
    y_k = e^(H_m k t) e_1 from the exponential of H_m t by doubling and
    require the estimate k t h_{m+1,m} |y_k[m]| / ||y_k|| to meet the
    tolerance at every k: a long grid converges at horizon n_steps * t or
    raises, unless some y_k overflows, which returns the rows as they are.
    """
    v = np.asarray(v, dtype=float)
    if callable(a):
        product = a
        if v.ndim != 1 or v.shape[0] < 1:
            raise ValueError(f"v must be 1-d and nonempty, got shape {v.shape}")
    else:
        matrix = _as_square(a)
        product = matrix.__matmul__
        if v.ndim != 1 or v.shape[0] != matrix.shape[0]:
            raise ValueError(f"v must be 1-d of length {matrix.shape[0]}, "
                             f"got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("v contains non-finite entries")
    t = float(t)
    if not math.isfinite(t) or t < 0.0:
        raise ValueError(f"t must be finite and nonnegative, got {t!r}")
    if n_steps is not None:
        _check_count(n_steps, "n_steps", 1)

    n = v.shape[0]
    with np.errstate(over="ignore"):
        beta = _norm(v)
    if t == 0.0 or beta == 0.0:
        return v.copy() if n_steps is None else np.tile(v, (n_steps, 1))
    if not math.isfinite(beta):
        raise ExpmOverflowError("the norm of v overflows double precision; "
                                "rescale the problem")

    cap = min(n, _MAX_KRYLOV)
    arnoldi = _arnoldi(a, v, beta, cap)
    checkpoint, previous = 8, None
    # an overflowing product, a later step, a norm or the result can leave
    # the double range; each is checked, so numpy's warnings are silenced
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            m = arnoldi.extend(product, min(checkpoint, cap))
            h_next = arnoldi.h[m, m - 1]
            step = expm(arnoldi.h[:m, :m], t)
            y, power = step[:, :1].T, step  # row k - 1 is e^(H_m k t) e_1
            # doubling: rows L + 1..2L are rows 1..L times e^(H_m L t)
            while len(y) < (n_steps or 1):
                y, power = np.vstack([y, y @ power.T])[:n_steps], power @ power
            overflow = not np.all(np.isfinite(y))  # no larger basis undoes it
            # each row's norm by one dot, as np.linalg.norm forms a vector's;
            # where its squares overflow or underflow, rescaled as by _norm
            norms = np.sqrt(np.matmul(y[:, None], y[:, :, None]).ravel())
            bad = np.isinf(norms) | (norms == 0.0)
            if bad.any():
                scale = np.abs(y[bad]).max(axis=1)
                norms[bad] = scale * np.linalg.norm(y[bad] / scale[:, None], axis=1)
            # the estimate for horizon k t; np.max keeps a nan from overflow
            estimate = np.max(np.arange(1, len(y) + 1) * t * h_next
                              * np.abs(y[:, -1]) / norms)
            # an invariant subspace or a full basis makes the projection exact
            exact = (arnoldi.closed and m == arnoldi.size) or m == n
            if exact or estimate <= _KRYLOV_TOL or overflow:
                q = arnoldi.basis[:m]
                rows = [beta * (yk @ q) for yk in y]  # as a one-vector call forms it
                return rows[0] if n_steps is None else np.array(rows)
            if m == cap:
                break
            checkpoint, previous = _next_checkpoint(previous, m, estimate), (m, estimate)

    raise ExpmConvergenceError(
        f"Krylov iteration did not converge within {cap} iterations "
        f"(last error estimate {estimate:.3e}); use the dense route, "
        f'ExpmOptions(method="dense")',
        residual=estimate,
    )
