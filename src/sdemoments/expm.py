"""Dense matrix exponentials and exponential actions on vectors.

The dense path is diagonal Pade approximation with norm-based scaling and
squaring; the vector path is an Arnoldi projection onto a Krylov subspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ExpmOptions",
    "ExpmError",
    "ExpmOverflowError",
    "ExpmConvergenceError",
    "expm",
    "expm_action",
]

#: diagonal Pade orders and the largest 1-norm each approximates to double
#: precision (Higham, SIMAX 2005); larger norms are scaled down for order 13
_THETA = {
    3: 1.495585217958292e-2,
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068,
    13: 5.371920351148152,
}

_PADE_COEFFS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (
        17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0,
    ),
    13: (
        64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
        1187353796428800.0, 129060195264000.0, 10559470521600.0,
        670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
        960960.0, 16380.0, 182.0, 1.0,
    ),
}

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


def _pade_uv(a: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    c = _PADE_COEFFS[order]
    n = a.shape[0]
    eye = np.eye(n)
    a2 = a @ a
    if order == 3:
        u = a @ (c[3] * a2 + c[1] * eye)
        v = c[2] * a2 + c[0] * eye
    elif order == 5:
        a4 = a2 @ a2
        u = a @ (c[5] * a4 + c[3] * a2 + c[1] * eye)
        v = c[4] * a4 + c[2] * a2 + c[0] * eye
    elif order == 7:
        a4 = a2 @ a2
        a6 = a2 @ a4
        u = a @ (c[7] * a6 + c[5] * a4 + c[3] * a2 + c[1] * eye)
        v = c[6] * a6 + c[4] * a4 + c[2] * a2 + c[0] * eye
    elif order == 9:
        a4 = a2 @ a2
        a6 = a2 @ a4
        a8 = a4 @ a4
        u = a @ (c[9] * a8 + c[7] * a6 + c[5] * a4 + c[3] * a2 + c[1] * eye)
        v = c[8] * a8 + c[6] * a6 + c[4] * a4 + c[2] * a2 + c[0] * eye
    else:
        a4 = a2 @ a2
        a6 = a2 @ a4
        u = a @ (a6 @ (c[13] * a6 + c[11] * a4 + c[9] * a2)
                 + c[7] * a6 + c[5] * a4 + c[3] * a2 + c[1] * eye)
        v = (a6 @ (c[12] * a6 + c[10] * a4 + c[8] * a2)
             + c[6] * a6 + c[4] * a4 + c[2] * a2 + c[0] * eye)
    return u, v


def expm(a, t: float = 1.0) -> np.ndarray:
    """Dense matrix exponential e^(a*t).

    The diagonal Pade order is the smallest of 3, 5, 7, 9 whose threshold
    in ``_THETA`` covers ||a t||_1; beyond those, order 13 is used after
    scaling by 2^-s with the fewest squarings s that bring the norm under
    its threshold (Higham's scaling and squaring, SIMAX 2005).

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

    b = a * t
    norm = np.linalg.norm(b, 1)
    if norm == 0.0:
        result = np.eye(b.shape[0])
    else:
        order = min((m for m, theta in _THETA.items() if norm <= theta),
                    default=13)
        squarings = 0
        if norm > _THETA[13]:
            squarings = int(math.ceil(math.log2(norm / _THETA[13])))
            b = b / (2.0 ** squarings)
        u, v = _pade_uv(b, order)
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


def expm_action(a, v, t: float = 1.0, n_steps: int | None = None) -> np.ndarray:
    """Product e^(a*t) @ v without forming the dense exponential.

    Builds an Arnoldi basis of the Krylov space span{v, a v, a^2 v, ...},
    orthogonalised by two block passes of classical Gram-Schmidt, and
    exponentiates the small projected Hessenberg matrix H_m with
    :func:`expm` only at checkpoints: m = 8, then each time m reaches
    1.25 times the previous checkpoint. With y = e^(H_m t) e_1, it stops
    once Saad's a posteriori estimate t h_{m+1,m} |y_m| / ||y|| of the
    relative error is at most 1e-12 (Saad, SINUM 1992; the factor t makes
    it the estimate for the Arnoldi process of a t), on exact
    invariance (happy breakdown), or when the basis spans the full space,
    where the projection is exact. Reaching 96 basis vectors first raises
    :class:`ExpmConvergenceError` carrying the last estimate as its
    ``residual``; the dense exponential is then the remedy. A product that
    leaves the double range comes back non-finite, without a numpy
    warning; :func:`~sdemoments.moments.make_result` reports it.

    With ``n_steps`` given, one basis serves a uniform grid: row k - 1 of
    the ``(n_steps, n)`` result is e^(a*k*t) @ v. Checkpoints form every
    y_k = e^(H_m k t) e_1 from the exponential of H_m t by doubling, raise
    :class:`ExpmOverflowError` if one overflows, and require the estimate
    k t h_{m+1,m} |y_k[m]| / ||y_k|| to meet the tolerance at every k: a
    long grid converges at horizon n_steps * t or raises.
    """
    a = _as_square(a)
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.shape[0] != a.shape[0]:
        raise ValueError(f"v must be 1-d of length {a.shape[0]}, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("v contains non-finite entries")
    t = float(t)
    if not math.isfinite(t) or t < 0.0:
        raise ValueError(f"t must be finite and nonnegative, got {t!r}")
    if n_steps is not None and (not isinstance(n_steps, (int, np.integer))
                                or n_steps < 1):
        raise ValueError(f"n_steps must be an integer >= 1, got {n_steps!r}")

    n = a.shape[0]
    beta = np.linalg.norm(v)
    if t == 0.0 or beta == 0.0:
        return v.copy() if n_steps is None else np.tile(v, (n_steps, 1))

    cap = min(n, _MAX_KRYLOV)
    basis = np.zeros((cap + 1, n))  # row j is the j-th Arnoldi vector
    h = np.zeros((cap + 1, cap))
    basis[0] = v / beta

    checkpoint = 8
    estimate = np.inf
    for j in range(cap):
        w = a @ basis[j]
        q = basis[:j + 1]
        for _ in range(2):  # CGS2: the second pass restores orthogonality
            c = q @ w
            w -= c @ q
            h[:j + 1, j] += c
        h_next = np.linalg.norm(w)
        h[j + 1, j] = h_next
        m = j + 1
        breakdown = h_next <= 1e-14 * max(1.0, np.abs(h[:m, :m]).max())
        if breakdown or m == cap or m >= checkpoint:
            step = expm(h[:m, :m], t)
            y, power = step[:, :1].T, step  # row k - 1 is e^(H_m k t) e_1
            # a later step, a norm or the product can overflow
            with np.errstate(over="ignore", invalid="ignore"):
                # doubling: rows L + 1..2L are rows 1..L times e^(H_m L t)
                while len(y) < (n_steps or 1):
                    y, power = np.vstack([y, y @ power.T])[:n_steps], power @ power
                if not np.all(np.isfinite(y)):  # as expm(H_m, n_steps t) would
                    raise ExpmOverflowError("grid steps overflow double precision")
                # each row's norm by one dot, as np.linalg.norm forms a vector's
                norms = np.sqrt(np.matmul(y[:, None], y[:, :, None]).ravel())
                # the estimate for horizon k t; np.max keeps a nan from overflow
                estimate = np.max(np.arange(1, len(y) + 1) * t * h_next
                                  * np.abs(y[:, -1]) / norms)
                # an invariant subspace or a full basis makes the projection exact
                if breakdown or m == n or estimate <= _KRYLOV_TOL:
                    rows = [beta * (yk @ q) for yk in y]  # as a one-vector call forms it
                    return rows[0] if n_steps is None else np.array(rows)
            checkpoint = math.ceil(1.25 * m)
        basis[j + 1] = w / h_next

    raise ExpmConvergenceError(
        f"Krylov iteration did not converge within {cap} iterations "
        f"(last error estimate {estimate:.3e}); use the dense route, "
        f'ExpmOptions(method="dense")',
        residual=estimate,
    )
