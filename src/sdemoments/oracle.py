"""Independent verification oracles for the moment engine.

Two deliberately different routes to the same moments: classical RK4 on
the coupled mean/second-moment ODEs, and Euler-Maruyama Monte Carlo on
the SDE itself. The right-hand side here is evaluated directly from the
moment differential equations, not via the engine's coefficient algebra,
so agreement between the two is meaningful evidence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import LinearSde, MomentState, _check_count
from .moments import MomentResult, _check_dimension, _elapsed, make_result

__all__ = [
    "McConfig",
    "McEstimate",
    "moment_ode_rhs",
    "rk4_moments",
    "euler_maruyama_mc",
]

_CHUNK = 1024
_TABLE = 2 ** 15  # entries of the Euler-Maruyama step matrices held at once


def moment_ode_rhs(sde: LinearSde, m: np.ndarray, P: np.ndarray,
                   t: float) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side of the exact moment ODEs at time t.

    dm/dt = A m + a(t);
    dP/dt = A P + P A^T + sum_i B_i P B_i^T + script-B(t), with

    script-B(t) = a(t) m^T + m a(t)^T
                  + sum_i (B_i m b_i(t)^T + b_i(t) m^T B_i^T + b_i(t) b_i(t)^T).

    The channel sums run as batched products over the stacked B.
    """
    a_t = sde.drift_forcing(t)
    dm = sde.A @ m + a_t
    forcing = a_t[:, None] * m  # outer product a(t) m^T
    dP = sde.A @ P + P @ sde.A.T
    if sde.m:
        B = sde.B
        b_t = sde.noise_forcing(t)
        forcing = forcing + (B @ m).T @ b_t
        dP = dP + (B @ P @ B.transpose(0, 2, 1)).sum(0) + b_t.T @ b_t
    return dm, dP + forcing + forcing.T


def rk4_moments(sde: LinearSde, state: MomentState, t: float,
                n_steps: int) -> MomentResult:
    """Fixed-step classical Runge-Kutta integration of the moment ODEs.

    Global error is O(h^4) in both moments. Raises RuntimeError naming
    the offending step if the iteration produces non-finite values.
    """
    tau = _elapsed(sde, t)
    _check_dimension(sde, state)
    _check_count(n_steps, "n_steps", 1)

    h = tau / n_steps
    half, sixth = 0.5 * h, h / 6.0
    m = np.array(state.m0, dtype=float)
    P = np.array(state.P0, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            tk = sde.t0 + k * h
            k1m, k1P = moment_ode_rhs(sde, m, P, tk)
            k2m, k2P = moment_ode_rhs(sde, m + half * k1m, P + half * k1P, tk + half)
            k3m, k3P = moment_ode_rhs(sde, m + half * k2m, P + half * k2P, tk + half)
            k4m, k4P = moment_ode_rhs(sde, m + h * k3m, P + h * k3P, tk + h)
            m = m + sixth * (k1m + 2.0 * (k2m + k3m) + k4m)
            P = P + sixth * (k1P + 2.0 * (k2P + k3P) + k4P)
            if not (np.isfinite(m).all() and np.isfinite(P).all()):
                raise RuntimeError(
                    f"moment integration produced non-finite values at step "
                    f"{k + 1} of {n_steps} (t = {tk + h:g})")
    return make_result([t], m[None], P[None])[0]


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo run parameters."""

    n_paths: int
    n_steps: int
    seed: int

    def __post_init__(self):
        _check_count(self.n_paths, "n_paths", 2)
        _check_count(self.n_steps, "n_steps", 1)
        _check_count(self.seed, "seed", 0)


@dataclass(frozen=True)
class McEstimate:
    """Sample moments with per-component standard errors."""

    mean: np.ndarray
    secmom: np.ndarray
    stderr_mean: np.ndarray
    stderr_secmom: np.ndarray
    n_paths: int


class _Welford:
    """Streaming mean/variance over fixed-order batches of stat vectors."""

    def __init__(self, size: int):
        self.n = 0
        self.mean = np.zeros(size)
        self.m2 = np.zeros(size)
        self.lo = np.full(size, np.inf)
        self.hi = np.full(size, -np.inf)

    def add(self, batch: np.ndarray) -> None:
        k = batch.shape[0]
        bmean = batch.mean(axis=0)
        bm2 = ((batch - bmean) ** 2).sum(axis=0)
        if self.n == 0:
            self.n, self.mean, self.m2 = k, bmean, bm2
        else:
            delta = bmean - self.mean
            total = self.n + k
            self.mean = self.mean + delta * (k / total)
            self.m2 = self.m2 + bm2 + delta * delta * (self.n * k / total)
            self.n = total
        self.lo = np.minimum(self.lo, batch.min(axis=0))
        self.hi = np.maximum(self.hi, batch.max(axis=0))

    def stderr(self) -> np.ndarray:
        out = np.sqrt(np.maximum(self.m2, 0.0) / (self.n - 1) / self.n)
        out[self.hi == self.lo] = 0.0
        return out


def _initial_factor(state: MomentState) -> np.ndarray:
    cov = state.covariance()
    cov = (cov + cov.T) / 2.0
    w, V = np.linalg.eigh(cov)
    return V * np.sqrt(np.clip(w, 0.0, None))


class _StepMatrices:
    """The step matrices G_s of :func:`_simulate` for n_steps steps of size
    h, tabulated a chunk of steps at a time.

    A chunk holds at most _TABLE entries, so memory does not grow with
    n_steps; only the forcing column changes from chunk to chunk. A run
    that fits one chunk is tabulated once, for every block of paths.
    """

    def __init__(self, sde: LinearSde, h: float, n_steps: int):
        d, m = sde.d, sde.m
        self.sde, self.h, self.sqrt_h, self.n_steps = sde, h, np.sqrt(h), n_steps
        rows = (1 + m) * d + 1
        self.size = min(n_steps, max(1, _TABLE // (rows * (d + 1))))
        G = self.G = np.zeros((self.size, rows, d + 1))
        G[:, :d, :d] = np.eye(d) + h * sde.A
        G[:, d, d] = 1.0
        G[:, d + 1:, :d] = self.sqrt_h * sde.B.reshape(m * d, d)
        self.lo = None  # the first step of the chunk G holds

    def chunk(self, lo: int) -> np.ndarray:
        """G_s for s = lo, lo + 1, ..., at most ``size`` of them."""
        sde, d = self.sde, self.sde.d
        hi = min(lo + self.size, self.n_steps)
        G = self.G[:hi - lo]
        if lo != self.lo:
            t = sde.t0 + np.arange(lo, hi) * self.h
            G[:, :d, d] = self.h * sde.drift_forcing(t[:, None])
            G[:, d + 1:, d] = (self.sqrt_h * sde.noise_forcing(t[:, None, None])
                               ).reshape(hi - lo, sde.m * d)
            self.lo = lo
        return G


def _simulate(sde: LinearSde, x: np.ndarray, dW: np.ndarray, h: float,
              n_steps: int, steps: _StepMatrices | None = None) -> np.ndarray:
    """Euler-Maruyama endpoints, (k, d), of the k initial states x under
    the standard normal increments dW, (k, n_steps, m).

    Paths run along the last, contiguous axis, so that each numpy call of
    a step spans every path. A path's column is z = [x; 1; y_1; ...; y_m],
    and step s at t_s = t0 + s h is one product z' = G_s z with

        G_s = [[I + h A,       h a(t_s)        ],
               [0,             1               ],
               [sqrt(h) B_i,   sqrt(h) b_i(t_s)]]   (a row block per channel)

    followed by x' += y_i' dW_i for each channel i. Two buffers of the k
    columns z take turns as the product's input and output. A path's
    arithmetic does not depend on the other paths. ``steps`` passes the
    G_s of this sde, h and n_steps in, to share them between blocks.
    """
    d, m, k = sde.d, sde.m, x.shape[0]
    if steps is None:
        steps = _StepMatrices(sde, h, n_steps)
    z = np.empty((2, steps.G.shape[1], k))
    z[0, :d] = x.T
    z[0, d] = 1.0
    # per buffer: the whole, the product's input [x; 1], x, and the y_i
    views = [(b, b[:d + 1], b[:d], list(b[d + 1:].reshape(m, d, k))) for b in z]
    for lo in range(0, n_steps, steps.size):
        for step, G in enumerate(steps.chunk(lo), start=lo):
            z_in = views[step % 2][1]
            z_out, _, x_out, noise = views[1 - step % 2]
            np.matmul(G, z_in, out=z_out)
            for i in range(m):
                noise[i] *= dW[:, step, i]
                x_out += noise[i]
    return views[n_steps % 2][2].T


def _stats(x: np.ndarray, d: int) -> np.ndarray:
    outer = np.einsum("ki,kj->kij", x, x).reshape(x.shape[0], d * d)
    return np.concatenate([x, outer], axis=1)


def euler_maruyama_mc(sde: LinearSde, state: MomentState, t: float,
                      config: McConfig) -> McEstimate:
    """Euler-Maruyama Monte Carlo estimate of the moments at time t.

    Initial states are Gaussian with mean m0 and covariance P0 - m0 m0^T
    (only the first two moments matter for the quantities estimated).

    All randomness comes from one stream, ``default_rng(seed)``, read in
    path order: path j takes draws j L ... (j + 1) L - 1 of its standard
    normals, where L = d + n_steps m. The first d draws give the initial
    state, and the rest are the Brownian increments of each step in turn,
    channel by channel. Hence estimates are bit-reproducible for a fixed
    configuration, the vectorization chunk changes no path, and the paths
    common to two values of ``n_paths`` are identical. Estimates differ
    bit for bit from those of versions that gave each path its own
    spawned stream. Standard errors of exactly constant components are
    exactly zero.
    """
    tau = _elapsed(sde, t)
    _check_dimension(sde, state)

    d, m, n_steps = sde.d, sde.m, config.n_steps
    h = tau / n_steps
    factor = _initial_factor(state)
    rng = np.random.default_rng(config.seed)
    acc = _Welford(d + d * d)

    L = d + n_steps * m
    rows = min(_CHUNK, max(1, 2 ** 22 // L))  # at most 2^22 draws (32 MiB) a block
    steps = _StepMatrices(sde, h, n_steps)
    for lo in range(0, config.n_paths, rows):
        k = min(rows, config.n_paths - lo)
        # C order: row j holds path lo + j's draws, consecutive in the stream
        draws = rng.standard_normal((k, L))
        x0 = state.m0 + draws[:, :d] @ factor.T
        dW = draws[:, d:].reshape(k, n_steps, m)
        acc.add(_stats(_simulate(sde, x0, dW, h, n_steps, steps), d))

    if not np.all(np.isfinite(acc.mean)):
        raise RuntimeError("simulation produced non-finite sample moments; "
                           "reduce the step size or the horizon")
    stderr = acc.stderr()
    return McEstimate(mean=acc.mean[:d],
                      secmom=acc.mean[d:].reshape(d, d),
                      stderr_mean=stderr[:d],
                      stderr_secmom=stderr[d:].reshape(d, d),
                      n_paths=config.n_paths)
