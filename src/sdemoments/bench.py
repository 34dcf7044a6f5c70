"""Micro-benchmark: single-exponential route vs the multi-exponential baseline.

The three test systems are built from the Hilbert matrix H (ill
conditioned on purpose): a non-autonomous multiplicative equation
dx = (-Hx + 1 t) dt + Hx dw, an autonomous multiplicative equation
dx = -Hx dt + Hx dw, and an autonomous additive equation
dx = -Hx dt + 1 dw, each with m0 = 1 and P0 = 1 1^T.

Ratios below 1 mean the single-exponential route is faster. Absolute
times are hardware-dependent; only the qualitative pattern (ratios
shrinking with dimension, additive noise cheapest) is meaningful.
"""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass

import numpy as np

from .kron import hilbert
from .model import LinearSde, MomentState
from .moments import moments_at, moments_baseline

__all__ = ["BenchRow", "BenchReport", "hilbert_systems", "run_bench"]

#: grow the timing inner loop until one sample takes at least this long
_MIN_SAMPLE = 2e-3


def hilbert_systems(d: int) -> list[tuple[str, LinearSde, MomentState]]:
    """The three labeled benchmark systems of dimension d."""
    H = hilbert(d)
    ones = np.ones(d)
    zeros_v = np.zeros(d)
    state = MomentState(m0=ones, P0=np.outer(ones, ones))
    non_aut = LinearSde(d=d, m=1, A=-H, a0=zeros_v, a1=ones,
                        B=H[None, :, :], b0=np.zeros((1, d)), t0=0.0)
    aut_mult = LinearSde(d=d, m=1, A=-H, a0=zeros_v,
                         B=H[None, :, :], b0=np.zeros((1, d)), t0=0.0)
    aut_add = LinearSde(d=d, m=1, A=-H, a0=zeros_v,
                        b0=ones[None, :], t0=0.0)
    return [("non_autonomous_multiplicative", non_aut, state),
            ("autonomous_multiplicative", aut_mult, state),
            ("autonomous_additive", aut_add, state)]


@dataclass(frozen=True)
class BenchRow:
    """One (equation class, dimension) timing comparison."""

    equation_class: str
    d: int
    time_new: float
    time_baseline: float
    ratio: float
    reps: int
    max_rel_diff: float


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[BenchRow, ...]
    environment: str

    def format_table(self) -> str:
        header = (f"{'equation_class':32s} {'d':>3s} {'new (s)':>12s} "
                  f"{'baseline (s)':>13s} {'ratio':>10s} {'reps':>5s} "
                  f"{'agreement':>11s}")
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(f"{r.equation_class:32s} {r.d:3d} {r.time_new:12.6g} "
                         f"{r.time_baseline:13.6g} {r.ratio:10.6g} {r.reps:5d} "
                         f"{r.max_rel_diff:11.6g}")
        lines.append("")
        lines.append(f"# {self.environment}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        lines = ["equation_class,d,time_new,time_baseline,ratio,reps,max_rel_diff"]
        for r in self.rows:
            lines.append(",".join([
                r.equation_class, str(r.d),
                "%.17g" % r.time_new, "%.17g" % r.time_baseline,
                "%.17g" % r.ratio, str(r.reps), "%.17g" % r.max_rel_diff,
            ]))
        return "\n".join(lines) + "\n"


def _inner_count(fn) -> int:
    """Calls per sample so that one sample lasts at least _MIN_SAMPLE."""
    fn()
    n_inner = 1
    while True:
        start = time.perf_counter()
        for _ in range(n_inner):
            fn()
        if time.perf_counter() - start >= _MIN_SAMPLE or n_inner >= 1 << 20:
            return n_inner
        n_inner *= 2


def _median_times(fns, reps: int) -> list[float]:
    """Median time per call of each function over ``reps`` samples.

    The functions are sampled in turn, one sample each per round, so that
    load from other processes, which comes and goes within seconds, falls
    on all of them alike and cancels in their ratios.
    """
    counts = [_inner_count(fn) for fn in fns]
    samples = [[] for _ in fns]
    for _ in range(reps):
        for fn, n_inner, out in zip(fns, counts, samples):
            start = time.perf_counter()
            for _ in range(n_inner):
                fn()
            out.append((time.perf_counter() - start) / n_inner)
    return [float(np.median(out)) for out in samples]


def _rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.abs(b).max()), 1e-300)
    return float(np.abs(a - b).max()) / scale


def run_bench(dims: tuple[int, ...] = (2, 8), reps: int = 7,
              t: float = 1.0) -> BenchReport:
    """Time moments_at against moments_baseline on the benchmark systems.

    Each measurement is a median over ``reps`` samples, taken in turn
    with the other route's; samples shorter than the clock can resolve
    are stretched over an auto-sized inner loop. Also records the max
    relative disagreement of the two routes.
    """
    if not isinstance(reps, (int, np.integer)) or reps < 5:
        raise ValueError(f"reps must be an integer >= 5, got {reps!r}")
    for d in dims:
        if not 1 <= d <= 12:
            raise ValueError(f"dims must lie in 1..12, got {d!r}")
    rows = []
    for d in dims:
        for label, sde, state in hilbert_systems(d):
            res_new = moments_at(sde, state, t)
            res_old = moments_baseline(sde, state, t)
            agreement = max(_rel_diff(res_new.mean, res_old.mean),
                            _rel_diff(res_new.secmom, res_old.secmom))
            time_new, time_old = _median_times(
                (lambda: moments_at(sde, state, t),
                 lambda: moments_baseline(sde, state, t)), reps)
            rows.append(BenchRow(equation_class=label, d=d,
                                 time_new=time_new, time_baseline=time_old,
                                 ratio=time_new / time_old, reps=reps,
                                 max_rel_diff=agreement))
    env = (f"python {platform.python_version()}, numpy {np.__version__}, "
           f"{platform.system()}/{platform.machine()}; medians of {reps} reps; "
           f"hardware-dependent, qualitative comparison only")
    return BenchReport(rows=tuple(rows), environment=env)
