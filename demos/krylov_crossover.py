"""Where the Krylov action beats the dense exponential.

moments_at and propagate_grid pick their route from the augmented size n
alone: the dense exponential of the whole matrix up to _DENSE_LIMIT, the
Krylov action e^{M tau} u beyond. This script times both routes on
Hilbert and random-stable systems at d = 6..16 in both vector
formulations (non-autonomous, n = d^2 + 2d + 7; autonomous
multiplicative, n = d^2 + d + 2) at tau = 1 and tau = 10, and prints the
best of 5 for each route, their relative agreement and which route the
default takes. Every timed call gets a fresh copy of the model, so it
pays the assembly and the whole Krylov basis as a first evaluation does.

A grid costs one exponential on either route: the dense route reuses
e^{M step} for every step, and the action route takes every step in one
Krylov basis that must converge at the grid's last time. A second table
times 20-step grids to tau on the same systems at d = 10..16 against the
same limit. A last table runs the default route at d = 40 (n = 1687 and
1642) on the Hilbert systems, where M alone would take 23 MB: it times
the action only and prints the size of its Krylov basis. The action
route applies M from its blocks and never forms it. BLAS is pinned to
one thread unless the environment already sets it.

    python3 demos/krylov_crossover.py
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import dataclasses  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from sdemoments import (ExpmOptions, LinearSde, MomentState,  # noqa: E402
                        assemble, expm_action, hilbert_systems, moments_at,
                        propagate_grid)
from sdemoments.moments import _DENSE_LIMIT  # noqa: E402

DENSE = ExpmOptions(method="dense")
ACTION = ExpmOptions(method="action")


def random_stable(rng, d, non_autonomous):
    """Drift with spectral abscissa -0.5, one noise channel scaled by 1/sqrt(d)."""
    A = rng.uniform(-1.0, 1.0, (d, d))
    A -= (np.linalg.eigvals(A).real.max() + 0.5) * np.eye(d)
    extra = {}
    if non_autonomous:
        extra = dict(a1=rng.uniform(-1.0, 1.0, d), b1=rng.uniform(-1.0, 1.0, (1, d)))
    sde = LinearSde(d=d, m=1, A=A, a0=rng.uniform(-1.0, 1.0, d),
                    B=rng.uniform(-1.0, 1.0, (1, d, d)) / np.sqrt(d),
                    b0=rng.uniform(-1.0, 1.0, (1, d)), **extra)
    m0 = rng.uniform(-1.0, 1.0, d)
    G = rng.uniform(-1.0, 1.0, (d, d))
    P0 = 0.5 * (G @ G.T) + np.outer(m0, m0)
    return sde, MomentState(m0=m0, P0=(P0 + P0.T) / 2.0)


def best_of(fn, sde, reps=5):
    """Best time of fn(model) in ms, and its result, over fresh copies of sde.

    assemble reuses the system of the model it was last given, so each
    call gets a new model object and times a cold evaluation.
    """
    times = []
    for _ in range(reps):
        model = dataclasses.replace(sde)
        start = time.perf_counter()
        result = fn(model)
        times.append(time.perf_counter() - start)
    return min(times) * 1e3, result


def agreement(got, want):
    """Largest moment difference relative to the largest dense moment."""
    scale = max(np.abs(want.secmom).max(), np.abs(want.mean).max())
    return max(np.abs(got.secmom - want.secmom).max(),
               np.abs(got.mean - want.mean).max()) / scale


def systems(rng, d):
    """Hilbert and random-stable systems in both vector formulations."""
    hilbert = hilbert_systems(d)
    for system in ("hilbert", "random"):
        for label, index in (("non_autonomous", 0), ("autonomous", 1)):
            if system == "hilbert":
                sde, state = hilbert[index][1:]
            else:
                sde, state = random_stable(rng, d, index == 0)
            yield system, label, sde, state


def table(title, dims, run):
    """Time run(sde, state, tau, options) on both routes over dims."""
    rng = np.random.default_rng(2012)
    print(f"\n{title}, limit n = {_DENSE_LIMIT}")
    print("system  formulation     d    n   tau   dense ms  action ms  "
          "agreement  default")
    for d in dims:
        for system, label, sde, state in systems(rng, d):
            n = assemble(sde, state).n
            for tau in (1.0, 10.0):
                dense_ms, dense = best_of(
                    lambda model: run(model, state, tau, DENSE), sde)
                action_ms, action = best_of(
                    lambda model: run(model, state, tau, ACTION), sde)
                route = "action" if n > _DENSE_LIMIT else "dense"
                print(f"{system:7s} {label:15s} {d:2d} {n:4d} {tau:5.0f} "
                      f"{dense_ms:9.2f} {action_ms:10.2f} "
                      f"{agreement(action, dense):10.1e}  {route}")


def basis_size(aug, tau):
    """Krylov vectors the action takes: one product of M per vector."""
    products = []

    def counted(x):
        products.append(None)
        return aug.apply(x)

    expm_action(counted, aug.u, tau)
    return len(products)


def large_table(d):
    """Default route, action only, on the Hilbert systems of dimension d."""
    print(f"\nmoments_at at t0 + tau, default route at d = {d}, no dense "
          f"comparison")
    print("system  formulation     d    n   tau  action ms  basis")
    for label, index in (("non_autonomous", 0), ("autonomous", 1)):
        sde, state = hilbert_systems(d)[index][1:]
        aug = assemble(sde, state)
        for tau in (1.0, 10.0):
            ms, _ = best_of(lambda model: moments_at(model, state, model.t0 + tau),
                            sde)
            print(f"hilbert {label:15s} {d:2d} {aug.n:4d} {tau:5.0f} "
                  f"{ms:10.2f} {basis_size(aug, tau):6d}")


print(f"BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}")
table("moments_at at t0 + tau", range(6, 17),
      lambda sde, state, tau, options:
      moments_at(sde, state, sde.t0 + tau, options))
table("propagate_grid, 20 steps to t0 + tau (last grid time)", range(10, 17),
      lambda sde, state, tau, options:
      propagate_grid(sde, state, tau / 20, 20, options)[-1])
large_table(40)
