"""Reference moments computed apart from the package under test.

By Ito's formula a linear SDE dx = (A x + a0 + a1 t) dt
+ sum_i (B_i x + b_{i,0} + b_{i,1} t) dw_i has moments that obey

    dm/dt = A m + a(t)
    dP/dt = A P + P A^T + sum_i B_i P B_i^T + a(t) m^T + m a(t)^T
            + sum_i (B_i m b_i(t)^T + b_i(t) m^T B_i^T + b_i(t) b_i(t)^T).

The right-hand side is linear in z = (vec P, m, t m, t^2, t, 1), which is
closed under d/dt, so z(t) = expm(G (t - t0)) z(t0) for the constant
generator G read off the right-hand side column by column. The
exponential is scipy's. Nothing here imports ``sdemoments``.

Run as a script, it writes the references of one workload's cases as an
``.npz`` archive to standard output:

    python3 momentbench/reference.py --workload sysid_fit --seed 1
"""

from __future__ import annotations

import argparse
import io
import sys

import numpy as np
import scipy.linalg

from inputs import WORKLOADS, cases_for


def moment_rhs(spec: dict, z: np.ndarray) -> np.ndarray:
    """d z / dt for z = (vec P, m, t m, t^2, t, 1), vec stacking columns."""
    d = spec["d"]
    dd = d * d
    P = z[:dd].reshape(d, d, order="F")
    mean, tm = z[dd:dd + d], z[dd + d:dd + 2 * d]
    tsq, t, one = z[-3:]
    A, a0, a1 = spec["A"], spec["a0"], spec["a1"]

    dmean = A @ mean + a0 * one + a1 * t
    dtm = mean + A @ tm + a0 * t + a1 * tsq
    a_m = np.outer(a0, mean) + np.outer(a1, tm)  # a(t) m^T
    dP = A @ P + P @ A.T + a_m + a_m.T
    for B, b0, b1 in zip(spec["B"], spec["b0"], spec["b1"]):
        bm = np.outer(B @ mean, b0) + np.outer(B @ tm, b1)  # B m b(t)^T
        bb = (np.outer(b0, b0) * one + (np.outer(b0, b1) + np.outer(b1, b0)) * t
              + np.outer(b1, b1) * tsq)  # b(t) b(t)^T
        dP = dP + B @ P @ B.T + bm + bm.T + bb
    return np.concatenate([dP.reshape(-1, order="F"), dmean, dtm,
                           [2.0 * t, one, 0.0]])


def generator(spec: dict) -> np.ndarray:
    """The constant matrix G with d z / dt = G z."""
    n = spec["d"] ** 2 + 2 * spec["d"] + 3
    eye = np.eye(n)
    return np.column_stack([moment_rhs(spec, eye[:, j]) for j in range(n)])


def initial_z(spec: dict) -> np.ndarray:
    t0 = spec["t0"]
    return np.concatenate([spec["P0"].reshape(-1, order="F"), spec["m0"],
                           t0 * spec["m0"], [t0 * t0, t0, 1.0]])


def reference_moments(spec: dict, times) -> tuple[np.ndarray, np.ndarray, float]:
    """Means (T, d), second moments (T, d, d) at ``times`` and the 1-norm of G."""
    d = spec["d"]
    dd = d * d
    G = generator(spec)
    z0 = initial_z(spec)
    means, secmoms = [], []
    for t in times:
        z = scipy.linalg.expm(G * (t - spec["t0"])) @ z0
        means.append(z[dd:dd + d])
        secmoms.append(z[:dd].reshape(d, d, order="F"))
    return np.array(means), np.array(secmoms), float(np.linalg.norm(G, 1))


def workload_references(workload: str, seed: int) -> dict[str, np.ndarray]:
    """Archive entries ``<case>.mean``, ``<case>.secmom`` and ``<case>.gnorm``."""
    out = {}
    for i, case in enumerate(cases_for(workload, seed)):
        mean, secmom, gnorm = reference_moments(case.spec, case.ref_times())
        out[f"{i}.mean"], out[f"{i}.secmom"] = mean, secmom
        out[f"{i}.gnorm"] = np.array(gnorm)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    buffer = io.BytesIO()
    np.savez(buffer, **workload_references(args.workload, args.seed))
    sys.stdout.buffer.write(buffer.getvalue())
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
