"""Checks that every timed result must pass.

Each check returns ``None`` when the result passes and a one-line reason
when it does not. Tolerances are fixed here, not fitted to today's
output: the engine and the reference agree to about 1e-12, so the
normwise bound leaves three orders of magnitude for rounding on harder
inputs while still rejecting any error a user could notice.
"""

from __future__ import annotations

import numpy as np

#: normwise relative error of (mean, second moment) against the reference
NORMWISE_TOL = 1e-9
#: grid point against the direct evaluation at the same time
FLOW_TOL = 1e-10
#: asymmetry of the second moment, relative to its largest entry
SYMMETRY_TOL = 64 * np.finfo(float).eps
#: smallest variance eigenvalue, relative to the largest second-moment entry
PSD_TOL = 1e-9
#: RK4 error constant: error <= RK4_SAFETY * tau |G| (h |G|)^4 / 120
RK4_SAFETY = 10.0
#: Monte Carlo band in standard errors (5 sigma: about 6e-7 per component)
MC_SIGMAS = 5.0


def _stack(mean, secmom) -> np.ndarray:
    return np.concatenate([np.ravel(mean), np.ravel(secmom)])


def normwise_error(mean, secmom, ref_mean, ref_secmom) -> float:
    """||(mean, P) - (mean_ref, P_ref)||_2 / ||(mean_ref, P_ref)||_2."""
    ref = _stack(ref_mean, ref_secmom)
    err = np.linalg.norm(_stack(mean, secmom) - ref)
    return float(err / max(np.linalg.norm(ref), np.finfo(float).tiny))


def check_reference(mean, secmom, ref_mean, ref_secmom) -> str | None:
    err = normwise_error(mean, secmom, ref_mean, ref_secmom)
    if not err <= NORMWISE_TOL:
        return (f"normwise error {err:.3e} against the reference exceeds "
                f"{NORMWISE_TOL:g}")
    return None


def check_label(got, want: float) -> str | None:
    if got != want:
        return f"time label {got!r} differs from the requested {want!r}"
    return None


def check_symmetric(secmom) -> str | None:
    secmom = np.asarray(secmom)
    scale = max(float(np.abs(secmom).max()), 1.0)
    defect = float(np.abs(secmom - secmom.T).max())
    if not defect <= SYMMETRY_TOL * scale:
        return f"second moment asymmetric by {defect:.3e}"
    return None


def check_psd(variance, secmom) -> str | None:
    variance = np.asarray(variance)
    scale = max(float(np.abs(secmom).max()), 1.0)
    lowest = float(np.linalg.eigvalsh((variance + variance.T) / 2.0).min())
    if not lowest >= -PSD_TOL * scale:
        return f"variance eigenvalue {lowest:.3e} below -{PSD_TOL:g} x {scale:.3g}"
    return None


def check_moments(result, t: float, ref_mean, ref_secmom) -> list[str]:
    """Label, reference, symmetry and PSD checks of one MomentResult."""
    found = [check_label(result.t, t),
             check_reference(result.mean, result.secmom, ref_mean, ref_secmom),
             check_symmetric(result.secmom),
             check_psd(result.variance, result.secmom)]
    return [f for f in found if f]


def check_flow(grid_point, direct) -> str | None:
    """Grid point k against ``moments_at`` at the same time."""
    err = normwise_error(grid_point.mean, grid_point.secmom,
                         direct.mean, direct.secmom)
    if not err <= FLOW_TOL:
        return f"grid point differs from the direct evaluation by {err:.3e}"
    return None


def rk4_bound(tau: float, n_steps: int, gnorm: float) -> float:
    """Relative global-error bound of RK4 on z' = G z over tau.

    Each step's local error is at most |h G|^5 / 120 times |z|; n_steps
    of them give tau |G| (h |G|)^4 / 120, widened by RK4_SAFETY.
    """
    h = tau / n_steps
    return RK4_SAFETY * tau * gnorm * (h * gnorm) ** 4 / 120.0 + 1e-12


def check_rk4(result, t: float, t0: float, n_steps: int, gnorm: float,
              ref_mean, ref_secmom, m0, P0) -> str | None:
    """RK4 within its O(h^4) bound, relative to the largest entry of z."""
    scale = max(1.0, t * t, abs(t), float(np.abs(_stack(ref_mean, ref_secmom)).max()),
                float(np.abs(_stack(m0, P0)).max()))
    err = float(np.abs(_stack(result.mean, result.secmom)
                       - _stack(ref_mean, ref_secmom)).max()) / scale
    bound = rk4_bound(t - t0, n_steps, gnorm)
    if not err <= bound:
        return f"RK4 error {err:.3e} exceeds its O(h^4) bound {bound:.3e}"
    return None


def check_mc(estimate, ref_mean, ref_secmom) -> str | None:
    """Every sample moment within MC_SIGMAS standard errors of the reference."""
    dev = np.abs(_stack(estimate.mean, estimate.secmom) - _stack(ref_mean, ref_secmom))
    band = MC_SIGMAS * _stack(estimate.stderr_mean, estimate.stderr_secmom) + 1e-12
    worst = float((dev / band).max())
    if not worst <= 1.0:
        return f"Monte Carlo off by {worst * MC_SIGMAS:.2f} standard errors"
    return None


def parse_csv(text: str, d: int) -> list[tuple[float, np.ndarray, np.ndarray, np.ndarray]]:
    """Rows (t, mean, variance, secmom) of ``sdemoments moments --csv --secmom``."""
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    expected = (["t"] + [f"mean_{i}" for i in range(d)]
                + [f"var_{i}_{j}" for i in range(d) for j in range(d)]
                + [f"secmom_{i}_{j}" for i in range(d) for j in range(d)])
    if header != expected:
        raise ValueError(f"unexpected CSV header {header!r}")
    rows = []
    for line in lines[1:]:
        vals = np.array([float(v) for v in line.split(",")])
        rows.append((float(vals[0]), vals[1:1 + d],
                     vals[1 + d:1 + d + d * d].reshape(d, d),
                     vals[1 + d + d * d:].reshape(d, d)))
    return rows


def check_validate_output(code: int, stdout: str) -> str | None:
    if code != 0 or "VALIDATION: PASS" not in stdout.splitlines():
        return f"validate exited {code} without 'VALIDATION: PASS'"
    return None
