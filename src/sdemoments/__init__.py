"""Exact first and second moments of linear SDEs via one matrix exponential.

The model is dx = (A x + a(t)) dt + sum_i (B_i x + b_i(t)) dw_i with
affine a(t) and b_i(t). The mean and second moment at any t >= t0 are
read off a single exponential of an augmented block matrix; see
:func:`moments_at`. Oracles (RK4, Monte Carlo), a multi-exponential
baseline, a benchmark harness, and a CLI round out the package.
"""

from .bench import BenchReport, BenchRow, hilbert_systems, run_bench
from .expm import (ExpmConvergenceError, ExpmError, ExpmOptions,
                   ExpmOverflowError, expm, expm_action)
from .kron import hilbert, kron, kron_sum, kron_sum_vec, unvec, vec
from .model import (Formulation, LinearSde, ModelError, MomentState, classify,
                    load_model, parse_model, serialize_model)
from .moments import (AugmentedSystem, MomentResult, assemble, moments_at,
                      moments_baseline, propagate_grid)
from .oracle import (McConfig, McEstimate, euler_maruyama_mc, moment_ode_rhs,
                     rk4_moments)

__version__ = "0.1.0"

__all__ = [
    "LinearSde", "MomentState", "ModelError",
    "Formulation", "classify", "parse_model", "load_model", "serialize_model",
    "AugmentedSystem", "MomentResult",
    "assemble", "moments_at", "propagate_grid", "moments_baseline",
    "ExpmOptions", "ExpmError", "ExpmOverflowError", "ExpmConvergenceError",
    "expm", "expm_action",
    "kron", "kron_sum", "kron_sum_vec", "vec", "unvec", "hilbert",
    "McConfig", "McEstimate", "moment_ode_rhs", "rk4_moments",
    "euler_maruyama_mc",
    "BenchRow", "BenchReport", "hilbert_systems", "run_bench",
    "__version__",
]
