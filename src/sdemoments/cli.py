"""Command line front end: compute, validate, and benchmark moments.

Exit codes: 0 success, 1 computation or validation failure, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import bench as _bench
from . import moments as _moments
from .model import ModelError, load_model
from .oracle import McConfig, euler_maruyama_mc, rk4_moments

__all__ = ["main"]

_RK4_RTOL = 1e-6
_MC_SIGMAS = 3.0
_MC_FLOOR = 1e-12


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _print_matrix(name: str, mat: np.ndarray, indent: str = "  ") -> None:
    label = f"{indent}{name} = "
    pad = " " * len(label)
    for i, row in enumerate(mat):
        prefix = label if i == 0 else pad
        print(prefix + "  ".join(f"{v:>12.6g}" for v in row))


def _parse_t_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"--t expects a comma-separated list of numbers, "
                         f"got {text!r}") from None
    if not values:
        raise ValueError("--t is empty")
    return values


def cmd_moments(args) -> int:
    sde, state = load_model(args.model)
    t_values = _parse_t_list(args.t)
    results = [_moments.moments_at(sde, state, t) for t in t_values]

    for res in results:
        print(f"t = {_fmt(res.t)}")
        print("  mean     = " + "  ".join(f"{v:>12.6g}" for v in res.mean))
        _print_matrix("variance", res.variance)
        if args.secmom:
            _print_matrix("secmom  ", res.secmom)
        print()

    if args.csv:
        d = sde.d
        cols = (["t"] + [f"mean_{i}" for i in range(d)]
                + [f"var_{i}_{j}" for i in range(d) for j in range(d)])
        if args.secmom:
            cols += [f"secmom_{i}_{j}" for i in range(d) for j in range(d)]
        lines = [",".join(cols)]
        for res in results:
            vals = [res.t, *res.mean, *res.variance.ravel()]
            if args.secmom:
                vals += [*res.secmom.ravel()]
            lines.append(",".join("%.17g" % v for v in vals))
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        print(f"wrote {args.csv}")
    return 0


def _rel_err(approx: np.ndarray, ref: np.ndarray) -> float:
    scale = max(float(np.abs(ref).max()), _MC_FLOOR)
    return float(np.abs(approx - ref).max()) / scale


def cmd_validate(args) -> int:
    sde, state = load_model(args.model)
    t = args.t
    engine = _moments.moments_at(sde, state, t)
    reference = rk4_moments(sde, state, t, args.rk4_steps)

    checks = []
    for name, got, want in (("mean", engine.mean, reference.mean),
                            ("secmom", engine.secmom, reference.secmom)):
        err = _rel_err(got, want)
        ok = err <= _RK4_RTOL
        checks.append(ok)
        print(f"rk4 {name:7s} rel err {err:.3e}  (tol {_RK4_RTOL:g})  "
              f"{'PASS' if ok else 'FAIL'}")

    if args.paths:
        config = McConfig(n_paths=args.paths, n_steps=args.mc_steps,
                          seed=args.seed)
        mc = euler_maruyama_mc(sde, state, t, config)
        for name, got, sample, se in (
                ("mean", engine.mean, mc.mean, mc.stderr_mean),
                ("secmom", engine.secmom, mc.secmom, mc.stderr_secmom)):
            band = _MC_SIGMAS * se + _MC_FLOOR
            worst = float((np.abs(got - sample) / band).max())
            ok = worst <= 1.0
            checks.append(ok)
            print(f"mc  {name:7s} max |dev| / (3 se) = {worst:.3f}  "
                  f"({mc.n_paths} paths)  {'PASS' if ok else 'FAIL'}")

    passed = all(checks)
    print(f"VALIDATION: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"--dims expects a comma-separated list of integers, "
                         f"got {text!r}") from None
    if not dims:
        raise ValueError("--dims is empty")
    return dims


def cmd_bench(args) -> int:
    report = _bench.run_bench(dims=_parse_dims(args.dims), reps=args.reps)
    print(report.format_table())
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(report.to_csv())
        print(f"wrote {args.csv}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and kept."""
    parser = argparse.ArgumentParser(
        prog="sdemoments",
        description="First and second moments of linear SDEs via a single "
                    "matrix exponential.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_mom = sub.add_parser("moments", help="compute moments from a model file")
    p_mom.add_argument("model", help="path to a JSON model file")
    p_mom.add_argument("--t", required=True,
                       help="comma-separated evaluation times (each >= t0)")
    p_mom.add_argument("--csv", help="also write results to this CSV file")
    p_mom.add_argument("--secmom", action="store_true",
                       help="also print/export the second moment")
    p_mom.set_defaults(func=cmd_moments)

    p_val = sub.add_parser("validate",
                           help="check the engine against RK4 and Monte Carlo")
    p_val.add_argument("model", help="path to a JSON model file")
    p_val.add_argument("--t", type=float, required=True,
                       help="evaluation time (>= t0)")
    p_val.add_argument("--rk4-steps", type=int, default=10000,
                       help="RK4 step count (default 10000)")
    p_val.add_argument("--paths", type=int, default=0,
                       help="Monte Carlo path count (0 disables MC)")
    p_val.add_argument("--mc-steps", type=int, default=1000,
                       help="Euler-Maruyama steps (default 1000)")
    p_val.add_argument("--seed", type=int, default=20260819,
                       help="Monte Carlo seed")
    p_val.set_defaults(func=cmd_validate)

    p_ben = sub.add_parser("bench",
                           help="time the single-exponential route against "
                                "the multi-exponential baseline")
    p_ben.add_argument("--dims", default="2,8",
                       help="comma-separated dimensions (default 2,8)")
    p_ben.add_argument("--reps", type=int, default=7,
                       help="timing repetitions per case (default 7)")
    p_ben.add_argument("--csv", help="also write the report to this CSV file")
    p_ben.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ModelError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
