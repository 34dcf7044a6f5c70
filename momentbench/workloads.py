"""The timed operations of each case and the checks of their results.

Importing this module puts the checkout's ``src`` first on ``sys.path``
and imports ``sdemoments`` from there; without the sources it raises
ImportError rather than measure some other installed copy.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from types import SimpleNamespace

from inputs import MC_SEED, ROOT, Case, model_json

SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "sdemoments", "__init__.py")):
    raise ImportError(f"no sdemoments sources under {SRC}")
sys.path.insert(0, SRC)

import sdemoments  # noqa: E402
from sdemoments import cli  # noqa: E402

import checks  # noqa: E402

if os.path.dirname(os.path.abspath(sdemoments.__file__)) != os.path.join(SRC, "sdemoments"):
    raise ImportError(f"sdemoments imported from {sdemoments.__file__}, not {SRC}")


def model_path(case: Case, scratch: str) -> str:
    """The model file a CLI case reads: a demo file, or one in ``scratch``."""
    return case.params.get("path") or os.path.join(scratch, case.params["file"])


def write_model_files(cases: list[Case], scratch: str) -> None:
    """Write the random models of CLI cases as JSON model files."""
    for case in cases:
        if "file" in case.params:
            with open(model_path(case, scratch), "w", encoding="utf-8") as handle:
                handle.write(model_json(case.spec))


def build_model(spec: dict):
    """A fresh (LinearSde, MomentState) pair, validated by the package."""
    sde = sdemoments.LinearSde(d=spec["d"], m=spec["m"], A=spec["A"],
                               a0=spec["a0"], a1=spec["a1"], B=spec["B"],
                               b0=spec["b0"], b1=spec["b1"], t0=spec["t0"])
    return sde, sdemoments.MomentState(m0=spec["m0"], P0=spec["P0"])


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


def run_case(case: Case, scratch: str):
    """Perform one operation; what it returns is checked by :func:`check_case`."""
    p = case.params
    if case.op == "engine":
        sde, state = build_model(case.spec)
        direct = [sdemoments.moments_at(sde, state, t) for t in case.times]
        grid = (sdemoments.propagate_grid(sde, state, *case.grid)
                if case.grid else [])
        return direct, grid
    if case.op == "cli_validate":
        return _cli(["validate", model_path(case, scratch), "--t", repr(case.times[0]),
                     "--rk4-steps", str(p["rk4_steps"]), "--paths", str(p["paths"]),
                     "--mc-steps", str(p["mc_steps"]), "--seed", str(MC_SEED)])
    if case.op == "cli_moments":
        csv_path = os.path.join(scratch, "moments.csv")
        code, _ = _cli(["moments", model_path(case, scratch), "--secmom",
                        "--t", ",".join(repr(t) for t in case.times),
                        "--csv", csv_path])
        with open(csv_path, "r", encoding="utf-8") as handle:
            return code, handle.read()
    sde, state = build_model(case.spec)
    if case.op == "rk4":
        return sdemoments.rk4_moments(sde, state, case.times[0], p["n_steps"])
    if case.op == "mc":
        config = sdemoments.McConfig(n_paths=p["n_paths"], n_steps=p["n_steps"],
                                     seed=MC_SEED)
        return sdemoments.euler_maruyama_mc(sde, state, case.times[0], config)
    raise ValueError(f"unknown operation {case.op!r}")


def check_case(case: Case, outcome, ref: dict) -> list[str]:
    """Every check of one operation's results; empty when all pass.

    ``ref`` holds the case's reference ``mean`` (T, d), ``secmom``
    (T, d, d) at ``case.ref_times()`` and the generator norm ``gnorm``.
    """
    index = {t: i for i, t in enumerate(case.ref_times())}

    def at(t):
        return ref["mean"][index[t]], ref["secmom"][index[t]]

    found = []
    if case.op == "engine":
        direct, grid = outcome
        for t, res in zip(case.times, direct):
            found += checks.check_moments(res, t, *at(t))
        for t, res in zip(case.grid_times(), grid):
            found += checks.check_moments(res, t, *at(t))
        if len(grid) != len(case.grid_times()):
            found.append(f"grid has {len(grid)} points, not {len(case.grid_times())}")
        by_time = dict(zip(case.times, direct))
        for t, res in zip(case.grid_times(), grid):
            if t in by_time:
                found.append(checks.check_flow(res, by_time[t]))
    elif case.op == "cli_validate":
        found.append(checks.check_validate_output(*outcome))
    elif case.op == "cli_moments":
        code, text = outcome
        if code != 0:
            found.append(f"moments exited {code}")
        try:
            rows = checks.parse_csv(text, case.spec["d"])
        except ValueError as exc:
            return [f"{case.label}: {exc}"]
        if len(rows) != len(case.times):
            found.append(f"CSV has {len(rows)} rows, not {len(case.times)}")
        for want, (t, mean, variance, secmom) in zip(case.times, rows):
            row = SimpleNamespace(t=t, mean=mean, secmom=secmom, variance=variance)
            found += checks.check_moments(row, want, *at(want))
    elif case.op == "rk4":
        t = case.times[0]
        found.append(checks.check_rk4(outcome, t, case.spec["t0"],
                                      case.params["n_steps"], float(ref["gnorm"]),
                                      *at(t), case.spec["m0"], case.spec["P0"]))
        found += [checks.check_label(outcome.t, t),
                  checks.check_symmetric(outcome.secmom),
                  checks.check_psd(outcome.variance, outcome.secmom)]
    elif case.op == "mc":
        found.append(checks.check_mc(outcome, *at(case.times[0])))
        found.append(checks.check_symmetric(outcome.secmom))
    return [f"{case.label}: {f}" for f in found if f]
