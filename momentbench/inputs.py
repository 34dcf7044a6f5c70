"""Seeded inputs of the benchmark workloads, made with numpy alone.

The timed process and the reference process each rebuild the same cases
from (workload, seed), so nothing but the seed passes between them. A
model ``spec`` is a dict with the fields of the JSON model format (d, m,
t0, A, a0, a1, B, b0, b1, m0, P0) as float arrays.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMO_DIR = os.path.join(ROOT, "demos", "models")
DEMO_MODELS = ("ou.json", "gbm.json", "hilbert4_nonautonomous.json")

KINDS = ("non_autonomous", "autonomous_multiplicative", "autonomous_additive")

#: Monte Carlo seed of every oracle run, fixed independently of --seed
MC_SEED = 20260819


@dataclass(frozen=True)
class Case:
    """One operation of a pass and the times its results are checked at.

    ``op`` is one of ``engine`` (build the model, ``moments_at`` at each of
    ``times`` and ``propagate_grid`` over ``grid``), ``cli_validate``,
    ``cli_moments``, ``rk4`` and ``mc``. ``params`` holds the step and path
    counts of the oracle and CLI operations.
    """

    op: str
    label: str
    spec: dict
    times: tuple[float, ...]
    grid: tuple[float, int] | None = None
    params: dict = field(default_factory=dict)

    def grid_times(self) -> list[float]:
        if self.grid is None:
            return []
        step, n_steps = self.grid
        # the same arithmetic propagate_grid labels its points with
        t0 = float(self.spec["t0"])
        return [t0 + k * step for k in range(1, n_steps + 1)]

    def ref_times(self) -> list[float]:
        """Every time a result of this case is checked at, sorted, unique."""
        return sorted(set(self.times) | set(self.grid_times()))


def make_spec(d, m, t0, A, a0, a1, B, b0, b1, m0, P0) -> dict:
    """A model spec from array-likes, reshaped to the declared d and m."""
    as_f = lambda x: np.asarray(x, dtype=float)  # noqa: E731
    return {"d": d, "m": m, "t0": float(t0), "A": as_f(A), "a0": as_f(a0),
            "a1": as_f(a1), "B": as_f(B).reshape(m, d, d),
            "b0": as_f(b0).reshape(m, d), "b1": as_f(b1).reshape(m, d),
            "m0": as_f(m0), "P0": as_f(P0)}


def random_stable(rng: np.random.Generator, d: int, kind: str, m: int) -> dict:
    """Random model of one class whose drift has spectral abscissa -0.5.

    Entries are uniform in [-1, 1]; the diffusion matrices are scaled by
    1/sqrt(d) so that the second moment stays bounded as d grows.
    """
    t0 = rng.uniform(-0.5, 0.5)
    A = rng.uniform(-1.0, 1.0, (d, d))
    A = A - (np.linalg.eigvals(A).real.max() + 0.5) * np.eye(d)
    a0 = rng.uniform(-1.0, 1.0, d)
    b0 = rng.uniform(-1.0, 1.0, (m, d))
    zero_vec, zero_b = np.zeros(d), np.zeros((m, d))
    B = np.zeros((m, d, d))
    a1, b1 = zero_vec, zero_b
    if kind != "autonomous_additive":
        B = rng.uniform(-1.0, 1.0, (m, d, d)) / np.sqrt(d)
    if kind == "non_autonomous":
        a1 = rng.uniform(-1.0, 1.0, d)
        b1 = rng.uniform(-1.0, 1.0, (m, d))
    m0 = rng.uniform(-1.0, 1.0, d)
    G = rng.uniform(-1.0, 1.0, (d, d))
    P0 = 0.5 * (G @ G.T) + np.outer(m0, m0)
    return make_spec(d, m, t0, A, a0, a1, B, b0, b1, m0, (P0 + P0.T) / 2.0)


def hilbert_spec(d: int, kind: str) -> dict:
    """The Hilbert test system of one class: A = -H, B = H, m0 = 1, P0 = 1 1^T."""
    idx = np.arange(d)
    H = 1.0 / (idx[:, None] + idx[None, :] + 1.0)
    ones, zeros = np.ones(d), np.zeros(d)
    B = np.zeros((1, d, d)) if kind == "autonomous_additive" else H[None]
    a1 = ones if kind == "non_autonomous" else zeros
    b0 = ones[None] if kind == "autonomous_additive" else zeros[None]
    return make_spec(d, 1, 0.0, -H, zeros, a1, B, b0, zeros[None], ones,
                 np.outer(ones, ones))


def load_spec(path: str) -> dict:
    """Read a JSON model file with the json module alone."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    d, m = doc["d"], doc["m"]
    return make_spec(d, m, doc["t0"], doc["A"], doc["a0"],
                 doc.get("a1", [0.0] * d), doc.get("B", np.zeros((m, d, d))),
                 doc["b0"], doc.get("b1", np.zeros((m, d))),
                 doc["m0"], doc["P0"])


def model_json(spec: dict) -> str:
    """The spec as a JSON model file."""
    doc = {key: (value.tolist() if isinstance(value, np.ndarray) else value)
           for key, value in spec.items()}
    return json.dumps(doc)


def sysid_fit(seed: int) -> list[Case]:
    """Models as an optimiser visits them: d = 1..6, every class, m = 1..2.

    Each is observed at two irregular times within two time constants and
    at the end of a 20-step sampling grid, whose last point the flow check
    compares with the direct evaluation.
    """
    rng = np.random.default_rng([seed, 1])
    cases = []
    for d in range(1, 7):
        for kind in KINDS:
            for m in (1, 2):
                spec = random_stable(rng, d, kind, m)
                step = float(rng.uniform(0.1, 0.2))
                n_steps = 20
                t0 = spec["t0"]
                observed = sorted(t0 + rng.uniform(0.05, 4.0, 2))
                times = (*observed, t0 + n_steps * step)
                cases.append(Case("engine", f"{kind} d={d} m={m}", spec,
                                  times, (step, n_steps)))
    return cases


def large_state(seed: int) -> list[Case]:
    """Hilbert and random-stable systems at d = 8..24, n from 74 to 631.

    Non-autonomous and autonomous-multiplicative only; each is evaluated at
    tau = 1 and tau = 10, and at d >= 20 along a two-step grid ending at
    tau = 1.
    """
    rng = np.random.default_rng([seed, 2])
    cases = []
    for d in (8, 12, 16, 20, 24):
        for kind in KINDS[:2]:
            for system in ("hilbert", "random"):
                spec = (hilbert_spec(d, kind) if system == "hilbert"
                        else random_stable(rng, d, kind, 1))
                t0 = spec["t0"]
                grid = (0.5, 2) if d >= 20 else None
                cases.append(Case("engine", f"{system} {kind} d={d}", spec,
                                  (t0 + 1.0, t0 + 10.0), grid))
    return cases


def validate_oracles(seed: int) -> list[Case]:
    """The demo model files and small random models through CLI and oracles.

    A random model's ``file`` param names the model file the caller writes
    into its scratch directory. Monte Carlo through ``validate`` runs
    on the demo models only: its pass/fail is a fixed 3-sigma test, which
    on models that change with the seed would itself vary with the seed.
    """
    rng = np.random.default_rng([seed, 3])
    cases = []
    for name in DEMO_MODELS:
        path = os.path.join(DEMO_DIR, name)
        spec = load_spec(path)
        t0 = spec["t0"]
        cases.append(Case("cli_validate", f"validate {name}", spec, (t0 + 1.0,),
                          params={"path": path, "rk4_steps": 100,
                                  "paths": 1000, "mc_steps": 100}))
        cases.append(Case("cli_moments", f"moments {name}", spec,
                          (t0 + 0.5, t0 + 1.0, t0 + 2.0), params={"path": path}))
    for d, kind, m in ((2, "non_autonomous", 1),
                       (3, "autonomous_multiplicative", 2)):
        spec = random_stable(rng, d, kind, m)
        t0 = spec["t0"]
        name = f"random {kind} d={d}"
        params = {"file": f"random_{d}.json"}
        cases.append(Case("cli_validate", f"validate {name}", spec, (t0 + 1.0,),
                          params={**params, "rk4_steps": 100, "paths": 0,
                                  "mc_steps": 1}))
        cases.append(Case("cli_moments", f"moments {name}", spec,
                          (t0 + 0.5, t0 + 1.5), params=params))
        cases.append(Case("rk4", f"rk4 {name}", spec, (t0 + 1.0,),
                          params={"n_steps": 100}))
        cases.append(Case("mc", f"mc {name}", spec, (t0 + 0.5,),
                          params={"n_paths": 2000, "n_steps": 100}))
    return cases


WORKLOADS = {"sysid_fit": sysid_fit, "large_state": large_state,
             "validate_oracles": validate_oracles}


def cases_for(workload: str, seed: int) -> list[Case]:
    """The operations of one pass of a workload, made from its seed."""
    return WORKLOADS[workload](seed)
