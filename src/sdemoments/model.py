"""Linear SDE model containers, classification and the JSON model-file format.

The equation described by :class:`LinearSde` is

    dx = (A x + a0 + a1 t) dt + sum_i (B_i x + b_{i,0} + b_{i,1} t) dw_i

with d state dimensions and m independent scalar Wiener channels.
:class:`MomentState` carries the initial mean m0 = E[x(t0)] and initial
second moment P0 = E[x(t0) x(t0)^T].
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SdeClass",
    "LinearSde",
    "MomentState",
    "ModelError",
    "classify",
    "parse_model",
    "load_model",
    "serialize_model",
]

#: relative symmetry tolerance of P0
_SYMMETRY_RTOL = 1e-12
#: absolute eigenvalue slack when checking that P0 - m0 m0^T is PSD
_PSD_SLACK = 1e-10

_MODEL_FIELDS = ("d", "m", "t0", "A", "a0", "a1", "B", "b0", "b1", "m0", "P0")
_OPTIONAL_FIELDS = ("a1", "b1", "B")


class ModelError(ValueError):
    """Invalid model data; ``path`` locates the offending field."""

    def __init__(self, message: str, path: str | None = None):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class SdeClass(enum.Enum):
    """Structural class of a linear SDE, deciding which formulation applies."""

    NON_AUTONOMOUS = "non_autonomous"
    AUTONOMOUS_MULTIPLICATIVE = "autonomous_multiplicative"
    AUTONOMOUS_ADDITIVE = "autonomous_additive"


def _check(condition: bool, message: str, path: str | None = None) -> None:
    if not condition:
        raise ModelError(message, path)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _finite(a: np.ndarray, name: str) -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise ModelError("contains non-finite entries", name)
    return a


@dataclass(frozen=True)
class LinearSde:
    """Coefficients of a linear SDE, immutable after construction.

    Attributes
    ----------
    d : int
        State dimension (>= 1).
    m : int
        Number of Wiener channels (>= 0).
    A : (d, d) ndarray
        State matrix of the drift.
    a0, a1 : (d,) ndarray
        Constant and slope of the affine drift forcing a(t) = a0 + a1*t.
    B : (m, d, d) ndarray
        State matrices of the diffusion channels.
    b0, b1 : (m, d) ndarray
        Constant and slope of each channel's forcing b_i(t) = b_{i,0} + b_{i,1}*t.
    t0 : float
        Initial time the moment propagation anchors at.
    """

    d: int
    m: int
    A: np.ndarray
    a0: np.ndarray
    a1: np.ndarray = None
    B: np.ndarray = None
    b0: np.ndarray = None
    b1: np.ndarray = None
    t0: float = 0.0

    def __post_init__(self):
        _check(isinstance(self.d, (int, np.integer)) and self.d >= 1,
               f"d must be an integer >= 1, got {self.d!r}", "d")
        _check(isinstance(self.m, (int, np.integer)) and self.m >= 0,
               f"m must be an integer >= 0, got {self.m!r}", "m")
        d, m = int(self.d), int(self.m)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "m", m)
        t0 = float(self.t0)
        _check(np.isfinite(t0), "t0 must be finite", "t0")
        object.__setattr__(self, "t0", t0)

        def arr(value, shape, name):
            out = np.zeros(shape) if value is None else np.array(value, dtype=float)
            _check(out.shape == shape,
                   f"expected shape {shape}, got {out.shape}", name)
            return _freeze(_finite(out, name))

        object.__setattr__(self, "A", arr(self.A, (d, d), "A"))
        object.__setattr__(self, "a0", arr(self.a0, (d,), "a0"))
        object.__setattr__(self, "a1", arr(self.a1, (d,), "a1"))
        object.__setattr__(self, "B", arr(self.B, (m, d, d), "B"))
        object.__setattr__(self, "b0", arr(self.b0, (m, d), "b0"))
        object.__setattr__(self, "b1", arr(self.b1, (m, d), "b1"))

    def drift_forcing(self, t: float) -> np.ndarray:
        """a(t) = a0 + a1 * t."""
        return self.a0 + self.a1 * t

    def noise_forcing(self, t: float) -> np.ndarray:
        """All channel forcings b_i(t) = b_{i,0} + b_{i,1} * t, stacked (m, d)."""
        return self.b0 + self.b1 * t


@dataclass(frozen=True)
class MomentState:
    """Initial mean and second moment, validated for consistency.

    ``P0`` must be symmetric to relative precision 1e-12 and the implied
    covariance P0 - m0 m0^T must be positive semidefinite within an
    absolute eigenvalue slack of -1e-10.
    """

    m0: np.ndarray
    P0: np.ndarray
    d: int = field(init=False)

    def __post_init__(self):
        m0 = np.array(self.m0, dtype=float)
        _check(m0.ndim == 1 and m0.shape[0] >= 1,
               f"m0 must be 1-d, got shape {m0.shape}", "m0")
        _finite(m0, "m0")
        d = m0.shape[0]
        P0 = np.array(self.P0, dtype=float)
        _check(P0.shape == (d, d),
               f"expected shape {(d, d)}, got {P0.shape}", "P0")
        _finite(P0, "P0")

        asym = np.abs(P0 - P0.T).max()
        scale = max(np.abs(P0).max(), 1.0)
        _check(asym <= _SYMMETRY_RTOL * scale,
               f"not symmetric: max asymmetry {asym:.3e} exceeds "
               f"{_SYMMETRY_RTOL:g} relative", "P0")

        cov = P0 - np.outer(m0, m0)
        min_eig = float(np.linalg.eigvalsh((cov + cov.T) / 2.0).min())
        _check(min_eig >= -_PSD_SLACK,
               f"P0 - m0 m0^T is not positive semidefinite "
               f"(min eigenvalue {min_eig:.3e})", "P0")

        object.__setattr__(self, "m0", _freeze(m0))
        object.__setattr__(self, "P0", _freeze(P0))
        object.__setattr__(self, "d", d)

    def covariance(self) -> np.ndarray:
        """P0 - m0 m0^T."""
        return self.P0 - np.outer(self.m0, self.m0)


def classify(sde: LinearSde) -> SdeClass:
    """Classify a model by which coefficients vanish.

    A model is autonomous when a1 and every b_{i,1} are exactly zero; an
    autonomous model is additive when every B_i is too. Everything else
    is non-autonomous. A noise-free model (m = 0) is autonomous additive
    unless a1 is nonzero.
    """
    if np.any(sde.a1) or np.any(sde.b1):
        return SdeClass.NON_AUTONOMOUS
    if not np.any(sde.B):
        return SdeClass.AUTONOMOUS_ADDITIVE
    return SdeClass.AUTONOMOUS_MULTIPLICATIVE


# ---------------------------------------------------------------------------
# JSON model files


def _require_number(node, path: str) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ModelError(f"expected a number, got {type(node).__name__}", path)
    value = float(node)
    if not np.isfinite(value):
        raise ModelError("number is not finite", path)
    return value


def _require_int(node, path: str) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise ModelError(f"expected an integer, got {type(node).__name__}", path)
    return node


def _require_list(node, length: int, path: str) -> list:
    if not isinstance(node, list):
        raise ModelError(f"expected an array, got {type(node).__name__}", path)
    if len(node) != length:
        raise ModelError(f"expected length {length}, got {len(node)}", path)
    return node


def _parse_vector(node, n: int, path: str) -> list[float]:
    return [_require_number(x, f"{path}[{i}]")
            for i, x in enumerate(_require_list(node, n, path))]


def _parse_matrix(node, rows: int, cols: int, path: str) -> list[list[float]]:
    return [_parse_vector(row, cols, f"{path}[{i}]")
            for i, row in enumerate(_require_list(node, rows, path))]


def parse_model(text: str) -> tuple[LinearSde, MomentState]:
    """Parse a JSON model file into a validated (LinearSde, MomentState) pair.

    The document is one object with fields d, m, t0, A (row-major nested
    arrays), a0, a1, B (array of m matrices), b0, b1 (arrays of m vectors),
    m0 and P0. Omitted a1 / b1 / B default to zeros; everything else is
    required. Unknown fields, wrong shapes and non-finite numbers are
    rejected with a field-path diagnostic.

    Raises
    ------
    ModelError
        On any syntactic or semantic violation.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelError(f"top level must be an object, got {type(doc).__name__}")

    for key in doc:
        if key not in _MODEL_FIELDS:
            raise ModelError("unknown field", key)
    for key in _MODEL_FIELDS:
        if key not in doc and key not in _OPTIONAL_FIELDS:
            raise ModelError(f"missing required field '{key}'")

    d = _require_int(doc["d"], "d")
    m = _require_int(doc["m"], "m")
    if d < 1:
        raise ModelError(f"must be >= 1, got {d}", "d")
    if m < 0:
        raise ModelError(f"must be >= 0, got {m}", "m")

    t0 = _require_number(doc["t0"], "t0")
    a_mat = _parse_matrix(doc["A"], d, d, "A")
    a0 = _parse_vector(doc["a0"], d, "a0")
    a1 = _parse_vector(doc["a1"], d, "a1") if "a1" in doc else [0.0] * d

    if "B" in doc:
        b_mats = [_parse_matrix(mat, d, d, f"B[{i}]")
                  for i, mat in enumerate(_require_list(doc["B"], m, "B"))]
    else:
        b_mats = [[[0.0] * d for _ in range(d)] for _ in range(m)]
    b0 = [_parse_vector(vec_, d, f"b0[{i}]")
          for i, vec_ in enumerate(_require_list(doc["b0"], m, "b0"))]
    if "b1" in doc:
        b1 = [_parse_vector(vec_, d, f"b1[{i}]")
              for i, vec_ in enumerate(_require_list(doc["b1"], m, "b1"))]
    else:
        b1 = [[0.0] * d for _ in range(m)]

    m0 = _parse_vector(doc["m0"], d, "m0")
    p0 = _parse_matrix(doc["P0"], d, d, "P0")

    b_shape = np.asarray(b_mats, dtype=float).reshape((m, d, d))
    b0_shape = np.asarray(b0, dtype=float).reshape((m, d))
    b1_shape = np.asarray(b1, dtype=float).reshape((m, d))
    sde = LinearSde(d=d, m=m, A=a_mat, a0=a0, a1=a1,
                    B=b_shape, b0=b0_shape, b1=b1_shape, t0=t0)
    state = MomentState(m0=m0, P0=p0)
    return sde, state


def load_model(path) -> tuple[LinearSde, MomentState]:
    """Read and parse a JSON model file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_model(handle.read())


def serialize_model(sde: LinearSde, state: MomentState) -> str:
    """Render a model as JSON text that :func:`parse_model` reproduces bitwise."""
    doc = {
        "d": sde.d,
        "m": sde.m,
        "t0": sde.t0,
        "A": sde.A.tolist(),
        "a0": sde.a0.tolist(),
        "a1": sde.a1.tolist(),
        "B": sde.B.tolist(),
        "b0": sde.b0.tolist(),
        "b1": sde.b1.tolist(),
        "m0": state.m0.tolist(),
        "P0": state.P0.tolist(),
    }
    return json.dumps(doc, indent=2)
