"""On-disk JSON format for algebras, metrics and builder inputs.

An algebra file lists only the nonzero products, mirroring how the tables
are written: each row gives the pair (i, j) and the full coefficient
vector of e_i * e_j.  Floats are emitted with 17 significant digits so a
write/read cycle reproduces every double bit-for-bit; parsing is plain
stdlib json plus schema validation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .construct import LSPKData, MilnorSpec
from .core import AlgebraStructure
from .errors import DimensionMismatch, ParseError, SchemaError
from .forms import BilinearForm


@dataclass(frozen=True, eq=False)
class AlgebraFile:
    """Parsed contents of an algebra file."""

    algebra: AlgebraStructure
    metric: BilinearForm | None = None
    tolerance: float | None = None


def _fmt_float(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError(f"cannot serialize non-finite value {v}")
    # 17 significant digits round-trip IEEE doubles exactly
    out = format(float(v), ".17g")
    return out


def emit_json(obj, indent: int = 0) -> str:
    """Serialize to JSON with fixed float formatting.

    Containers are laid out one element per line at 2-space indentation,
    except leaf lists of numbers, which stay on one line.
    """
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f'{pad}  {json.dumps(k)}: {emit_json(v, indent + 1)}' for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        items = list(obj)
        if not items:
            return "[]"
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in items):
            return "[" + ", ".join(
                _fmt_float(v) if isinstance(v, float) else str(v) for v in items
            ) + "]"
        rows = [f"{pad}  {emit_json(v, indent + 1)}" for v in items]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, (int, str)) or obj is None:
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def render_algebra_file(
    A: AlgebraStructure,
    metric: BilinearForm | np.ndarray | None = None,
    tolerance: float | None = None,
) -> str:
    """Algebra file text for a structure, omitting all-zero products."""
    n = A.dim
    products = []
    for i in range(n):
        for j in range(n):
            row = A.constants[i, j]
            if np.any(row != 0.0):
                products.append({"i": i, "j": j, "coeffs": [float(v) for v in row]})
    doc: dict = {"name": A.name or "algebra", "dim": n, "products": products}
    if metric is not None:
        m = metric.matrix if isinstance(metric, BilinearForm) else np.asarray(metric, dtype=float)
        doc["metric"] = [[float(v) for v in r] for r in m]
    if tolerance is not None:
        doc["tolerance"] = float(tolerance)
    return emit_json(doc) + "\n"


def _require(cond: bool, field: str, reason: str) -> None:
    if not cond:
        raise SchemaError(f"field '{field}': {reason}")


# the one JSON-number rule: a decoded number is exactly an int or a float
# (a JSON true or false decodes to a bool, a subclass of int)
_NUMBER_TYPES = {int, float}


def _as_count(value, field: str) -> int:
    _require(type(value) is int and value >= 0, field, "must be a non-negative integer")
    return value


def _as_index(value, field: str, dim: int) -> int:
    _require(_as_count(value, field) < dim, field, f"must lie in [0, {dim})")
    return value


def _check_numbers(value: list, field: str) -> None:
    kinds = set(map(type, value))  # one pass in C per innermost list
    if kinds == {list}:
        for v in value:
            _check_numbers(v, field)
    else:
        _require(kinds <= _NUMBER_TYPES, field, "entries must be numbers")


def _as_array(value, field: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """A JSON array of numbers, nested to any depth, as a float array of the given shape."""
    _require(isinstance(value, list), field, "must be an array")
    _check_numbers(value, field)
    try:
        arr = np.array(value, dtype=float)
    except (ValueError, OverflowError):  # ragged, or an integer beyond float range
        raise SchemaError(f"field '{field}': must be a rectangular array of floats") from None
    _require(shape is None or arr.shape == shape, field, f"must have shape {shape}")
    return arr


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")


def _load_object(text: str, allowed: set[str]) -> dict:
    doc = _load_json(text)
    _require(isinstance(doc, dict), "<root>", "must be a JSON object")
    for key in doc:
        _require(key in allowed, key, "unknown field")
    return doc


def _metric(doc: dict, dim: int) -> np.ndarray | None:
    """The optional symmetric (dim, dim) "metric" block of a document."""
    if "metric" not in doc:
        return None
    # a (0, 0) matrix renders as [], which decodes to shape (0,)
    m = _as_array(doc["metric"], "metric", (dim, dim) if dim else (0,)).reshape(dim, dim)
    _require(bool(np.array_equal(m, m.T)), "metric", "must be symmetric")
    return m


def parse_algebra_file(text: str) -> AlgebraFile:
    """Parse algebra-file text into structure constants (+ optional metric).

    Unlisted products are zero.  The metric, when present, must be square
    and symmetric but is not required to be positive definite here; that
    is left to the consumers that need it.
    """
    doc = _load_object(text, {"name", "dim", "products", "metric", "tolerance"})
    name = doc.get("name", "")
    _require(isinstance(name, str), "name", "must be a string")
    dim = _as_count(doc.get("dim"), "dim")
    products = doc.get("products", [])
    _require(isinstance(products, list), "products", "must be an array")

    C = np.zeros((dim, dim, dim))
    seen: set[tuple[int, int]] = set()
    for pos, row in enumerate(products):
        field = f"products[{pos}]"
        _require(isinstance(row, dict), field, "must be an object")
        _require(set(row) == {"i", "j", "coeffs"}, field, "must have exactly i, j, coeffs")
        i = _as_index(row["i"], f"{field}.i", dim)
        j = _as_index(row["j"], f"{field}.j", dim)
        _require((i, j) not in seen, field, f"duplicate product ({i}, {j})")
        seen.add((i, j))
        C[i, j] = _as_array(row["coeffs"], f"{field}.coeffs", (dim,))

    m = _metric(doc, dim)
    tolerance = None
    if "tolerance" in doc:
        raw = doc["tolerance"]
        _require(type(raw) in _NUMBER_TYPES and raw > 0, "tolerance", "must be a positive number")
        tolerance = float(raw)

    return AlgebraFile(
        AlgebraStructure(C, name=name),
        metric=None if m is None else BilinearForm(m),
        tolerance=tolerance,
    )


def parse_matrix_file(text: str, field: str = "matrix") -> np.ndarray:
    """A bare JSON 2D array, used for skew-derivation inputs."""
    doc = _load_json(text)
    _require(isinstance(doc, list) and doc, field, "must be a non-empty 2D array")
    return _as_array(doc, field, (len(doc), len(doc)))


def parse_lspk_data(text: str) -> LSPKData:
    """Builder-input JSON for the general one-idempotent assembly.

    Required: n1, n2.  Optional 2D arrays g1, g2, b1, b2; 3D arrays rho1
    (n1, n2, n2), rho2 (n2, n1, n1), omega1 (n1, n1, n2), omega2
    (n2, n2, n1); product tensor c2 (n2, n2, n2).  Omitted pieces take the
    construction defaults (identity metrics, zero maps, derived omegas).
    Shapes are checked by LSPKData; a mismatch is a SchemaError here.
    """
    doc = _load_object(
        text, {"n1", "n2", "g1", "g2", "b1", "b2", "rho1", "rho2", "omega1", "omega2", "c2"}
    )
    n1, n2 = _as_count(doc.get("n1"), "n1"), _as_count(doc.get("n2"), "n2")
    arrays = {key: _as_array(v, key) for key, v in doc.items() if key not in ("n1", "n2")}
    try:
        return LSPKData(n1=n1, n2=n2, **arrays)
    except DimensionMismatch as exc:
        raise SchemaError(str(exc)) from None


def parse_milnor_spec(text: str) -> MilnorSpec:
    """Builder-input JSON for the rank-one family: dim, h, optional metric."""
    doc = _load_object(text, {"dim", "h", "metric"})
    dim = _as_count(doc.get("dim"), "dim")
    h = _as_array(doc.get("h"), "h")
    try:
        return MilnorSpec(dim, h, _metric(doc, dim))
    except DimensionMismatch as exc:
        raise SchemaError(str(exc)) from None
