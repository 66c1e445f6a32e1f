"""On-disk JSON format for algebras, metrics and builder inputs.

An algebra file lists only the nonzero products, mirroring how the tables
are written: each row gives the pair (i, j) and the full coefficient
vector of e_i * e_j.  Floats are emitted with 17 significant digits so a
write/read cycle reproduces every double bit-for-bit; parsing is plain
stdlib json plus schema validation.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields as dataclass_fields
from itertools import chain

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


def _finite(values: np.ndarray) -> np.ndarray:
    """values, refusing the first non-finite entry in row-major order."""
    bad = ~np.isfinite(values)
    if bad.any():
        raise ValueError(f"cannot serialize non-finite value {float(values[bad][0])}")
    return values


def _floats(k: int) -> str:
    # 17 significant digits round-trip IEEE doubles exactly
    return ", ".join(["%.17g"] * k)


def _block(lines: list[str]) -> str:
    """A JSON array whose elements sit one per line at the second indent level."""
    return "[\n" + ",\n".join(lines) + "\n  ]" if lines else "[]"


def render_algebra_file(
    A: AlgebraStructure,
    metric: BilinearForm | np.ndarray | None = None,
    tolerance: float | None = None,
) -> str:
    """Algebra file text for a structure, omitting all-zero products.

    Refuses, writing nothing, any input that parse_algebra_file would
    refuse: a non-finite number, a metric that is not a symmetric (dim, dim)
    matrix, a tolerance that is not positive.
    """
    n = A.dim
    C = A.constants  # finite: AlgebraStructure refuses inf and NaN
    nonzero = np.any(C != 0.0, axis=2)
    row = '    {\n      "i": %d,\n      "j": %d,\n      "coeffs": [' + _floats(n) + "]\n    }"
    products = [
        row % (i, j, *coeffs)
        for i, j, coeffs in zip(*np.nonzero(nonzero), C[nonzero].tolist())
    ]
    fields = [f'  "name": {json.dumps(A.name or "algebra")}', f'  "dim": {n}',
              f'  "products": {_block(products)}']
    if metric is not None:
        m = _finite(metric.matrix if isinstance(metric, BilinearForm)
                    else np.asarray(metric, dtype=float))
        if m.shape != (n, n):
            raise DimensionMismatch(f"metric must have shape {(n, n)}, got {m.shape}")
        if not np.array_equal(m, m.T):
            raise ValueError("metric must be symmetric")
        line = "    [" + _floats(n) + "]"
        fields.append(f'  "metric": {_block([line % tuple(r) for r in m.tolist()])}')
    if tolerance is not None:
        tol = float(_finite(np.float64(tolerance)))
        if not tol > 0:
            raise ValueError(f"tolerance must be positive, got {tol!r}")
        fields.append('  "tolerance": %.17g' % tol)
    return "{\n" + ",\n".join(fields) + "\n}\n"


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


_ROW_KEYS = {"i", "j", "coeffs"}


def _products(products: list, dim: int) -> np.ndarray:
    """The (dim, dim, dim) tensor of the product rows, refusing the first invalid row by name.

    Each row must be an object with exactly i, j and coeffs, two indices in range, a
    product not listed before and dim numbers, checked in that order.  All coefficients
    convert at once, so an integer beyond float range is found last; it is then named
    at its own row, as is one in a row before another row's fault.
    """
    rows: dict[int, list] = {}
    try:
        for pos, row in enumerate(products):
            if not isinstance(row, dict) or row.keys() != _ROW_KEYS:
                _require(isinstance(row, dict), f"products[{pos}]", "must be an object")
                _require(row.keys() == _ROW_KEYS, f"products[{pos}]", "must have exactly i, j, coeffs")
            i, j, c = row["i"], row["j"], row["coeffs"]
            if type(i) is not int or type(j) is not int or not (0 <= i < dim and 0 <= j < dim):
                _as_index(i, f"products[{pos}].i", dim)
                _as_index(j, f"products[{pos}].j", dim)
            key = i * dim + j
            if key in rows:
                raise SchemaError(f"field 'products[{pos}]': duplicate product ({i}, {j})")
            if not isinstance(c, list) or len(c) != dim or not set(map(type, c)) <= _NUMBER_TYPES:
                _as_array(c, f"products[{pos}].coeffs", (dim,))  # raises: names the rule that fails
            rows[key] = c
        values = np.fromiter(chain.from_iterable(rows.values()), float, len(rows) * dim)
    except (SchemaError, OverflowError):
        for pos, c in enumerate(rows.values()):  # the rows before the fault, in order
            _as_array(c, f"products[{pos}].coeffs")  # raises on an integer beyond float range
        raise
    C = np.zeros((dim, dim, dim))
    C.reshape(dim * dim, dim)[list(rows)] = values.reshape(len(rows), dim)
    return C


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

    C = _products(products, dim)
    m = _metric(doc, dim)
    tolerance = None
    if "tolerance" in doc:
        raw = doc["tolerance"]
        _require(type(raw) in _NUMBER_TYPES and raw > 0, "tolerance", "must be a positive number")
        # exact for an int, so an integer beyond float range is refused before float() overflows
        _require(raw <= sys.float_info.max, "tolerance", "must be finite")
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

    Required: n1, n2.  Optional 2D arrays g1, g2, b1, b2; 3D arrays rho2
    (n2, n1, n1), omega1 (n1, n1, n2); product tensor c2 (n2, n2, n2).
    Omitted pieces take the construction defaults (identity metrics, zero
    maps, derived omega1).  The keys are the fields of LSPKData, which checks
    the shapes; a mismatch is a SchemaError here, and so is any other key,
    rho1 and omega2 included (both are forced to zero, see _systems).
    """
    doc = _load_object(text, {f.name for f in dataclass_fields(LSPKData)})
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
