"""The JSON interchange format round-trips exactly and rejects bad input.

Floats are printed with 17 significant digits, so render -> parse must be
the identity on the structure tensor bit for bit, including on surd-valued
catalog entries.
"""

import json
import math

import numpy as np
import pytest

from leftsym import (
    AlgebraStructure,
    BilinearForm,
    DimensionMismatch,
    MetricAlgebra,
    ParseError,
    SchemaError,
    koszul_form,
)
from leftsym.algfile import (
    _products,
    _products_row_by_row,
    parse_algebra_file,
    parse_lspk_data,
    parse_matrix_file,
    parse_milnor_spec,
    render_algebra_file,
)
from leftsym.catalog import catalog_build, catalog_list


def _algebra_of(built):
    return built.algebra if isinstance(built, MetricAlgebra) else built


@pytest.mark.parametrize("name", catalog_list())
def test_round_trip_is_bit_identical(name):
    built = catalog_build(name)
    A = _algebra_of(built)
    metric = built.metric if isinstance(built, MetricAlgebra) else None
    text = render_algebra_file(A, metric=metric)
    parsed = parse_algebra_file(text)
    np.testing.assert_array_equal(parsed.algebra.constants, A.constants)
    if metric is None:
        assert parsed.metric is None
    else:
        np.testing.assert_array_equal(parsed.metric.matrix, metric.matrix)


@pytest.mark.parametrize("metric", [None, np.zeros((0, 0))], ids=["bare", "metric"])
def test_dimension_zero_round_trips(metric):
    text = render_algebra_file(AlgebraStructure(np.zeros((0, 0, 0))), metric)
    parsed = parse_algebra_file(text)
    assert parsed.algebra.constants.shape == (0, 0, 0)
    if metric is None:
        assert parsed.metric is None
    else:
        assert parsed.metric.matrix.shape == (0, 0)
    assert render_algebra_file(parsed.algebra, parsed.metric) == text


def test_seventeen_digit_floats_survive(dim2):
    c = np.zeros((2, 2, 2))
    c[0, 0, 1] = 1.0 / 3.0
    c[1, 0, 0] = np.sqrt(2.0)
    A = AlgebraStructure(c)
    parsed = parse_algebra_file(render_algebra_file(A))
    np.testing.assert_array_equal(parsed.algebra.constants, c)


def test_zero_products_are_omitted(a0):
    doc = json.loads(render_algebra_file(a0))
    assert len(doc["products"]) == 1
    assert doc["products"][0]["i"] == 0 and doc["products"][0]["j"] == 0


def test_tolerance_field_round_trips(dim2):
    text = render_algebra_file(dim2, tolerance=1e-6)
    parsed = parse_algebra_file(text)
    assert parsed.tolerance == 1e-6
    assert parse_algebra_file(render_algebra_file(dim2)).tolerance is None


@pytest.mark.parametrize(
    "raw, reason",
    [
        ("1" + "0" * 400, "must be finite"),  # float() of this int overflows
        ("1e999", "must be finite"),  # json decodes it as inf
        ("-1e999", "must be a positive number"),
        ("NaN", "must be a positive number"),
        ("0", "must be a positive number"),
        ("true", "must be a positive number"),
    ],
    ids=["int-beyond-float", "1e999", "-1e999", "nan", "zero", "bool"],
)
def test_tolerance_beyond_float_range_is_refused_by_name(raw, reason):
    with pytest.raises(SchemaError) as info:
        parse_algebra_file('{"dim": 1, "tolerance": %s}' % raw)
    assert str(info.value) == f"field 'tolerance': {reason}"
    largest = parse_algebra_file('{"dim": 1, "tolerance": 1.7976931348623157e308}')
    assert largest.tolerance == np.finfo(float).max


def test_rejects_malformed_json():
    with pytest.raises(ParseError):
        parse_algebra_file("{not json")


def _doc(**overrides):
    doc = {"dim": 2, "products": [{"i": 0, "j": 0, "coeffs": [0.0, 1.0]}]}
    doc.update(overrides)
    return json.dumps(doc)


def test_schema_rejections():
    with pytest.raises(SchemaError):
        parse_algebra_file(_doc(extra=1))
    with pytest.raises(SchemaError):
        parse_algebra_file(_doc(products=[{"i": 0, "coeffs": [0.0, 1.0]}]))
    with pytest.raises(SchemaError):
        parse_algebra_file(_doc(products=[{"i": 0, "j": 0, "coeffs": [1.0]}]))
    with pytest.raises(SchemaError):
        parse_algebra_file(_doc(products=[{"i": 0, "j": 2, "coeffs": [0.0, 1.0]}]))
    with pytest.raises(SchemaError):
        parse_algebra_file(_doc(products=[
            {"i": 0, "j": 0, "coeffs": [0.0, 1.0]},
            {"i": 0, "j": 0, "coeffs": [0.0, 2.0]},
        ]))
    with pytest.raises(SchemaError):
        parse_algebra_file(_doc(metric=[[1.0, 0.5], [0.0, 1.0]]))  # asymmetric
    with pytest.raises(SchemaError):
        parse_algebra_file(_doc(metric=[[1.0, 0.0]]))  # not square
    with pytest.raises(SchemaError):
        parse_algebra_file(_doc(tolerance=-1e-9))
    with pytest.raises(SchemaError):
        parse_algebra_file(json.dumps({"products": []}))  # dim missing


def test_matrix_file():
    # the format is a bare JSON 2D array
    m = parse_matrix_file(json.dumps([[0.0, 1.0], [-1.0, 0.0]]))
    np.testing.assert_array_equal(m, np.array([[0.0, 1.0], [-1.0, 0.0]]))
    with pytest.raises(SchemaError):
        parse_matrix_file(json.dumps([[0.0, 1.0]]))  # ragged vs dim
    with pytest.raises(ParseError):
        parse_matrix_file("[[0, 1],")


def test_lspk_data_file():
    doc = {"n1": 1, "n2": 0}
    data = parse_lspk_data(json.dumps(doc))
    assert (data.n1, data.n2) == (1, 0)
    with pytest.raises(SchemaError):
        parse_lspk_data(json.dumps({"n1": 1}))
    with pytest.raises(SchemaError):
        parse_lspk_data(json.dumps({"n1": 1, "n2": 1, "rho2": [[[1.0, 2.0]]]}))
    # the JSON-number rule of algebra files holds in nested arrays too
    for entry in (True, "0"):
        with pytest.raises(SchemaError):
            parse_lspk_data(json.dumps({"n1": 1, "n2": 0, "b1": [[entry]]}))
        with pytest.raises(SchemaError):
            parse_lspk_data(json.dumps({"n1": 1, "n2": 1, "rho2": [[[entry]]]}))


@pytest.mark.parametrize("key", ["rho1", "omega2"])
def test_lspk_data_file_has_no_key_for_a_forced_zero(key):
    # the action of h1 on h2 and its pairing map are forced to zero, so the
    # format has no key for them, and a file that still has one is refused
    doc = {"n1": 1, "n2": 1, key: [[[0.0]]]}
    with pytest.raises(SchemaError) as info:
        parse_lspk_data(json.dumps(doc))
    assert str(info.value) == f"field '{key}': unknown field"


def test_milnor_spec_file():
    spec = parse_milnor_spec(json.dumps({"dim": 2, "h": [0.6, 0.8]}))
    assert spec.dim == 2
    np.testing.assert_array_equal(spec.h_vec, np.array([0.6, 0.8]))
    with pytest.raises(SchemaError):
        parse_milnor_spec(json.dumps({"dim": 2, "h": [1.0, 0.0, 0.0]}))


def test_rendered_metric_matches_koszul(dim2):
    B = koszul_form(dim2)
    text = render_algebra_file(dim2, metric=B)
    doc = json.loads(text)
    np.testing.assert_array_equal(np.array(doc["metric"]), B.matrix)


# ---------------------------------------------------------------- render oracle
# The recursive layout that render_algebra_file replaced, kept as the
# reference: one Python call per float, so slow, but plainly the layout.


def _fmt_float(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError(f"cannot serialize non-finite value {v}")
    return format(float(v), ".17g")


def emit_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f"{pad}  {json.dumps(k)}: {emit_json(v, indent + 1)}" for k, v in obj.items()]
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


def reference_render(A, metric=None, tolerance=None) -> str:
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


@pytest.mark.parametrize("tolerance", [None, 1e-9, 0.25])
@pytest.mark.parametrize("with_metric", [False, True], ids=["bare", "metric"])
@pytest.mark.parametrize("name", catalog_list())
def test_render_matches_oracle_on_the_catalog(name, with_metric, tolerance):
    built = catalog_build(name)
    A = _algebra_of(built)
    metric = None
    if with_metric:
        metric = built.metric if isinstance(built, MetricAlgebra) else koszul_form(A)
    assert render_algebra_file(A, metric, tolerance) == reference_render(A, metric, tolerance)


_AWKWARD = np.array([-0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300, 3.0, -7.0, 2.0**53])


def _awkward(shape, rng) -> np.ndarray:
    """Random normals with zeros and edge-case doubles mixed in."""
    x = rng.standard_normal(shape)
    pick = rng.random(shape)
    x[pick < 0.3] = rng.choice(_AWKWARD, size=int((pick < 0.3).sum()))
    x[pick > 0.85] = 0.0
    return x


@pytest.mark.parametrize("n", [0, 1, 2, 3, 6])
@pytest.mark.parametrize("seed", range(4))
def test_render_matches_oracle_on_awkward_floats(n, seed):
    rng = np.random.default_rng([n, seed])
    c = _awkward((n, n, n), rng)
    c[rng.random((n, n)) < 0.3] = 0.0  # whole products left out
    A = AlgebraStructure(c, name=["", "w\u00e9ird \"name\""][seed % 2])
    g = np.triu(_awkward((n, n), rng))
    g = g + np.triu(g, 1).T  # exactly symmetric
    tol = float(rng.choice([5e-324, 1e-300, 3.0, 1e300]))
    for metric, tolerance in [(None, None), (g, None), (BilinearForm(g), tol), (None, tol)]:
        text = render_algebra_file(A, metric, tolerance)
        assert text == reference_render(A, metric, tolerance)
        parsed = parse_algebra_file(text)
        np.testing.assert_array_equal(parsed.algebra.constants, c)
        if metric is not None:
            np.testing.assert_array_equal(parsed.metric.matrix, g)
        assert parsed.tolerance == tolerance


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_metric_or_tolerance_raises_as_before(dim2, bad):
    g = np.eye(2)
    g[1, 0] = g[0, 1] = bad
    with pytest.raises(ValueError) as ref:
        reference_render(dim2, g)
    with pytest.raises(ValueError) as new:
        render_algebra_file(dim2, g)
    assert str(new.value) == str(ref.value) == f"cannot serialize non-finite value {bad}"
    with pytest.raises(ValueError) as ref:
        reference_render(dim2, None, bad)
    with pytest.raises(ValueError) as new:
        render_algebra_file(dim2, None, bad)
    assert str(new.value) == str(ref.value)


def test_render_refuses_what_parse_would_refuse(dim2):
    with pytest.raises(DimensionMismatch, match=r"metric must have shape \(2, 2\), got \(3, 3\)"):
        render_algebra_file(dim2, np.eye(3))
    with pytest.raises(DimensionMismatch):
        render_algebra_file(dim2, BilinearForm.identity(3))
    with pytest.raises(DimensionMismatch):
        render_algebra_file(dim2, np.ones(2))
    with pytest.raises(ValueError, match="metric must be symmetric"):
        render_algebra_file(dim2, np.array([[1.0, 0.5], [0.5 + 1e-16, 1.0]]))
    for tolerance in (0.0, -1e-9):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            render_algebra_file(dim2, None, tolerance)
    # the parse side refuses the same three, so no rendered file fails to parse
    bad = json.loads(render_algebra_file(dim2))
    for key, value in [("metric", np.eye(3).tolist()), ("metric", [[1.0, 0.5], [0.0, 1.0]]),
                       ("tolerance", 0.0)]:
        with pytest.raises(SchemaError):
            parse_algebra_file(json.dumps({**bad, key: value}))


# ---------------------------------------------------------------- parse errors


_OK = {"i": 0, "j": 0, "coeffs": [0.0, 1.0]}


@pytest.mark.parametrize(
    "products, message",
    [
        ([1], "field 'products[0]': must be an object"),
        ([_OK, [0, 0]], "field 'products[1]': must be an object"),
        ([{**_OK, "k": 0}], "field 'products[0]': must have exactly i, j, coeffs"),
        ([{"i": 0, "coeffs": [0.0, 1.0]}], "field 'products[0]': must have exactly i, j, coeffs"),
        ([{**_OK, "i": True}], "field 'products[0].i': must be a non-negative integer"),
        ([{**_OK, "i": 0.0}], "field 'products[0].i': must be a non-negative integer"),
        ([{**_OK, "i": -1}], "field 'products[0].i': must be a non-negative integer"),
        ([{**_OK, "j": 2}], "field 'products[0].j': must lie in [0, 2)"),
        ([{**_OK, "j": False}], "field 'products[0].j': must be a non-negative integer"),
        ([_OK, {**_OK, "i": 1}, _OK], "field 'products[2]': duplicate product (0, 0)"),
        ([{**_OK, "coeffs": [1.0]}], "field 'products[0].coeffs': must have shape (2,)"),
        ([{**_OK, "coeffs": [1.0, 2.0, 3.0]}], "field 'products[0].coeffs': must have shape (2,)"),
        ([{**_OK, "coeffs": [[1.0], [2.0]]}], "field 'products[0].coeffs': must have shape (2,)"),
        ([{**_OK, "coeffs": [[1.0], 2.0]}], "field 'products[0].coeffs': entries must be numbers"),
        ([{**_OK, "coeffs": 1.0}], "field 'products[0].coeffs': must be an array"),
        ([{**_OK, "coeffs": {"0": 1.0}}], "field 'products[0].coeffs': must be an array"),
        ([{**_OK, "coeffs": [1.0, True]}], "field 'products[0].coeffs': entries must be numbers"),
        ([{**_OK, "coeffs": ["2", 1.0]}], "field 'products[0].coeffs': entries must be numbers"),
        ([{**_OK, "coeffs": [None, 1.0]}], "field 'products[0].coeffs': entries must be numbers"),
        ([{**_OK, "coeffs": [10**400, 1.0]}],
         "field 'products[0].coeffs': must be a rectangular array of floats"),
        # two faults: the overflow comes first in the document, so it is named,
        # although only the whole-document conversion would find it
        ([_OK, {**_OK, "i": 1, "coeffs": [0, 10**400]}, {**_OK, "j": 1, "coeffs": [1.0]}],
         "field 'products[1].coeffs': must be a rectangular array of floats"),
        ([_OK, {**_OK, "i": 1, "coeffs": [1.0]}, {**_OK, "j": 1, "coeffs": [0, 10**400]}],
         "field 'products[1].coeffs': must have shape (2,)"),
    ],
    ids=["non-object", "non-object-later", "extra-key", "missing-key", "bool-i", "float-i",
         "negative-i", "j-out-of-range", "bool-j", "duplicate", "short", "long", "nested",
         "mixed-nesting", "number-coeffs", "object-coeffs", "true-entry", "string-entry",
         "null-entry", "overflow", "overflow-then-short", "short-then-overflow"],
)
def test_parse_errors_are_pinned(products, message):
    assert _products(products, 2) is None  # the one-pass check refuses it too
    with pytest.raises(SchemaError) as info:
        parse_algebra_file(_doc(products=products))
    assert str(info.value) == message


@pytest.mark.parametrize("name", catalog_list())
def test_one_pass_products_match_row_by_row(name):
    A = _algebra_of(catalog_build(name))
    products = json.loads(render_algebra_file(A))["products"]
    fast = _products(products, A.dim)
    assert fast is not None
    np.testing.assert_array_equal(fast, _products_row_by_row(products, A.dim))
    np.testing.assert_array_equal(fast, A.constants)


def test_parse_accepts_integer_and_mixed_coefficients():
    text = _doc(products=[{"i": 1, "j": 0, "coeffs": [2, -0.0]}, {"i": 0, "j": 1, "coeffs": [0, 1]}])
    c = parse_algebra_file(text).algebra.constants
    want = np.zeros((2, 2, 2))
    want[1, 0] = [2.0, -0.0]
    want[0, 1] = [0.0, 1.0]
    np.testing.assert_array_equal(c, want)
    assert np.signbit(c[1, 0, 1])
