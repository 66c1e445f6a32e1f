"""The JSON interchange format round-trips exactly and rejects bad input.

Floats are printed with 17 significant digits, so render -> parse must be
the identity on the structure tensor bit for bit, including on surd-valued
catalog entries.
"""

import json

import numpy as np
import pytest

from leftsym import (
    AlgebraStructure,
    BilinearForm,
    MetricAlgebra,
    ParseError,
    SchemaError,
    koszul_form,
)
from leftsym.algfile import (
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
        parse_lspk_data(json.dumps({"n1": 1, "n2": 1, "rho1": [[[1.0, 2.0]]]}))
    # the JSON-number rule of algebra files holds in nested arrays too
    for entry in (True, "0"):
        with pytest.raises(SchemaError):
            parse_lspk_data(json.dumps({"n1": 1, "n2": 0, "b1": [[entry]]}))
        with pytest.raises(SchemaError):
            parse_lspk_data(json.dumps({"n1": 1, "n2": 1, "rho1": [[[entry]]]}))


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
