"""Building algebras from decomposition data, and the model constructions.

The free-data route is checked as a genuine inverse: decomposing a catalog
algebra and rebuilding from the extracted data must reproduce the structure
constants in the adapted basis bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leftsym import (
    AlgebraStructure,
    BilinearForm,
    HypothesisFailed,
    LSPKData,
    MetricAlgebra,
    MilnorSpec,
    NotSkew,
    PreconditionFailed,
    ValidationFailed,
    ZeroH,
    build_corollary1,
    build_corollary2,
    build_lspk,
    build_milnor,
    change_basis,
    check_k_hessian,
    check_left_symmetric,
    data_from_decomposition,
    data_residuals,
    decompose,
    is_positive_definite,
    kdim2_family,
    koszul_form,
    mult_operator,
    recognize_milnor,
    validate_data,
)
from leftsym.catalog import catalog_build

_angle = st.floats(min_value=0.0, max_value=6.2, allow_nan=False, allow_infinity=False)
_curv = st.floats(min_value=-5.0, max_value=-0.05, allow_nan=False, allow_infinity=False)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_corollary1_shape(n):
    A = build_corollary1(n)
    assert A.dim == n + 1
    assert check_left_symmetric(A)
    np.testing.assert_allclose(
        koszul_form(A).matrix, (n + 2) / 2.0 * np.eye(n + 1), atol=1e-12
    )
    assert decompose(A).signature == (n, 0, (n + 2) / 2.0)


def test_corollary1_skew_parameter():
    skew = np.array([[0.0, 1.3], [-1.3, 0.0]])
    A = build_corollary1(2, skew)
    assert check_left_symmetric(A)
    assert decompose(A).signature == (2, 0, 2.0)
    with pytest.raises(NotSkew):
        build_corollary1(2, np.eye(2))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_corollary2_over_unit_milnor(n):
    h = np.zeros(n)
    h[0] = 1.0
    M, k = build_milnor(MilnorSpec(n, h))
    assert k == -1.0
    A = build_corollary2(M)
    assert A.dim == n + 1
    assert check_left_symmetric(A)
    np.testing.assert_allclose(koszul_form(A).matrix, (n + 1.0) * np.eye(n + 1), atol=1e-12)
    assert decompose(A).signature == (0, n, n + 1.0)


def test_corollary2_requires_unit_curvature():
    M, k = build_milnor(MilnorSpec(2, np.array([0.5, 0.0])))
    assert k == -0.25
    with pytest.raises(HypothesisFailed):
        build_corollary2(M)


@pytest.mark.parametrize(
    "h_vec, skew, hypothesis",
    [([0.5, 0.0], None, "sectional"), ([1.0, 0.0], [[0.0, 1.0], [-1.0, 0.0]], "derivation")],
)
def test_corollary2_names_the_failing_hypothesis(h_vec, skew, hypothesis):
    M, _ = build_milnor(MilnorSpec(2, np.array(h_vec)))
    with pytest.raises(HypothesisFailed) as info:
        build_corollary2(M, skew)
    assert info.value.name == hypothesis


@pytest.mark.parametrize("name", ["lspk_dim2", "lspk_dim3_case1", "lspk_dim3_case2",
                                  "lspk_dim3_case3", "lspk_dim4", "lspk_dim5"])
def test_rebuild_inverts_decompose(name):
    A = catalog_build(name)
    dec = decompose(A)
    rebuilt = build_lspk(data_from_decomposition(dec))
    transported = change_basis(A, dec.basis)
    np.testing.assert_array_equal(rebuilt.constants, transported.constants)


def test_corollary2_names_a_nan_hypothesis_residual():
    # at this scale the sectional defect overflows to inf - inf = NaN
    M, _ = build_milnor(MilnorSpec(2, np.array([1.0, 0.0])))
    big = MetricAlgebra(AlgebraStructure(M.algebra.constants * 1e160), M.metric)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(HypothesisFailed) as info:
        build_corollary2(big)
    assert info.value.name == "sectional" and np.isnan(info.value.residual)


def test_build_rejects_inconsistent_data():
    data = LSPKData(n1=1, n2=1, rho1=np.array([[[0.7]]]))
    rep = validate_data(data)
    assert not rep
    assert rep.max_residual > 0.1
    with pytest.raises(ValidationFailed):
        build_lspk(data)


def test_data_residuals_structure():
    data = LSPKData(n1=2, n2=0)
    res = data_residuals(data)
    assert {"S1", "S2", "B1_skew", "omega1_symmetric"} <= set(res)
    assert all(v is None or v <= 1e-12 for v in res.values())
    assert validate_data(data)
    A = build_lspk(data)
    assert A.dim == 3


def test_data_shape_validation():
    with pytest.raises(Exception):
        LSPKData(n1=1, n2=1, rho1=np.zeros((2, 1, 1)))
    with pytest.raises(Exception):
        LSPKData(n1=1, n2=1, g1=np.array([[-1.0]]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_construction_data_refuses_non_finite_entries(bad):
    for key, value in (("rho1", [[[bad]]]), ("c2", [[[bad]]]), ("g1", [[bad]]),
                       ("omega2", [[[bad]]])):
        with pytest.raises(ValueError, match=key):
            LSPKData(n1=1, n2=1, **{key: np.array(value)})
    with pytest.raises(ValueError, match="h_vec"):
        MilnorSpec(2, np.array([bad, 1.0]))
    with pytest.raises(ValueError, match="metric"):
        MilnorSpec(2, np.array([1.0, 0.0]), np.array([[1.0, 0.0], [0.0, bad]]))
    with pytest.raises(ValueError, match="skew operator"):
        build_corollary1(2, np.array([[0.0, bad], [-bad, 0.0]]))


def test_validate_data_never_holds_with_an_overflowing_residual():
    # finite data whose commutator overflows to inf - inf = NaN
    data = LSPKData(n1=1, n2=1, rho1=np.array([[[1e200]]]))
    with np.errstate(over="ignore", invalid="ignore"):
        rep = validate_data(data)
    assert not rep
    assert np.isnan(rep.max_residual)


def test_milnor_left_translation_is_trivial():
    h = np.array([0.0, 0.6, 0.8])
    M, k = build_milnor(MilnorSpec(3, h))
    assert k == -1.0
    L_h = mult_operator(M.algebra, h, "left")
    assert np.max(np.abs(L_h)) == 0.0
    assert is_positive_definite(M.metric)
    assert check_k_hessian(M.algebra, M.metric, k)


@pytest.mark.parametrize("n", [2, 4, 8, 16, 24, 32])
def test_milnor_left_translation_vanishes_exactly_at_every_size(n):
    # pins the reduction order of mult_operator that build_milnor rounds against
    rng = np.random.default_rng(5000 + n)
    for _ in range(3):
        q = rng.standard_normal((n, n))
        g = q.T @ q / n + np.eye(n)
        h = rng.standard_normal(n)
        h /= np.linalg.norm(h)
        M, _ = build_milnor(MilnorSpec(n, h, g))
        assert np.count_nonzero(mult_operator(M.algebra, h, "left")) == 0


def test_milnor_recognition_round_trip():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        h = rng.uniform(-1.0, 1.0, size=n)
        h /= np.linalg.norm(h) / 1.3
        M, k = build_milnor(MilnorSpec(n, h))
        np.testing.assert_allclose(k, -1.69, atol=1e-12)
        hrec = recognize_milnor(M, k)
        np.testing.assert_allclose(hrec, h, atol=1e-10)


def test_milnor_recognition_handles_sign():
    h = np.array([0.6, 0.8])
    M, k = build_milnor(MilnorSpec(2, -h))
    hrec = recognize_milnor(M, k)
    np.testing.assert_allclose(hrec, -h, atol=1e-10)


def test_milnor_rejects_zero_vector():
    with pytest.raises(ZeroH):
        build_milnor(MilnorSpec(2, np.zeros(2)))


def test_kdim2_validation():
    with pytest.raises(PreconditionFailed):
        kdim2_family(1.0, 0.3)
    with pytest.raises(PreconditionFailed):
        kdim2_family(0.0, 0.3)
    with pytest.raises(ValueError):
        kdim2_family(-1.0, 0.3, family=3)


@settings(max_examples=40)
@given(k=_curv, theta=_angle, family=st.sampled_from([1, 2]))
def test_kdim2_defining_identities(k, theta, family):
    M = kdim2_family(k, theta, family)
    assert check_k_hessian(M.algebra, M.metric, k)
    if family == 2:
        np.testing.assert_allclose(
            M.algebra.constants, M.algebra.constants.transpose(1, 0, 2), atol=1e-12
        )


def test_kdim2_branches_differ():
    a = kdim2_family(-1.0, 0.7, 1).algebra.constants
    b = kdim2_family(-1.0, 0.7, 2).algebra.constants
    assert np.max(np.abs(a - b)) > 0.1
