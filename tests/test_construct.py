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
    NotPositiveDefinite,
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
from leftsym import _systems, construct
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
    [([0.5, 0.0], None, "S2-sectional"), ([1.0, 0.0], [[0.0, 1.0], [-1.0, 0.0]], "S2-derivation")],
)
def test_corollary2_names_the_failing_hypothesis(h_vec, skew, hypothesis):
    M, _ = build_milnor(MilnorSpec(2, np.array(h_vec)))
    with pytest.raises(HypothesisFailed) as info:
        build_corollary2(M, skew)
    assert info.value.name == hypothesis


def _milnor(h0: float, metric=None) -> MetricAlgebra:
    """The rank-one plane with h = (h0, 0), k = -h0^2, under metric (default the identity)."""
    M, _ = build_milnor(MilnorSpec(2, np.array([h0, 0.0])))
    return M if metric is None else MetricAlgebra(M.algebra, BilinearForm(np.array(metric)))


_ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])
_IDEMPOTENT_LINE = MetricAlgebra(AlgebraStructure(np.ones((1, 1, 1))), BilinearForm.identity(1))

# each relation that one-part data spans, in the order of NAMES, forced through its corollary
ONE_PART_REFUSALS = [
    ("B1_skew", NotSkew, lambda: build_corollary1(2, np.eye(2))),
    ("B2_skew", HypothesisFailed, lambda: build_corollary2(_milnor(1.0), np.eye(2))),
    ("S2-traces", HypothesisFailed, lambda: build_corollary2(_IDEMPOTENT_LINE)),  # tr L_e = 1
    ("S2-hessian", HypothesisFailed, lambda: build_corollary2(_milnor(1.0, [[1.0, 0.0], [0.0, 2.0]]))),
    ("S2-sectional", HypothesisFailed, lambda: build_corollary2(_milnor(0.5))),  # k = -1/4
    ("S2-derivation", HypothesisFailed, lambda: build_corollary2(_milnor(1.0), _ROTATION)),
]


@pytest.mark.parametrize("relation, error, build", ONE_PART_REFUSALS, ids=[r[0] for r in ONE_PART_REFUSALS])
def test_a_one_part_hypothesis_is_refused_as_its_split_system_relation(relation, error, build, monkeypatch):
    # the corollary measures the systems of its data once, and refuses the first
    # relation beyond its threshold under that relation's name and residual
    measured = []

    def spy(*arrays):
        measured.append(_systems.system_residuals(*arrays))
        return measured[-1]

    monkeypatch.setattr(construct, "system_residuals", spy)
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    (residuals,) = map(dict, measured)
    assert (info.value.name, info.value.residual) == (relation, residuals[relation])
    before = _systems.NAMES[: _systems.NAMES.index(relation)]
    assert all(residuals[name] is None or residuals[name] <= 1e-12 for name in before)


def test_the_one_part_table_forces_every_one_part_relation():
    flat, product = data_residuals(LSPKData(n1=2, n2=0)), data_residuals(LSPKData(n1=0, n2=2))
    spanned = [name for name in _systems.NAMES if flat[name] is not None or product[name] is not None]
    assert [relation for relation, _, _ in ONE_PART_REFUSALS] == spanned


@pytest.mark.parametrize("source", ["lspk_dim5", "lspk_dim3_case3", "flat", "product"])
def test_each_relation_is_one_residual_and_one_check_of_decompose(source):
    if source == "flat":
        A = build_corollary1(2, 0.4 * _ROTATION)
    elif source == "product":
        A = build_corollary2(_milnor(1.0))
    else:
        A = catalog_build(source)
    dec = decompose(A)
    assert tuple(data_residuals(dec.data)) == _systems.NAMES
    names = [check.name for check in dec.checks]
    assert [names.count(name) for name in _systems.NAMES] == [1] * len(_systems.NAMES)


def test_corollary2_refuses_an_indefinite_metric_before_any_hypothesis(monkeypatch):
    # the data checks its metric before the hypotheses, its relations, are measured
    M, _ = build_milnor(MilnorSpec(2, np.array([1.0, 0.0])))
    flipped = MetricAlgebra(M.algebra, BilinearForm(-M.metric.matrix))  # sectional constant +1
    monkeypatch.setattr(construct, "system_residuals", None)  # a measurement would raise TypeError
    with pytest.raises(NotPositiveDefinite) as info:
        build_corollary2(flipped)
    assert info.value.name == "positive definite g2"
    line = MetricAlgebra(AlgebraStructure(np.zeros((1, 1, 1))), BilinearForm(-np.eye(1)))
    with pytest.raises(NotPositiveDefinite) as info:
        build_corollary2(line)  # every hypothesis holds on the zero product
    assert info.value.name == "positive definite g2"


@pytest.mark.parametrize("name", ["lspk_dim2", "lspk_dim3_case1", "lspk_dim3_case2",
                                  "lspk_dim3_case3", "lspk_dim4", "lspk_dim5"])
def test_rebuild_inverts_decompose(name):
    A = catalog_build(name)
    dec = decompose(A)
    rebuilt = build_lspk(data_from_decomposition(dec))
    transported = change_basis(A, dec.basis)
    np.testing.assert_array_equal(rebuilt.constants, transported.constants)


def _transport_source(family: str, n: int, rng: np.random.Generator) -> AlgebraStructure:
    """A flat-part, product-part or R^n algebra of dimension n, or the named catalog entry."""
    if family == "flat":
        d = rng.standard_normal((n - 1, n - 1))
        return build_corollary1(n - 1, (d - d.T) / 2.0)
    if family == "product":
        h = rng.standard_normal(n - 1)
        M, _ = build_milnor(MilnorSpec(n - 1, h / np.linalg.norm(h)))
        return build_corollary2(M)
    if family == "rn":  # the coordinatewise product e_i e_i = e_i
        c = np.zeros((n, n, n))
        c[range(n), range(n), range(n)] = 1.0
        return AlgebraStructure(c, name=f"rn{n}")
    return catalog_build(family)


_TRANSPORTS = [(family, n, seed) for family in ("flat", "product", "rn") for n in (6, 12, 20)
               for seed in (1, 2, 3)]
_TRANSPORTS += [(name, None, seed) for name in ("lspk_dim3_case3", "lspk_dim4", "lspk_dim5")
                for seed in (1, 2, 3)]


@pytest.mark.parametrize("family, n, seed", _TRANSPORTS)
def test_rebuild_equals_the_frame_on_every_data_block(family, n, seed):
    # the split data is read off the one frame through LSPKData's table and
    # build_lspk writes it through the same table, so the rebuild equals the
    # frame bit for bit on every block that carries data, for every input
    rng = np.random.default_rng(seed)
    A = _transport_source(family, n, rng)
    q, _ = np.linalg.qr(rng.standard_normal((A.dim, A.dim)))
    T = change_basis(A, q)
    dec = decompose(T)
    frame = dec.frame.constants
    assert frame.tobytes() == change_basis(T, dec.basis).constants.tobytes()
    rebuilt = build_lspk(data_from_decomposition(dec)).constants
    for key, block, _, _ in LSPKData._layout(dec.dim_h1, dec.dim_h2):
        np.testing.assert_array_equal(rebuilt[block], frame[block], err_msg=key)
    # the fixed blocks (metrics, the H column, the zero blocks) agree within the checks' thresholds
    thr = max(c.threshold for c in dec.checks if c.name == "circ1")
    np.testing.assert_allclose(rebuilt, frame, rtol=0, atol=thr)


def test_corollary2_names_a_nan_hypothesis_residual():
    # at this scale the sectional defect overflows to inf - inf = NaN
    M, _ = build_milnor(MilnorSpec(2, np.array([1.0, 0.0])))
    big = MetricAlgebra(AlgebraStructure(M.algebra.constants * 1e160), M.metric)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(HypothesisFailed) as info:
        build_corollary2(big)
    assert info.value.name == "S2-sectional" and np.isnan(info.value.residual)


def test_build_rejects_inconsistent_data():
    data = LSPKData(n1=1, n2=1, rho2=np.array([[[0.7]]]))
    rep = validate_data(data)
    assert not rep
    assert rep.max_residual > 0.1
    with pytest.raises(ValidationFailed):
        build_lspk(data)


def test_data_residuals_structure():
    data = LSPKData(n1=2, n2=0)
    res = data_residuals(data)
    assert {"S1", "S2-traces", "S2-hessian", "S2-sectional", "S2-derivation", "B1_skew",
            "omega1_symmetric"} <= set(res)
    assert all(v is None or v <= 1e-12 for v in res.values())
    assert validate_data(data)
    A = build_lspk(data)
    assert A.dim == 3


def test_data_shape_validation():
    with pytest.raises(Exception):
        LSPKData(n1=1, n2=1, rho2=np.zeros((2, 1, 1)))
    with pytest.raises(Exception):
        LSPKData(n1=1, n2=1, g1=np.array([[-1.0]]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_construction_data_refuses_non_finite_entries(bad):
    for key, value in (("rho2", [[[bad]]]), ("c2", [[[bad]]]), ("g1", [[bad]]),
                       ("omega1", [[[bad]]])):
        with pytest.raises(ValueError, match=key):
            LSPKData(n1=1, n2=1, **{key: np.array(value)})
    with pytest.raises(ValueError, match="h_vec"):
        MilnorSpec(2, np.array([bad, 1.0]))
    with pytest.raises(ValueError, match="metric"):
        MilnorSpec(2, np.array([1.0, 0.0]), np.array([[1.0, 0.0], [0.0, bad]]))
    with pytest.raises(ValueError, match="skew operator"):
        build_corollary1(2, np.array([[0.0, bad], [-bad, 0.0]]))


def test_validate_data_never_holds_with_an_overflowing_residual():
    # finite data whose commutator overflows to inf - inf = NaN in theo-ii; the verdict
    # is the first failing equation, so it names an asymmetric omega1 (1e200) before
    # the NaN commutator, and for a symmetric omega1 it is the NaN itself
    big = 1e200
    action = np.array([[[0.0, big], [-big, 0.0]]])
    asymmetric = np.array([[[0.0], [big]], [[0.0], [0.0]]])
    with np.errstate(over="ignore", invalid="ignore"):
        rep = validate_data(LSPKData(n1=2, n2=1, rho2=action, omega1=asymmetric))
        assert not rep and (rep.name, rep.residual) == ("omega1_symmetric", big)
        rep = validate_data(LSPKData(n1=2, n2=1, rho2=action))
    assert not rep
    assert rep.name == "theo-ii" and np.isnan(rep.max_residual)


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
