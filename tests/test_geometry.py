"""Connection, curvature and the double-space Ricci blocks.

Every number asserted on the dim2 fixture was computed by hand: with the
trace-form metric the difference tensor has gamma_e = [[0,-1/2],[-1/2,0]],
the base Ricci form is -(1/4) I, and both diagonal Ricci blocks of the
double space equal -(3/2) I while the mixed block vanishes.
"""

import functools
import json

import numpy as np
import pytest

from leftsym import (
    AlgebraStructure,
    BilinearForm,
    DimensionMismatch,
    MetricAlgebra,
    MilnorSpec,
    NotLSPK,
    PreconditionFailed,
    base_curvature,
    build_corollary1,
    build_corollary2,
    build_milnor,
    change_basis,
    einstein_check,
    gamma_operator,
    kdim2_family,
    koszul_form,
    levi_civita_product,
    lie_bracket_constants,
    multiply,
    residual_scale,
    second_koszul_form,
    tangent_bundle_ricci,
    trace_one_form,
)
from leftsym import geometry
from leftsym.catalog import catalog_build

LSPK_NAMES = ["lspk_dim2", "lspk_dim3_case1", "lspk_dim3_case2",
              "lspk_dim3_case3", "lspk_dim4", "lspk_dim5"]


def _with_koszul(A: AlgebraStructure, scale: float = 1.0) -> MetricAlgebra:
    return MetricAlgebra(A, BilinearForm(scale * koszul_form(A).matrix))


def frame_sum_ricci(M: MetricAlgebra) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference oracle: the double-space Ricci blocks (hh, vv, hv) by brute force.

    The six curvature component formulas are evaluated on every pair of
    basis vectors and summed over a g-orthonormal frame, with no shortcuts,
    so the library's closed-form contractions are checked against an
    independent route.
    """
    base = base_curvature(M)
    gamma = base.gamma
    lbar = base.lc.constants.transpose(0, 2, 1)  # lbar[i] = matrix of Lbar_{e_i}
    g = M.metric.matrix
    n = M.dim

    def gam(x):
        return np.einsum("i,ilk->lk", x, gamma)

    def lb(x):
        return np.einsum("i,ilk->lk", x, lbar)

    def kop(x, y):
        return np.einsum("i,j,ijkl->lk", x, y, base.K)

    def dgamma(x, y, z):
        """(D_x gamma)(y, z) as a vector."""
        return lb(x) @ (gam(y) @ z) - gam(lb(x) @ y) @ z - gam(y) @ (lb(x) @ z)

    def riemann(u, v, w):
        """Full curvature value R(u, v)w on pairs (horizontal, vertical)."""
        uh, uv = u
        vh, vv = v
        wh, wv = w
        out_h = np.zeros(n)
        out_v = np.zeros(n)
        # both arguments horizontal: base curvature on each component
        k_hh = kop(uh, vh)
        out_h += k_hh @ wh
        out_v += k_hh @ wv
        # both vertical: commutator of gamma operators on each component
        c_vv = gam(uv) @ gam(vv) - gam(vv) @ gam(uv)
        out_h += c_vv @ wh
        out_v += c_vv @ wv
        # mixed horizontal-vertical, and its transpose by antisymmetry
        out_v += -dgamma(uh, wh, vv) - gam(wh) @ (gam(uh) @ vv)
        out_h += dgamma(uh, vv, wv) + gam(wv) @ (gam(uh) @ vv)
        out_v -= -dgamma(vh, wh, uv) - gam(wh) @ (gam(vh) @ uv)
        out_h -= dgamma(vh, uv, wv) + gam(wv) @ (gam(vh) @ uv)
        return out_h, out_v

    frame = np.linalg.inv(np.linalg.cholesky(g)).T  # columns orthonormal for g
    zero = np.zeros(n)

    def ric(u, v):
        total = 0.0
        for i in range(n):
            e = frame[:, i]
            rh, _ = riemann(u, (e, zero), v)
            total += float(rh @ g @ e)
            _, rv = riemann(u, (zero, e), v)
            total += float(rv @ g @ e)
        return total

    hh, vv, hv = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n))
    eye = np.eye(n)
    for a in range(n):
        for b in range(n):
            ea, eb = eye[a], eye[b]
            hh[a, b] = ric((ea, zero), (eb, zero))
            vv[a, b] = ric((zero, ea), (zero, eb))
            hv[a, b] = ric((ea, zero), (zero, eb))
    return hh, vv, hv


def assert_blocks_match_oracle(M: MetricAlgebra, hh: np.ndarray, vv: np.ndarray) -> None:
    """hh and vv agree with frame_sum_ricci, whose mixed block is exactly zero."""
    want_hh, want_vv, want_hv = frame_sum_ricci(M)
    assert np.max(np.abs(want_hv)) == 0.0
    scale = residual_scale(M.algebra.constants, M.metric.matrix, want_hh, want_vv)
    np.testing.assert_allclose(hh, want_hh, rtol=0.0, atol=1e-12 * scale)
    np.testing.assert_allclose(vv, want_vv, rtol=0.0, atol=1e-12 * scale)


def test_levi_civita_is_metric_and_torsion_free(dim2):
    bracket = lie_bracket_constants(dim2)
    g = koszul_form(dim2)
    lc = levi_civita_product(bracket, g)
    rng = np.random.default_rng(1)
    for _ in range(5):
        x, y, z = rng.uniform(-1.0, 1.0, size=(3, 2))
        # torsion free: x bar* y - y bar* x = [x, y]
        comm = multiply(lc, x, y) - multiply(lc, y, x)
        np.testing.assert_allclose(comm, multiply(bracket, x, y), atol=1e-12)
        # metric: <x bar* y, z> + <y, x bar* z> = 0 for left invariant fields
        s = multiply(lc, x, y) @ g.matrix @ z + y @ g.matrix @ multiply(lc, x, z)
        assert abs(s) <= 1e-12


def test_gamma_frozen_values(dim2):
    M = _with_koszul(dim2)
    e, H = dim2.basis_vector(0), dim2.basis_vector(1)
    np.testing.assert_allclose(
        gamma_operator(M, e), np.array([[0.0, -0.5], [-0.5, 0.0]]), atol=1e-14
    )
    np.testing.assert_allclose(
        gamma_operator(M, H), np.array([[-0.5, 0.0], [0.0, -1.0]]), atol=1e-14
    )


def test_gamma_is_linear_in_x(dim2):
    M = _with_koszul(dim2)
    e, H = dim2.basis_vector(0), dim2.basis_vector(1)
    got = gamma_operator(M, 2.0 * e - 3.0 * H)
    want = 2.0 * gamma_operator(M, e) - 3.0 * gamma_operator(M, H)
    np.testing.assert_allclose(got, want, atol=1e-13)


def test_gamma_refuses_a_misshapen_vector_before_any_work(dim2, monkeypatch):
    monkeypatch.setattr(geometry, "_gamma_data", lambda M, tol: pytest.fail("built gamma"))
    for x in (np.zeros(3), np.zeros((2, 1)), 1.0):
        with pytest.raises(DimensionMismatch):
            gamma_operator(_with_koszul(dim2), x)


@pytest.mark.parametrize("name", LSPK_NAMES)
def test_gamma_self_adjoint_for_hessian_metric(name):
    A = catalog_build(name)
    M = _with_koszul(A)
    g = M.metric.matrix
    rng = np.random.default_rng(5)
    for _ in range(3):
        x = rng.uniform(-1.0, 1.0, size=A.dim)
        gam = gamma_operator(M, x)
        np.testing.assert_allclose(g @ gam, (g @ gam).T, atol=1e-10)


def test_second_koszul_frozen(dim2):
    beta = second_koszul_form(_with_koszul(dim2))
    np.testing.assert_allclose(beta.matrix, 1.5 * np.eye(2), atol=1e-14)


@pytest.mark.parametrize("scale", [1.0, 5.0, 7.0])
def test_second_koszul_ignores_metric_scale(dim2, scale):
    beta = second_koszul_form(_with_koszul(dim2, scale))
    np.testing.assert_allclose(beta.matrix, 1.5 * np.eye(2), atol=1e-12)


def test_sum_gamma_frame_is_dual_of_alpha(dim2):
    # sum_i gamma_{E_i} E_i over a g-orthonormal frame equals the metric
    # dual of the trace one-form
    M = _with_koszul(dim2)
    g = M.metric.matrix
    frame = np.linalg.inv(np.linalg.cholesky(g)).T
    total = sum(gamma_operator(M, frame[:, i]) @ frame[:, i] for i in range(2))
    np.testing.assert_allclose(
        total, np.linalg.solve(g, trace_one_form(dim2)), atol=1e-12
    )


def test_base_curvature_frozen(dim2):
    bc = base_curvature(_with_koszul(dim2))
    np.testing.assert_allclose(bc.ricci.matrix, -0.25 * np.eye(2), atol=1e-14)
    np.testing.assert_allclose(
        bc.K[:, :, 0, 1], np.array([[0.0, -0.25], [0.25, 0.0]]), atol=1e-14
    )
    # antisymmetry in the plane arguments
    np.testing.assert_allclose(bc.K, -bc.K.transpose(0, 1, 3, 2), atol=1e-14)


def test_base_curvature_flat_for_nilpotent(a0_metric):
    bc = base_curvature(a0_metric)
    assert np.max(np.abs(bc.K)) == 0.0
    assert np.max(np.abs(bc.ricci.matrix)) == 0.0


def test_milnor_has_constant_curvature():
    h = np.array([0.0, 0.6, 0.8])
    M, k = build_milnor(MilnorSpec(3, h))
    assert k == -1.0
    bc = base_curvature(M)
    g = M.metric.matrix
    n = 3
    # K(X, Y)Z = k (<Y, Z> X - <X, Z> Y)
    eye = np.eye(n)
    want = k * (np.einsum("il,jm->lmij", g, eye) - np.einsum("jl,im->lmij", g, eye))
    np.testing.assert_allclose(bc.K, want, atol=1e-12)
    np.testing.assert_allclose(bc.ricci.matrix, k * (n - 1) * g, atol=1e-12)


def test_tangent_bundle_ricci_frozen(dim2):
    rep = tangent_bundle_ricci(_with_koszul(dim2))
    np.testing.assert_allclose(rep.tb_ricci_hh.matrix, -1.5 * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(rep.tb_ricci_vv.matrix, -1.5 * np.eye(2), atol=1e-12)
    assert np.max(np.abs(rep.tb_ricci_hv)) == 0.0
    np.testing.assert_allclose(rep.base_ricci.matrix, -0.25 * np.eye(2), atol=1e-14)
    np.testing.assert_allclose(rep.beta.matrix, 1.5 * np.eye(2), atol=1e-12)
    assert abs(rep.einstein_mu + 1.0) <= 1e-12
    assert rep.einstein and rep.einstein.residual <= 1e-12
    assert rep.hessian_residual <= 1e-12


@pytest.mark.parametrize("name", LSPK_NAMES)
def test_diagonal_blocks_agree_across_catalog(name):
    # hh = vv = -beta is enforced internally; this pins it from outside too
    rep = tangent_bundle_ricci(_with_koszul(catalog_build(name)))
    np.testing.assert_allclose(
        rep.tb_ricci_hh.matrix, rep.tb_ricci_vv.matrix, atol=1e-10
    )
    np.testing.assert_allclose(
        rep.tb_ricci_hh.matrix, -rep.beta.matrix, atol=1e-10
    )
    assert np.max(np.abs(rep.tb_ricci_hv)) <= 1e-10


def _flat_n8() -> AlgebraStructure:
    a = np.random.default_rng(8).standard_normal((7, 7))
    return build_corollary1(7, (a - a.T) / 2.0)


def _product_n8() -> AlgebraStructure:
    h = np.random.default_rng(8).standard_normal(7)
    M, _ = build_milnor(MilnorSpec(7, h / np.linalg.norm(h)))
    return build_corollary2(M)


# the catalog, plus the flat and product families at geometry-einstein's largest size
ORACLE_BUILDS = {name: functools.partial(catalog_build, name) for name in LSPK_NAMES}
ORACLE_BUILDS.update(flat_n8=_flat_n8, product_n8=_product_n8)


@pytest.mark.parametrize(
    "name, metric",
    [(name, metric) for name in LSPK_NAMES for metric in ("spd", "trace3", "trace")]
    + [("flat_n8", "spd"), ("product_n8", "spd")],
)
def test_blocks_match_frame_sum_oracle(name, metric):
    # a seeded orthogonal transport leaves no basis-aligned zeros to hide behind;
    # the random metric is not a Hessian partner, so only the oracle pins it
    rng = np.random.default_rng(list(ORACLE_BUILDS).index(name))
    A = ORACLE_BUILDS[name]()
    q, _ = np.linalg.qr(rng.standard_normal((A.dim, A.dim)))
    A = change_basis(A, q)
    B = koszul_form(A).matrix
    x = rng.standard_normal((A.dim, A.dim))
    g = {"trace": B, "trace3": 3.0 * B, "spd": x @ x.T + A.dim * np.eye(A.dim)}[metric]
    M = MetricAlgebra(A, BilinearForm(g))
    rep = tangent_bundle_ricci(M)
    assert_blocks_match_oracle(M, rep.tb_ricci_hh.matrix, rep.tb_ricci_vv.matrix)
    assert np.max(np.abs(rep.tb_ricci_hv)) == 0.0


def test_blocks_match_frame_sum_oracle_degenerate(a0_metric):
    for M in (_with_koszul(build_corollary1(0)), a0_metric):
        rep = tangent_bundle_ricci(M)
        assert_blocks_match_oracle(M, rep.tb_ricci_hh.matrix, rep.tb_ricci_vv.matrix)


def test_one_bracket_per_call(monkeypatch):
    calls = []

    def counted(A):
        calls.append(A)
        return lie_bracket_constants(A)

    monkeypatch.setattr(geometry, "lie_bracket_constants", counted)
    A = catalog_build("lspk_dim4")
    einstein_check(A)
    assert len(calls) == 1
    tangent_bundle_ricci(_with_koszul(A))
    assert len(calls) == 2


def test_nilpotent_double_space_is_ricci_flat(a0_metric):
    rep = tangent_bundle_ricci(a0_metric)
    assert np.max(np.abs(rep.tb_ricci_hh.matrix)) == 0.0
    assert np.max(np.abs(rep.tb_ricci_vv.matrix)) == 0.0
    assert np.max(np.abs(rep.tb_ricci_hv)) == 0.0
    assert rep.einstein_mu == 0.0
    # the flat metric is not a Hessian partner of this product; the report
    # carries the defect without rejecting the input
    assert rep.hessian_residual == 1.0


def test_tangent_bundle_requires_flat_product():
    M = kdim2_family(-1.0, 0.4)
    with pytest.raises(PreconditionFailed):
        tangent_bundle_ricci(M)


def test_report_serializes(dim2):
    rep = tangent_bundle_ricci(_with_koszul(dim2))
    blob = json.loads(json.dumps(rep.as_dict()))
    assert blob["einstein_mu"] == -1.0
    assert np.asarray(blob["tb_ricci_hh"]).shape == (2, 2)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_einstein_factor_tracks_metric_scale(dim2, alpha):
    # dimension 1 and 12 pin the ends of the closed-form range
    for A in (dim2, build_corollary1(0), build_corollary1(11)):
        mu = einstein_check(A, alpha)
        assert abs(mu + 1.0 / alpha) <= 1e-9, A.dim


def test_einstein_check_rejections(a0):
    with pytest.raises(NotLSPK):
        einstein_check(a0)  # degenerate trace form
    with pytest.raises(NotLSPK):
        einstein_check(kdim2_family(-1.0, 0.4).algebra)  # not left-symmetric
    with pytest.raises(ValueError):
        einstein_check(catalog_build("lspk_dim2"), -2.0)
