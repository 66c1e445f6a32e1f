"""Connection, curvature and the double-space Ricci blocks.

Every number asserted on the dim2 fixture was computed by hand: with the
trace-form metric the difference tensor has gamma_e = [[0,-1/2],[-1/2,0]],
the base Ricci form is -(1/4) I, and both diagonal Ricci blocks of the
double space equal -(3/2) I while the mixed block vanishes.
"""

import dataclasses
import functools
import json
import sys
import threading
import weakref

import numpy as np
import pytest

from leftsym import (
    AlgebraStructure,
    BilinearForm,
    DimensionMismatch,
    MetricAlgebra,
    MilnorSpec,
    NotLieBracket,
    NotLSPK,
    OracleMismatch,
    PreconditionFailed,
    Tolerance,
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
from test_slab_reduction import _one_part

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
    assert rep.hessian.max_residual <= 1e-12


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


def _geometry_calls(n: int, tol: Tolerance = Tolerance()) -> list:
    """One function per geometry call on a metric algebra, giving its arrays and numbers as bytes."""

    def gamma(e):
        return lambda M: [gamma_operator(M, e, tol).tobytes()]

    def beta(M):
        return [second_koszul_form(M, tol).matrix.tobytes()]

    def base(M):
        b = base_curvature(M, tol)
        return [a.tobytes() for a in (b.lc.constants, b.gamma, b.K, b.ricci.matrix)]

    def report(M):
        r = tangent_bundle_ricci(M, tol)
        arrays = (r.tb_ricci_hh.matrix, r.tb_ricci_vv.matrix, r.tb_ricci_hv, r.base_ricci.matrix,
                  r.beta.matrix, r.einstein_mu, r.einstein.residual, r.hessian.max_residual)
        return [np.asarray(a, dtype=float).tobytes() for a in arrays]

    return [gamma(e) for e in np.eye(n)] + [beta, base, report]


def _transported_lspk4() -> MetricAlgebra:
    A = catalog_build("lspk_dim4")
    q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((A.dim, A.dim)))
    return _with_koszul(change_basis(A, q))


def test_one_levi_civita_solve_per_metric_algebra(monkeypatch):
    calls = {"levi_civita_product": 0, "check_hessian": 0}

    def counted(name):
        fn = getattr(geometry, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(geometry, name, counted(name))
    M = _transported_lspk4()
    got = [out for call in _geometry_calls(M.dim) for out in call(M)]
    assert calls == {"levi_civita_product": 1, "check_hessian": 1}
    # a second tolerance and a replaced metric each get a record of their own
    for call in _geometry_calls(M.dim, Tolerance(1e-10)):
        call(M)
    assert calls == {"levi_civita_product": 2, "check_hessian": 2}
    M3 = dataclasses.replace(M, metric=BilinearForm(3.0 * M.metric.matrix))
    got3 = [out for call in _geometry_calls(M.dim) for out in call(M3)]
    assert calls == {"levi_civita_product": 3, "check_hessian": 3}
    # each output is the same bit for bit as the same call on a freshly built algebra
    for shared, want in ((M, got), (M3, got3)):
        fresh = [
            out
            for call in _geometry_calls(M.dim)
            for out in call(MetricAlgebra(AlgebraStructure(shared.algebra.constants),
                                          BilinearForm(shared.metric.matrix)))
        ]
        assert fresh == want


def test_a_refusal_is_never_kept():
    rng = np.random.default_rng(3)
    A = AlgebraStructure(rng.standard_normal((3, 3, 3)))  # not left-symmetric; bracket not Lie
    x = rng.standard_normal((3, 3))
    M = MetricAlgebra(A, BilinearForm(x @ x.T + 3.0 * np.eye(3)))
    residuals = []
    for e in (*np.eye(3), np.eye(3)[0]):
        with pytest.raises(NotLieBracket) as info:
            gamma_operator(M, e)
        residuals.append(info.value.residual)
        assert not vars(M).get("geometry")
    assert residuals[0] > 0.0 and len(set(residuals)) == 1


def test_the_geometry_record_cannot_be_written():
    M = _transported_lspk4()
    before = [gamma_operator(M, e).tobytes() for e in np.eye(M.dim)]
    base = base_curvature(M)
    with pytest.raises(ValueError):
        base.gamma[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        base.gamma.base[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        base.lc.constants[0, 0, 0] = 1.0
    gamma_operator(M, np.eye(M.dim)[0])[...] = 1.0  # a returned operator is the caller's own
    assert [gamma_operator(M, e).tobytes() for e in np.eye(M.dim)] == before


def test_the_geometry_record_goes_with_its_algebra():
    M = _transported_lspk4()
    n = M.dim
    second_koszul_form(M)
    (rec,) = vars(M)["geometry"].values()
    for f in dataclasses.fields(rec):
        value = getattr(rec, f.name)
        value = getattr(value, "constants", value)
        assert not isinstance(value, (MetricAlgebra, BilinearForm))
        assert np.asarray(value).size <= n**3, f.name
    gone = weakref.ref(M), weakref.ref(rec)
    del M, rec
    # freed by reference counting alone: the record does not refer back to its algebra
    assert [ref() for ref in gone] == [None, None]


def test_threads_share_one_record():
    # concurrent first calls may each build a record; the records are equal, one is kept
    M = _transported_lspk4()
    want = [call(_transported_lspk4()) for call in _geometry_calls(M.dim)]
    got, errors = [], []

    def work():
        try:
            got.append([call(M) for call in _geometry_calls(M.dim)])
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and got == [want] * len(threads)
    assert len(vars(M)["geometry"]) == 1


def test_nilpotent_double_space_is_ricci_flat(a0_metric):
    rep = tangent_bundle_ricci(a0_metric)
    assert np.max(np.abs(rep.tb_ricci_hh.matrix)) == 0.0
    assert np.max(np.abs(rep.tb_ricci_vv.matrix)) == 0.0
    assert np.max(np.abs(rep.tb_ricci_hv)) == 0.0
    assert rep.einstein_mu == 0.0
    # the flat metric is not a Hessian partner of this product; the report
    # carries the defect without rejecting the input
    assert rep.hessian.max_residual == 1.0


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


def _spd(n: int, rng: np.random.Generator) -> BilinearForm:
    x = rng.standard_normal((n, n))
    return BilinearForm(x @ x.T + n * np.eye(n))


def _one_route_cases() -> list:
    """Transported catalog entries and perfbench families (flat, product, R^n) up to n = 16."""
    cases = []
    for i, name in enumerate(LSPK_NAMES):
        A = catalog_build(name)
        q, _ = np.linalg.qr(np.random.default_rng(i).standard_normal((A.dim, A.dim)))
        cases.append(pytest.param(change_basis(A, q), id=name))
    for family in ("flat", "product", "rn"):
        for n in (1, 2, 5, 9, 16):
            cases.append(pytest.param(_one_part(family, n, n), id=f"{family}{n}"))
    return cases


@pytest.mark.parametrize("A", _one_route_cases())
@pytest.mark.parametrize("metric", ["trace", "spd"])
def test_ricci_has_one_route_and_it_is_the_trace_of_K(A, metric):
    g = koszul_form(A) if metric == "trace" else _spd(A.dim, np.random.default_rng(A.dim))
    base = base_curvature(MetricAlgebra(A, g))
    report = tangent_bundle_ricci(MetricAlgebra(A, g))
    assert base.ricci.matrix.tobytes() == report.base_ricci.matrix.tobytes()
    want = np.einsum("ajbj->ab", base.K)
    assert np.max(np.abs(base.ricci.matrix - want)) <= 1e-14 * np.max(np.abs(want))


def _moved(monkeypatch, field: str) -> None:
    """Every geometry record built from here on has its field moved by 1e-3 in each entry."""
    build = geometry._geometry

    def tampered(M, tol):
        rec = build(M, tol)
        value = getattr(rec, field)
        if isinstance(value, AlgebraStructure):
            return dataclasses.replace(rec, **{field: AlgebraStructure(value.constants + 1e-3)})
        return dataclasses.replace(rec, **{field: value + 1e-3})

    monkeypatch.setattr(geometry, "_geometry", tampered)


def _shifted(monkeypatch, ricci: float, beta: float) -> None:
    """_ricci and the trace form tangent_bundle_ricci reads are moved by the given multiples of ones."""
    ricci_of, koszul = geometry._ricci, geometry.koszul_form
    monkeypatch.setattr(geometry, "_ricci", lambda rec, compatible, tol: BilinearForm(
        ricci_of(rec, compatible, tol).matrix + ricci))
    monkeypatch.setattr(geometry, "koszul_form", lambda A: BilinearForm(koszul(A).matrix + beta))


def _oracle_refusal(call) -> str:
    with pytest.raises(OracleMismatch) as info:
        call()
    return info.value.name


def test_a_moved_gamma_stack_is_refused_as_second_trace_form(monkeypatch):
    _moved(monkeypatch, "gamma")
    M = _with_koszul(catalog_build("lspk_dim4"))
    assert _oracle_refusal(lambda: second_koszul_form(M)) == "second trace form"


def test_a_moved_bracket_is_refused_as_curvature_operator(monkeypatch):
    _moved(monkeypatch, "bracket")
    M = _with_koszul(catalog_build("lspk_dim4"))
    assert _oracle_refusal(lambda: base_curvature(M)) == "curvature operator"


def test_a_moved_bracket_is_refused_as_ricci_form(monkeypatch):
    # einstein_check builds no K, so the Ricci form is its first gamma cross-check
    _moved(monkeypatch, "bracket")
    assert _oracle_refusal(lambda: einstein_check(catalog_build("lspk_dim4"))) == "Ricci form"


@pytest.mark.parametrize("block, ricci, beta", [
    ("hh", 2.0, 0.0),  # hh moves and vv does not
    ("vv", 2.0, -2.0),  # hh still equals -beta, vv no longer does
    ("hh-vv", 1.5, -0.75),  # each within its threshold of -beta, but 1.5 thresholds apart
])
def test_each_double_space_block_check_is_live(monkeypatch, block, ricci, beta):
    A = catalog_build("lspk_dim4")
    M = _with_koszul(A)
    thr = Tolerance().eps * residual_scale(A.constants, koszul_form(A).matrix)
    tangent_bundle_ricci(_with_koszul(A))  # holds before the shift
    _shifted(monkeypatch, ricci * thr, beta * thr)
    assert _oracle_refusal(lambda: tangent_bundle_ricci(M)) == f"double-space Ricci block {block}"
