"""Index conventions of the core tensor operations, pinned by hand examples.

The convention tests use products small enough to evaluate by hand; the
property tests check bilinearity and that change_basis really transports
the multiplication (P carries the new basis as columns).  The contraction
helpers are checked against the einsum spellings they replace, which live
on here as the oracle.
"""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import leftsym
from leftsym import geometry
from leftsym import (
    AlgebraStructure,
    BilinearForm,
    DimensionMismatch,
    LeftSymError,
    MetricAlgebra,
    ResidualError,
    SingularMatrix,
    Tolerance,
    associator,
    change_basis,
    data_from_decomposition,
    decompose,
    einstein_check,
    gamma_operator,
    is_positive_definite,
    koszul_form,
    lie_bracket_constants,
    mult_operator,
    multiply,
    validate_data,
)
from leftsym.algfile import parse_algebra_file, render_algebra_file
from leftsym.catalog import catalog_build
from leftsym.core import Check, _compose, _enforce, _restrict, _worst_of

_coef = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False)


@st.composite
def algebras(draw, n=2):
    """Arbitrary structure tensor on R^n with bounded entries."""
    flat = draw(st.lists(_coef, min_size=n**3, max_size=n**3))
    return AlgebraStructure(np.array(flat).reshape(n, n, n))


@st.composite
def vectors(draw, n=2):
    return np.array(draw(st.lists(_coef, min_size=n, max_size=n)))


def test_multiply_matches_convention(dim2):
    e, H = dim2.basis_vector(0), dim2.basis_vector(1)
    np.testing.assert_array_equal(multiply(dim2, e, e), H)
    np.testing.assert_array_equal(multiply(dim2, H, e), 0.5 * e)
    np.testing.assert_array_equal(multiply(dim2, e, H), np.zeros(2))
    np.testing.assert_array_equal(multiply(dim2, H, H), H)


def test_mult_operator_sides(dim2):
    e, H = dim2.basis_vector(0), dim2.basis_vector(1)
    # L_H y = H * y, columns are H*e and H*H
    np.testing.assert_array_equal(mult_operator(dim2, H, "left"), np.diag([0.5, 1.0]))
    # R_H y = y * H, columns are e*H and H*H
    np.testing.assert_array_equal(mult_operator(dim2, H, "right"), np.diag([0.0, 1.0]))
    np.testing.assert_array_equal(mult_operator(dim2, e, "left") @ H, multiply(dim2, e, H))
    with pytest.raises(ValueError):
        mult_operator(dim2, e, "up")


def test_associator_left_symmetry(dim2):
    e, H = dim2.basis_vector(0), dim2.basis_vector(1)
    x = 0.3 * e + 1.7 * H
    y = -1.2 * e + 0.4 * H
    z = e - H
    lhs = associator(dim2, x, y, z)
    rhs = associator(dim2, y, x, z)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_lie_bracket_constants(dim2):
    cb = lie_bracket_constants(dim2)
    # [e, H] = e*H - H*e = -e/2
    np.testing.assert_array_equal(cb.constants[0, 1], np.array([-0.5, 0.0]))
    np.testing.assert_array_equal(cb.constants[1, 0], np.array([0.5, 0.0]))
    assert np.max(np.abs(cb.constants + cb.constants.transpose(1, 0, 2))) == 0.0


def test_change_basis_rotation(a0):
    # rotate a0 by 45 degrees: f1*f1 = e2/2 = (f1 + f2) / (2 sqrt 2)
    s = 1.0 / np.sqrt(2.0)
    P = np.array([[s, -s], [s, s]])
    rot = change_basis(a0, P)
    want = 1.0 / (2.0 * np.sqrt(2.0))
    np.testing.assert_allclose(rot.constants[0, 0], np.array([want, want]), atol=1e-15)


def test_change_basis_rejects_singular(a0):
    with pytest.raises(SingularMatrix):
        change_basis(a0, np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(DimensionMismatch):
        change_basis(a0, np.eye(3))


@pytest.mark.filterwarnings("error")
def test_change_basis_judges_the_condition_number_not_the_determinant(a0):
    A10 = AlgebraStructure(np.random.default_rng(0).standard_normal((10, 10, 10)))
    scaled = change_basis(A10, 0.1 * np.eye(10))  # det 1e-10, perfectly conditioned
    np.testing.assert_allclose(scaled.constants, 0.1 * A10.constants, rtol=1e-15)
    near = 1e6 * np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]])  # det about 1, condition about 4e12
    for P in (near, np.zeros((2, 2)), np.array([[np.inf, 0.0], [0.0, 1.0]])):
        with pytest.raises(SingularMatrix):
            change_basis(a0, P)
    assert change_basis(a0, near, Tolerance(1e-13)).dim == 2  # below 1/eps


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_rescaled_rn_isomorphism(n):
    rng = np.random.default_rng(n)
    P = np.eye(n) + 0.3 * rng.uniform(-1.0, 1.0, (n, n))
    canonical = np.zeros((n, n, n))
    canonical[np.arange(n), np.arange(n), np.arange(n)] = 1.0
    for scale in (1e2, 1e4, 1e6):  # the trace-form basis has det scale^-n
        twisted = change_basis(AlgebraStructure(scale * canonical), P)
        back = change_basis(twisted, leftsym.rn_isomorphism(twisted)).constants
        assert np.max(np.abs(back - canonical)) <= 1e-9, scale


def test_structure_tensor_validation():
    with pytest.raises(DimensionMismatch):
        AlgebraStructure(np.zeros((2, 2)))
    with pytest.raises(DimensionMismatch):
        AlgebraStructure(np.zeros((2, 2, 3)))
    with pytest.raises(ValueError):
        AlgebraStructure(np.full((2, 2, 2), np.nan))
    A = AlgebraStructure(np.zeros((3, 3, 3)))
    assert A.dim == 3
    with pytest.raises(ValueError):
        A.constants[0, 0, 0] = 1.0  # frozen


def test_repr_names_the_algebra_and_its_dimension():
    assert repr(AlgebraStructure(np.zeros((2, 2, 2)), name="a0")) == "AlgebraStructure('a0', dim=2)"
    assert repr(AlgebraStructure(np.zeros((0, 0, 0)))) == "AlgebraStructure('algebra', dim=0)"


def _round_trips(obj) -> list:
    return [pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)]


def test_stored_arrays_can_never_be_made_writable(monkeypatch):
    # an algebra keeps its trace form and trace-form report, a metric algebra its
    # geometry record, and split data the residuals of its systems, for as long as it
    # lives, so neither the constants, the Gram matrix, the data nor a kept array, nor
    # a copy of them, may be written; and no copy carries what the original keeps
    A = catalog_build("lspk_dim4")
    B = koszul_form(A)
    M = MetricAlgebra(A, B)
    gamma_operator(M, A.basis_vector(0))
    einstein_check(A)
    data = data_from_decomposition(decompose(A))
    validate_data(data)
    assert {"trace form", "scale", "left symmetry", "einstein"} <= set(dir(A)) and "geometry" in dir(M)
    assert "systems" in dir(data)
    algebras = [A, *_round_trips(A)]
    metrics = [M, *_round_trips(M)]
    grams = [B, *_round_trips(B)] + [X.metric for X in metrics]
    datas = [data, *_round_trips(data)]
    fields = [f.name for f in dataclasses.fields(data)]
    assert all(set(vars(X)) == {"constants", "name", "dim"} for X in algebras[1:])
    assert all(set(vars(X)) == {"algebra", "metric"} for X in metrics[1:])
    assert all(set(vars(X)) == set(fields) for X in datas[1:])
    assert all(validate_data(X) == validate_data(data) for X in datas[1:])
    arrays = [X.constants for X in algebras] + [X.algebra.constants for X in metrics]
    arrays += [F.matrix for F in grams] + [rec.gamma for rec in vars(M)["geometry"].values()]
    for rep in vars(A)["einstein"].values():  # the kept trace-form report
        forms = (rep.base_ricci, rep.tb_ricci_hh, rep.tb_ricci_vv, rep.beta)
        arrays += [rep.tb_ricci_hv] + [F.matrix for F in forms]
    arrays += [getattr(X, f) for X in datas for f in fields[2:]]
    for a in arrays:
        with pytest.raises(ValueError):
            a.setflags(write=True)
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1.0
        assert not a.base.flags.writeable
    assert all(X.constants.tobytes() == A.constants.tobytes() for X in algebras)
    assert all((F.matrix.tobytes(), F.asymmetry) == (B.matrix.tobytes(), B.asymmetry) for F in grams)
    assert all((X.name, X.dim) == (A.name, A.dim) for X in algebras)
    # a deep copy measures its own geometry once; the original reads its kept record
    solves = []
    solve = geometry.levi_civita_product
    monkeypatch.setattr(geometry, "levi_civita_product", lambda *a: solves.append(1) or solve(*a))
    deep, x = copy.deepcopy(M), A.basis_vector(1)
    want = gamma_operator(M, x).tobytes()
    assert [gamma_operator(X, x).tobytes() for X in (deep, deep, M)] == [want] * 3
    assert len(solves) == 1
    # the algebra file round trip stays bit-exact and read-only
    parsed = parse_algebra_file(render_algebra_file(A, metric=B)).algebra
    assert parsed.constants.tobytes() == A.constants.tobytes()
    with pytest.raises(ValueError):
        parsed.constants.setflags(write=True)


def test_an_owner_refuses_a_non_finite_array_when_unpickled():
    # every owner (algebra, Gram matrix, split data) unpickles through core._Owner,
    # which freezes its arrays again with the finiteness rule of construction
    A = catalog_build("lspk_dim4")
    owners = [(A, "constants"), (koszul_form(A), "matrix"), (data_from_decomposition(decompose(A)), "rho2")]
    for owner, key in owners:
        rebuild, args, state = owner.__reduce_ex__(2)[:3]
        state = dict(state, **{key: np.full(state[key].shape, np.nan)})
        with pytest.raises(ValueError, match=f"^{key} must be finite$"):
            rebuild(*args).__setstate__(state)


def test_tolerance_from_env(monkeypatch):
    monkeypatch.delenv("LSPK_EPS", raising=False)
    assert Tolerance.from_env().eps == Tolerance().eps
    monkeypatch.setenv("LSPK_EPS", "1e-4")
    assert Tolerance.from_env().eps == 1e-4
    with pytest.raises(ValueError):
        Tolerance(-1.0)


def _checks(threshold: float, **residuals) -> tuple:
    return tuple(Check(name, value, threshold) for name, value in residuals.items())


def test_enforce_raises_first_residual_above_threshold():
    ok = _checks(1.0, vacuous=None, at=1.0, below=0.5)
    _enforce(ok, ResidualError)
    assert [c.holds for c in ok] == [True, True, True]
    with pytest.raises(ResidualError) as info:
        _enforce(_checks(1.0, fine=0.1, first=1.5, second=3.0), ResidualError)
    assert (info.value.name, info.value.residual) == ("first", 1.5)


def test_enforce_fails_a_nan_residual():
    # "passes when it is at most the threshold": NaN is not at most anything
    with pytest.raises(ResidualError) as info:
        _enforce(_checks(1.0, fine=0.1, broken=float("nan")), ResidualError)
    assert info.value.name == "broken" and np.isnan(info.value.residual)


_EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-300, 1.5, -2.0, 1e300, -1e300]


@settings(max_examples=500, deadline=None)
@given(residual=st.none() | st.sampled_from(_EDGES) | st.floats(),
       threshold=st.sampled_from(_EDGES) | st.floats())
@example(residual=math.inf, threshold=math.inf)  # the ratio alone gives NaN for a check that holds
@example(residual=1.0, threshold=-1e-9)  # and a negative margin for an indefinite form
def test_margin_is_at_most_one_exactly_when_the_check_holds(residual, threshold):
    check = Check("relation", residual, threshold)
    assert (check.margin <= 1) == check.holds


def test_margin_of_a_ratio_a_definiteness_check_and_a_signature():
    assert Check("ratio", 0.5, 2.0).margin == 0.25
    assert Check("vacuous", None, -1.0).margin == 0.0
    definite = is_positive_definite(BilinearForm(2.0 * np.eye(2)))  # residual -2, threshold -2e-9
    assert definite.threshold < 0 and definite.margin == definite.threshold / definite.residual
    assert definite.margin == pytest.approx(1e-9)
    indefinite = is_positive_definite(BilinearForm(np.diag([1.0, -1.0])))
    assert (indefinite.holds, indefinite.margin) == (False, math.inf)
    # catalog_verify's signature check: the largest part-dimension mismatch against 0
    assert Check("signature", 0.0, 0.0).margin == 0.0
    assert Check("signature", 1.0, 0.0).margin == math.inf


def test_residual_scale_keeps_a_nan():
    assert np.isnan(leftsym.residual_scale(np.array([np.nan])))
    assert np.isnan(leftsym.residual_scale(np.ones(2), np.array([1.0, np.nan])))
    assert leftsym.residual_scale() == 1.0
    # a relation scaled by NaN data fails by name, whatever its residual
    scaled = Check("scaled by NaN", 0.0, 1e-9 * leftsym.residual_scale(np.array([np.nan])))
    with pytest.raises(ResidualError) as info:
        _enforce([scaled], ResidualError)
    assert info.value.name == "scaled by NaN"


def test_worst_of_propagates_nan_from_any_position():
    nan = float("nan")
    assert _worst_of([None, 0.5, 2.0, None]) == 2.0
    assert _worst_of([None, None]) is None
    assert _worst_of([], default=0.0) == 0.0
    for values in ([nan, 1.0, 2.0], [1.0, nan, 2.0], [1.0, 2.0, nan, None]):
        assert np.isnan(_worst_of(values))


@pytest.mark.parametrize("cls", ResidualError.__subclasses__(), ids=lambda c: c.__name__)
def test_residual_errors_carry_name_and_residual(cls):
    assert getattr(leftsym, cls.__name__) is cls
    exc = cls("some relation", 2.5e-3)
    assert isinstance(exc, LeftSymError)
    assert (exc.name, exc.residual) == ("some relation", 2.5e-3)
    assert "2.500e-03" in str(exc)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert (back.name, back.residual, str(back)) == (exc.name, exc.residual, str(exc))


@settings(max_examples=60)
@given(A=algebras(), x=vectors(), y=vectors(), z=vectors(), a=_coef)
def test_multiply_is_bilinear(A, x, y, z, a):
    left = multiply(A, a * x + y, z)
    np.testing.assert_allclose(left, a * multiply(A, x, z) + multiply(A, y, z), atol=1e-9)
    right = multiply(A, x, a * y + z)
    np.testing.assert_allclose(right, a * multiply(A, x, y) + multiply(A, x, z), atol=1e-9)


@st.composite
def invertible(draw, n=2):
    flat = draw(st.lists(_coef, min_size=n * n, max_size=n * n))
    P = np.eye(n) + 0.4 * np.array(flat).reshape(n, n)
    if abs(np.linalg.det(P)) < 0.2:
        P = P + np.eye(n)
    return P


@settings(max_examples=60)
@given(A=algebras(), P=invertible(), u=vectors(), v=vectors())
def test_change_basis_transports_product(A, P, u, v):
    if abs(np.linalg.det(P)) < 0.2:
        return
    Ab = change_basis(A, P)
    # product of new-coordinate vectors, pushed back to old coordinates
    np.testing.assert_allclose(
        P @ multiply(Ab, u, v), multiply(A, P @ u, P @ v), atol=1e-7
    )


@settings(max_examples=30)
@given(A=algebras(), P=invertible())
def test_change_basis_round_trip(A, P):
    if abs(np.linalg.det(P)) < 0.2:
        return
    back = change_basis(change_basis(A, P), np.linalg.inv(P))
    np.testing.assert_allclose(back.constants, A.constants, atol=1e-8)


# Oracle: the einsum spellings the contraction helpers replace.  A GEMM sums in
# another order, so results agree to rounding, measured against the same
# contraction of absolute values (the scale of the rounding error).
_SIZES = [1, 2, 5, 12, 24]


def _basis(n: int, cond: float, rng: np.random.Generator) -> np.ndarray:
    """Random n x n matrix with condition number cond and |det| = 1."""
    q1 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    q2 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    s = np.sqrt(cond) ** np.linspace(1.0, -1.0, n) if n > 1 else np.ones(1)
    return q1 @ np.diag(s) @ q2


def _agrees(got: np.ndarray, spec: str, *operands: np.ndarray) -> None:
    want = np.einsum(spec, *operands)
    scale = np.einsum(spec, *(np.abs(x) for x in operands), optimize=True)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-13 * max(1.0, np.max(scale, initial=0.0))


@pytest.mark.parametrize("cond", [1.0, 1e6], ids=["orthogonal", "cond1e6"])
@pytest.mark.parametrize("n", _SIZES)
def test_change_basis_matches_einsum(n, cond):
    rng = np.random.default_rng(100 + n)
    c = rng.standard_normal((n, n, n))
    P = _basis(n, cond, rng)
    got = change_basis(AlgebraStructure(c), P).constants
    _agrees(got, "ia,jb,ijk,ck->abc", P, P, c, np.linalg.inv(P))


@pytest.mark.parametrize("cond", [1.0, 1e6], ids=["orthogonal", "cond1e6"])
@pytest.mark.parametrize("n", _SIZES)
def test_restrict_matches_einsum(n, cond):
    rng = np.random.default_rng(200 + n)
    c = rng.standard_normal((n, n, n))
    P = _basis(n, cond, rng)
    # all columns, the n - 1 columns of a complement (shape (1, 0) at n = 1),
    # and the empty basis the derived series can shrink to
    for U in (P, P[:, 1:], P[:, :0]):
        _agrees(_restrict(c, U), "ia,jb,ijk->abk", U, U, c)


@pytest.mark.parametrize("n", _SIZES + [64])
def test_mult_operator_matches_einsum_bit_for_bit(n):
    # the accumulation order of mult_operator is the einsum's, signed zeros included
    rng = np.random.default_rng(400 + n)
    c = rng.standard_normal((n, n, n)) * 10.0 ** rng.integers(-3, 4, size=(n, n, n))
    c[rng.random((n, n, n)) < 0.3] = 0.0
    A = AlgebraStructure(c)
    for x in (rng.standard_normal(n), -np.abs(rng.standard_normal(n)) * (rng.random(n) < 0.7)):
        for side, spec in (("left", "i,ijk->kj"), ("right", "j,ijk->ki")):
            got, want = mult_operator(A, x, side), np.einsum(spec, x, c)
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("n", _SIZES)
def test_compose_matches_einsum(n):
    rng = np.random.default_rng(300 + n)
    c = rng.standard_normal((n, n, n))
    d = rng.standard_normal((n, n, n))
    v = rng.standard_normal(n)
    w = rng.standard_normal((n, n - 1))
    _agrees(_compose(c, d), "ijm,mkl->ijkl", c, d)
    _agrees(_compose(c, d.transpose(1, 0, 2)), "ijm,kml->ijkl", c, d)
    _agrees(_compose(v, c), "m,mjk->jk", v, c)
    _agrees(_compose(c, w), "abk,kc->abc", c, w)
    _agrees(_compose(c[:0], d), "ijm,mkl->ijkl", c[:0], d)
    _agrees(_compose(c[:, :, :0], d[:0]), "ijm,mkl->ijkl", c[:, :, :0], d[:0])
