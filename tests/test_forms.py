"""Trace forms and axiom predicates against hand-computed values.

The dim2 fixture has Koszul form (3/2) I and trace one-form (0, 3/2); the
nilpotent plane has vanishing Koszul form.  Predicate coverage pairs one
algebra that satisfies each axiom with one that breaks it.
"""

import json
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leftsym import (
    AlgebraStructure,
    BilinearForm,
    MetricAlgebra,
    NotAntisymmetric,
    PreconditionFailed,
    Tolerance,
    change_basis,
    check_associative,
    check_commutative,
    check_hessian,
    check_jacobi,
    check_k_hessian,
    check_koszul_identity,
    check_left_symmetric,
    check_novikov,
    decompose,
    einstein_check,
    gamma_operator,
    is_positive_definite,
    is_solvable,
    koszul_form,
    lie_bracket_constants,
    find_idempotent_H,
    rn_isomorphism,
    second_koszul_form,
    split_h,
    tangent_bundle_ricci,
    trace_one_form,
)
from leftsym.algfile import render_algebra_file
from leftsym.catalog import catalog_build, catalog_entry, catalog_list, sl2_bracket
from leftsym.construct import MilnorSpec, build_corollary1, build_milnor, kdim2_family
from leftsym import forms
from leftsym.cli import run
from leftsym.core import Check, _conjunction

_angle = st.floats(min_value=0.0, max_value=6.2, allow_nan=False, allow_infinity=False)


def test_left_symmetry_check_holds_two_rank4_arrays_at_most():
    # the defect and its absolute value; a third n^4 temporary shows as +1.0
    n = 24
    A = AlgebraStructure(np.random.default_rng(24).standard_normal((n, n, n)))
    tracemalloc.start()
    try:
        check_left_symmetric(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (2.0 + 0.25) * 8 * n**4


def test_koszul_form_dim2(dim2):
    B = koszul_form(dim2)
    np.testing.assert_allclose(B.matrix, 1.5 * np.eye(2), atol=1e-15)
    assert is_positive_definite(B)


def test_koszul_form_nilpotent(a0):
    B = koszul_form(a0)
    np.testing.assert_array_equal(B.matrix, np.zeros((2, 2)))
    assert not is_positive_definite(B)


def test_koszul_form_refuses_overflowing_products():
    # finite coefficients whose trace form overflows to inf
    A = AlgebraStructure(np.random.default_rng(0).standard_normal((3, 3, 3)) * 1e155)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(PreconditionFailed):
        koszul_form(A)


def test_bilinear_form_symmetrizes_without_overflow():
    big = np.array([[1.7e308, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(BilinearForm(big).matrix, big)
    skewed = BilinearForm(np.array([[1.0, 1.7e308], [1.5e308, 1.0]]))
    assert skewed.matrix[0, 1] == skewed.matrix[1, 0] == 1.7e308 / 2.0 + 1.5e308 / 2.0
    assert skewed.asymmetry == 1.7e308 - 1.5e308
    assert BilinearForm(np.array([[0.0, 1.7e308], [-1.7e308, 0.0]])).asymmetry == np.inf
    # below half the float range the mean is (m + m.T) / 2, bit for bit
    m = np.random.default_rng(3).standard_normal((6, 6))
    np.testing.assert_array_equal(BilinearForm(m).matrix, (m + m.T) / 2.0)


def test_trace_one_form(dim2):
    # alpha[k] = -tr(L_{e_k}); L_H = diag(1/2, 1)
    np.testing.assert_allclose(trace_one_form(dim2), np.array([0.0, -1.5]), atol=1e-15)


def test_positive_definite_edge_cases():
    assert not is_positive_definite(BilinearForm(np.diag([1.0, -1.0])))
    assert not is_positive_definite(BilinearForm(np.diag([1.0, 0.0])))
    assert is_positive_definite(BilinearForm(np.diag([1.0, 1e-3])))


def test_left_symmetric_predicate(dim2, a0):
    assert check_left_symmetric(dim2)
    assert check_left_symmetric(a0)
    # nonzero curvature parameter forces a failure
    M = kdim2_family(-1.0, 0.9)
    rep = check_left_symmetric(M.algebra)
    assert not rep
    assert rep.max_residual > 0.1


def test_commutative_predicate(dim2):
    assert not check_commutative(dim2)
    assert check_commutative(catalog_build("khess_r3_commutative").algebra)


def test_associative_and_novikov(dim2):
    rn = catalog_build("rn_canonical", {"n": 3})
    assert check_associative(rn)
    assert check_novikov(rn)
    assert not check_associative(dim2)
    assert not check_novikov(dim2)


def test_hessian_predicate(dim2, a0):
    B = koszul_form(dim2)
    assert check_hessian(dim2, B)
    # the nilpotent plane is not Hessian for the flat metric: residual is
    # exactly the single structure constant
    rep = check_hessian(a0, BilinearForm.identity(2))
    assert not rep
    assert rep.max_residual == 1.0


def test_koszul_identity_on_lspk(dim2):
    assert check_koszul_identity(dim2)
    A = build_corollary1(3)
    assert check_koszul_identity(A)


def test_k_hessian_predicate():
    M = kdim2_family(-1.0, 1.0)
    assert check_k_hessian(M.algebra, M.metric, -1.0)
    assert not check_k_hessian(M.algebra, M.metric, -2.0)
    assert not check_k_hessian(M.algebra, M.metric, 0.0)


def test_k_hessian_reports_its_failing_part():
    # the sectional part passes (5.97e-9 against 9e-9) and the hessian part fails:
    # the conjunction reports the hessian part, not the larger passing residual
    M, k = build_milnor(MilnorSpec(3, np.array([3.0, 0.0, 0.0])))
    noise = 5e-10 * np.random.default_rng(3).standard_normal((3, 3, 3))
    A = AlgebraStructure(M.algebra.constants + noise)
    rep = check_k_hessian(A, M.metric, k)
    assert not rep
    assert rep == check_hessian(A, M.metric)
    assert rep.name == "hessian" and rep.witness == (0, 1, 0)
    assert abs(rep.residual - 4.88e-9) <= 1e-11 and abs(rep.threshold - 3e-9) <= 1e-18


def test_jacobi_and_solvable(dim2):
    br = lie_bracket_constants(dim2)
    assert check_jacobi(br)
    assert is_solvable(br)
    sl2 = sl2_bracket()
    assert check_jacobi(sl2)
    assert not is_solvable(sl2)
    with pytest.raises(Exception):
        check_jacobi(dim2)  # not antisymmetric


@pytest.mark.parametrize("k", range(-14, 15, 2))
def test_solvability_ignores_a_rescaling(k):
    assert not is_solvable(AlgebraStructure(10.0**k * sl2_bracket().constants))
    for name in (e for e in catalog_list() if catalog_entry(e).kind == "lspk"):
        bracket = lie_bracket_constants(catalog_build(name)).constants
        assert is_solvable(AlgebraStructure(10.0**k * bracket)), name


def test_every_predicate_is_vacuous_at_dimension_zero():
    A, F = AlgebraStructure(np.zeros((0, 0, 0))), BilinearForm(np.zeros((0, 0)))
    checks = [
        check_left_symmetric(A), check_commutative(A), check_associative(A), check_novikov(A),
        check_jacobi(A), check_hessian(A, F), check_koszul_identity(A), check_k_hessian(A, F, -1.0),
        is_positive_definite(F),
    ]
    assert [(c.residual, c.witness, c.holds, c.max_residual) for c in checks] == [(None, None, True, 0.0)] * 9


def test_the_zero_algebra_is_solvable():
    assert is_solvable(AlgebraStructure(np.zeros((0, 0, 0))))


def test_a_tolerance_of_one_ranks_every_derived_algebra_zero():
    # sigma_max exceeds max|C| = 2, and no singular value exceeds 1 * sigma_max
    assert is_solvable(sl2_bracket(), Tolerance(1.0))


def test_geometry_and_rn_isomorphism_are_vacuous_at_dimension_zero(tmp_path, capsys):
    A = AlgebraStructure(np.zeros((0, 0, 0)))
    M = MetricAlgebra(A, BilinearForm(np.zeros((0, 0))))
    assert rn_isomorphism(A).shape == (0, 0)
    assert einstein_check(A) == 0.0
    assert gamma_operator(M, np.zeros(0)).shape == (0, 0)
    assert second_koszul_form(M).matrix.shape == (0, 0)
    report = tangent_bundle_ricci(M).as_dict()
    assert report["tb_ricci_hh"] == report["tb_ricci_vv"] == report["beta"] == []
    assert (report["einstein_mu"], report["einstein_residual"], report["hessian_residual"]) == (0.0,) * 3
    path = tmp_path / "empty.json"
    path.write_text(render_algebra_file(A))
    for flags in ([], ["--einstein"]):
        assert run(["geometry", str(path), "--json", *flags]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert {k: v for k, v in json.loads(captured.out).items() if k != "einstein"} == report


def test_split_h_on_a_line_has_a_vacuous_split_left_symmetry():
    A = catalog_build("rn_canonical", {"n": 1})
    assert split_h(A, find_idempotent_H(A)).residuals["split left-symmetric"] is None


def test_jacobi_rejects_non_antisymmetric_constants():
    with pytest.raises(NotAntisymmetric) as info:
        check_jacobi(catalog_build("lspk_dim2"))
    assert info.value.residual > 0.0


def test_rn_isomorphism_skips_a_combination_with_a_repeated_eigenvalue():
    # In the frame O of P = O diag(1, 2) the left multiplications of R^2 combine to a
    # matrix with eigenvalues O c, for the first seeded coefficients c.  The rotation O
    # that sends c to the diagonal repeats that eigenvalue, so the first attempt's basis
    # fails its "idempotent basis" certificate and the next seed splits.
    c = np.random.default_rng(20240517).standard_normal(2)
    a = np.pi / 4 - np.arctan2(c[1], c[0])
    O = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    assert abs((O @ c)[0] - (O @ c)[1]) <= 1e-15
    rn2 = catalog_build("rn_canonical", {"n": 2})
    twisted = change_basis(rn2, O @ np.diag([1.0, 2.0]))
    back = change_basis(twisted, rn_isomorphism(twisted)).constants
    np.testing.assert_allclose(back, rn2.constants, atol=1e-12)


def test_rn_isomorphism_canonical():
    A = catalog_build("rn_canonical", {"n": 4})
    P = rn_isomorphism(A)
    np.testing.assert_allclose(P, np.eye(4), atol=1e-9)


def test_rn_isomorphism_conjugated():
    A = catalog_build("rn_canonical", {"n": 3})
    rng = np.random.default_rng(7)
    Q = np.eye(3) + 0.5 * rng.uniform(-1.0, 1.0, size=(3, 3))
    twisted = change_basis(A, Q)
    P = rn_isomorphism(twisted)
    back = change_basis(twisted, P)
    np.testing.assert_allclose(back.constants, A.constants, atol=1e-8)


def test_rn_isomorphism_preconditions(dim2, a0):
    with pytest.raises(PreconditionFailed):
        rn_isomorphism(dim2)  # not commutative
    with pytest.raises(PreconditionFailed):
        rn_isomorphism(a0)  # trace form vanishes


@settings(max_examples=25)
@given(theta=_angle, family=st.sampled_from([1, 2]))
def test_planar_families_trace_free(theta, family):
    M = kdim2_family(-1.0, theta, family)
    np.testing.assert_allclose(
        trace_one_form(M.algebra), np.zeros(2), atol=1e-12
    )
    np.testing.assert_allclose(
        koszul_form(M.algebra).matrix, np.zeros((2, 2)), atol=1e-12
    )


@settings(max_examples=20)
@given(n=st.integers(min_value=1, max_value=5))
def test_koszul_identity_follows_from_left_symmetry(n):
    A = build_corollary1(n)
    assert check_left_symmetric(A)
    assert check_koszul_identity(A)


def test_koszul_transforms_by_congruence(dim2):
    rng = np.random.default_rng(11)
    P = np.eye(2) + 0.4 * rng.uniform(-1.0, 1.0, size=(2, 2))
    B = koszul_form(dim2)
    Bp = koszul_form(change_basis(dim2, P))
    np.testing.assert_allclose(Bp.matrix, P.T @ B.matrix @ P, atol=1e-12)


def test_predicate_report_is_truthy(dim2):
    rep = check_left_symmetric(dim2)
    assert bool(rep) is True
    assert rep.max_residual <= Tolerance().eps
    assert rep.witness is None or len(rep.witness) > 0


def test_joint_reports_a_nan_residual_from_either_side():
    bad, good = Check("bad", float("nan"), 2.0, (0, 1)), Check("good", 1.0, 2.0, (2,))
    for checks in [(bad, good), (good, bad)]:
        joint = _conjunction(checks)
        assert joint.holds is False
        assert np.isnan(joint.max_residual) and joint.witness == (0, 1)


def _transported_lspk4() -> AlgebraStructure:
    A = catalog_build("lspk_dim4")
    q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((A.dim, A.dim)))
    return change_basis(A, q)


def _algebra_calls(A: AlgebraStructure, tol: Tolerance = Tolerance()) -> list:
    """check_left_symmetric, decompose, check_novikov and einstein_check of A, as bytes and reprs."""
    dec = decompose(A, tol)
    arrays = (dec.H, dec.basis, dec.S, dec.A_op, dec.B1, dec.B2, dec.rho2, dec.omega1,
              dec.frame.constants, dec.circ2.constants)
    return [
        repr(check_left_symmetric(A, tol)),
        repr((dec.signature, dec.checks)),
        *(a.tobytes() for a in arrays),
        repr(check_novikov(A, tol)),
        *(repr(einstein_check(A, alpha, tol)) for alpha in (0.5, 1.0, 2.0)),
    ]


def _count_per_algebra_work(monkeypatch) -> dict:
    """Counters on the left-symmetry kernel and the trace-form contraction, by structure tensor."""
    calls = {"kernel": [], "trace form": []}
    kernel, trace_form = forms._left_symmetry_worst, forms._trace_form

    def counted_kernel(c, target=None):
        calls["kernel"].append(c)
        return kernel(c, target)

    def counted_trace_form(A):
        calls["trace form"].append(A.constants)
        return trace_form(A)

    monkeypatch.setattr(forms, "_left_symmetry_worst", counted_kernel)
    monkeypatch.setattr(forms, "_trace_form", counted_trace_form)
    return calls


def _runs_on(calls: dict, A: AlgebraStructure) -> dict:
    return {name: sum(c is A.constants for c in seen) for name, seen in calls.items()}


def _entries(A: AlgebraStructure) -> dict:
    """What A keeps beside its dataclass fields."""
    return {key: value for key, value in vars(A).items() if key not in ("constants", "name", "dim")}


def test_left_symmetry_and_the_trace_form_are_computed_once_per_algebra(monkeypatch):
    calls = _count_per_algebra_work(monkeypatch)
    A = _transported_lspk4()
    got = _algebra_calls(A)
    got_again = _algebra_calls(A)
    assert _runs_on(calls, A) == {"kernel": 1, "trace form": 1}
    assert got_again == got
    # the same calls on a fresh copy of A give the same bytes, and measure once more
    fresh = AlgebraStructure(A.constants)
    assert _algebra_calls(fresh) == got
    assert _runs_on(calls, fresh) == {"kernel": 1, "trace form": 1}


def test_each_tolerance_gets_its_own_threshold_from_one_measurement(monkeypatch):
    calls = _count_per_algebra_work(monkeypatch)
    A = AlgebraStructure(np.random.default_rng(5).standard_normal((6, 6, 6)) * 3.0)
    loose, tight = check_left_symmetric(A, Tolerance(1e-6)), check_left_symmetric(A, Tolerance(1e-12))
    assert (loose.residual, loose.witness) == (tight.residual, tight.witness)
    scale = np.max(np.abs(A.constants))
    assert (loose.threshold, tight.threshold) == (1e-6 * scale, 1e-12 * scale)
    assert _runs_on(calls, A)["kernel"] == 1


def test_an_overflowing_trace_form_is_refused_on_every_call(monkeypatch):
    calls = _count_per_algebra_work(monkeypatch)
    A = AlgebraStructure(np.random.default_rng(0).standard_normal((3, 3, 3)) * 1e155)
    with np.errstate(over="ignore", invalid="ignore"):
        for attempt in range(1, 4):
            for call in (koszul_form, find_idempotent_H, check_koszul_identity):
                with pytest.raises(PreconditionFailed):
                    call(A)
            assert _runs_on(calls, A)["trace form"] == 3 * attempt
    assert "trace form" not in _entries(A)


def test_the_per_algebra_entry_goes_with_its_algebra():
    A = _transported_lspk4()
    _algebra_calls(A)
    entries = _entries(A)
    assert set(entries) == {"trace form", "scale", "left symmetry", "einstein"}
    for value in entries.values():
        assert not isinstance(value, AlgebraStructure)
        assert np.asarray(getattr(value, "matrix", value), dtype=object).size <= A.dim**2
    gone = weakref.ref(A), weakref.ref(entries["trace form"])
    del A, entries, value
    # freed by reference counting alone: no entry refers back to its algebra
    assert [ref() for ref in gone] == [None, None]


def test_threads_share_one_entry():
    A = _transported_lspk4()
    want = _algebra_calls(AlgebraStructure(A.constants))
    got, forms_seen, einstein_seen, errors = [], [], [], []

    def work():
        try:
            got.append(_algebra_calls(A))
            forms_seen.append(koszul_form(A))
            einstein_seen.append(vars(A)["einstein"][Tolerance()].einstein)
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
    assert all(B is forms_seen[0] for B in forms_seen)
    assert all(check is einstein_seen[0] for check in einstein_seen)
    assert len(_entries(A)) == 4
