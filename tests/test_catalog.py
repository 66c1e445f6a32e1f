"""Fixture library: every entry self-verifies at defaults and random draws.

One cross-entry identity is pinned exactly: the theta = 0 member of the
second three dimensional family coincides, after a rotation of the first
two basis vectors, with the cone construction over the unit plane model.
"""

import dataclasses
import math
import pickle
import zlib

import numpy as np
import pytest

from leftsym import (
    AlgebraStructure,
    FixtureBroken,
    MetricAlgebra,
    MilnorSpec,
    Tolerance,
    UnknownEntry,
    build_corollary2,
    build_lspk,
    build_milnor,
    change_basis,
    check_commutative,
    check_jacobi,
    decompose,
    is_solvable,
    koszul_form,
    validate_data,
)
from leftsym import catalog
from leftsym.catalog import (
    catalog_build,
    catalog_entry,
    catalog_list,
    catalog_verify,
    sample_params,
    sl2_bracket,
)

REQUIRED = {
    "rn_canonical", "lspk_dim2", "lspk_dim3_case1", "lspk_dim3_case2",
    "lspk_dim3_case3", "lspk_dim4", "lspk_dim5", "khess_kdim2_f1",
    "khess_kdim2_f2", "khess_r2_example", "khess_r3_commutative",
    "milnor", "nilpotent_A0",
}


def test_catalog_names():
    names = catalog_list()
    assert len(names) >= 13
    assert REQUIRED <= set(names)
    assert names == sorted(names) or len(set(names)) == len(names)


@pytest.mark.parametrize("name", sorted(REQUIRED))
def test_entry_verifies_at_defaults(name):
    rep = catalog_verify(name)
    assert rep
    assert rep.max_residual <= 1e-8


@pytest.mark.parametrize("name", sorted(REQUIRED))
def test_entry_verifies_at_random_params(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))  # unsalted, so a failure replays
    for _ in range(3):
        params = sample_params(name, rng)
        rep = catalog_verify(name, params)
        assert rep, f"{name} failed at {params}"


SPLIT = sorted(name for name in REQUIRED if name.startswith("lspk_"))


@pytest.mark.parametrize("name", SPLIT)
def test_declared_split_data_is_certified_and_written_as_build_lspk_writes_it(name):
    # an lspk_* entry is its declared split data, written unchecked by construct's
    # layout writer: the data satisfies its compatibility systems, and build_lspk,
    # the certified route, writes the entry's tensor bit for bit
    entry, rng = catalog_entry(name), np.random.default_rng(sum(map(ord, name)))
    for params in [{}] + [sample_params(name, rng) for _ in range(20)]:
        resolved = entry.resolve(params)
        data = getattr(catalog, f"_{name}")(**resolved)
        assert validate_data(data), f"{name} at {resolved}"
        built, rebuilt = catalog_build(name, params), build_lspk(data, name=name)
        assert rebuilt.constants.tobytes() == built.constants.tobytes(), f"{name} at {resolved}"
        assert rebuilt.name == built.name == name


def test_unknown_entry():
    with pytest.raises(UnknownEntry):
        catalog_entry("no_such_family")
    with pytest.raises(UnknownEntry):
        catalog_build("no_such_family")


def test_parameter_validation():
    with pytest.raises(ValueError):
        catalog_build("rn_canonical", {"n": 0})
    with pytest.raises(ValueError):
        catalog_build("rn_canonical", {"bogus": 1})
    with pytest.raises(ValueError):
        catalog_build("lspk_dim5", {"branch": 7})
    with pytest.raises(ValueError):
        catalog_build("khess_kdim2_f1", {"k": 1.0})


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=str)
@pytest.mark.parametrize("name, param", [("rn_canonical", "n"), ("lspk_dim4", "beta"), ("lspk_dim5", "branch")])
def test_parameter_validation_refuses_a_non_finite_value_by_name(name, param, value):
    # first, before an integer conversion overflows and before NaN slips past every bound
    with pytest.raises(ValueError) as info:
        catalog_build(name, {param: value})
    assert str(info.value) == f"parameter {param} must be finite, got {value}"


def test_entry_kinds():
    # the kind is read off the declared invariants, for all thirteen entries
    assert {name: catalog_entry(name).kind for name in catalog_list()} == {
        **{n: "lspk" for n in ("rn_canonical", "lspk_dim2", "lspk_dim3_case1", "lspk_dim3_case2",
                               "lspk_dim3_case3", "lspk_dim4", "lspk_dim5")},
        **{n: "khessian" for n in ("khess_kdim2_f1", "khess_kdim2_f2", "khess_r2_example",
                                   "khess_r3_commutative", "milnor")},
        "nilpotent_A0": "nilpotent",
    }
    assert isinstance(catalog_build("milnor"), MetricAlgebra)
    assert isinstance(catalog_build("lspk_dim2"), AlgebraStructure)


def test_an_entry_declares_no_kind():
    # an entry's kind follows from expected_signature and expected_k, so it is no
    # field that could disagree with them, and catalog_verify reads those two
    assert "kind" not in {f.name for f in dataclasses.fields(catalog.CatalogEntry)}
    with pytest.raises(TypeError):
        dataclasses.replace(catalog_entry("nilpotent_A0"), kind="lspk")


def test_khess_r2_builder_refuses_an_indefinite_metric():
    # the parameter ranges keep catalog_build inside the family; the builder itself
    # refuses y^2 / 4 < 1 at k > 0, where mu = (y^2 / 4 - 1) / k is negative
    with pytest.raises(ValueError, match=r"metric diag\(1.0, -0.375\) is not positive definite"):
        catalog._khess_r2_example(1.0, 1.0, 2.0)


def test_khess_r2_koszul_frozen():
    M = catalog_build("khess_r2_example", {"lam": 1.0, "y": 3.0, "k": 2.0})
    B = koszul_form(M.algebra)
    np.testing.assert_allclose(B.matrix, np.diag([18.0, 13.5]), atol=1e-12)


def test_nilpotent_a0_has_zero_koszul():
    A = catalog_build("nilpotent_A0")
    np.testing.assert_array_equal(koszul_form(A).matrix, np.zeros((2, 2)))


def test_case2_is_the_cone_over_the_unit_plane():
    case2 = catalog_build("lspk_dim3_case2", {"theta": 0.0})
    M, k = build_milnor(MilnorSpec(2, np.array([1.0, 0.0])))
    assert k == -1.0
    cone = build_corollary2(M)
    P = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    np.testing.assert_array_equal(change_basis(case2, P).constants, cone.constants)


def test_dim5_branches_all_verify():
    for branch in (1, 2, 3, 4):
        assert catalog_verify("lspk_dim5", {"branch": branch})


def test_sample_params_are_valid_and_reproducible():
    a = sample_params("lspk_dim4", np.random.default_rng(0))
    b = sample_params("lspk_dim4", np.random.default_rng(0))
    assert a == b
    spec = catalog_entry("lspk_dim4")
    resolved = spec.resolve(a)
    assert set(resolved) == {p.name for p in spec.params}


def test_sl2_is_not_solvable():
    sl2 = sl2_bracket()
    assert check_jacobi(sl2)
    assert not is_solvable(sl2)


def test_verify_reports_worst_residual():
    rep = catalog_verify("lspk_dim5", {"branch": 2, "beta": 1.1, "lam": 0.6})
    assert rep
    assert 0.0 <= rep.max_residual <= 1e-9


def test_verify_agrees_with_decompose_at_tight_eps():
    # decompose certifies each residual against its own data-scaled threshold;
    # catalog_verify folds them into the worst residual without re-checking
    # them against the unscaled eps
    params = {"alpha_sign": 1.0, "beta": 2.610434542726609, "lam": 2.4567679846585198}
    tol = Tolerance(2e-16)
    dec = decompose(catalog_build("lspk_dim4", params), tol)
    assert dec.signature == (2, 1, 3.0)
    rep = catalog_verify("lspk_dim4", params, tol)
    assert rep
    assert rep.max_residual >= max(v for v in dec.residuals.values() if v is not None)


@pytest.mark.parametrize("residual", [None, 2.5e-3])
def test_fixture_broken_pickles(residual):
    exc = FixtureBroken("lspk_dim4", "rho match", residual)
    tail = "" if residual is None else " (residual 2.500e-03)"
    assert str(exc) == f"catalog entry 'lspk_dim4' fails predicate 'rho match'{tail}"
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is FixtureBroken
    assert (back.name, back.predicate, back.residual, str(back)) == (
        exc.name, exc.predicate, exc.residual, str(exc)
    )


def test_a_failing_extra_check_refuses_the_entry_under_its_name(monkeypatch):
    # the first plane family is trace-free but not commutative: asking for
    # commutativity refuses it under that predicate's name
    entry = catalog_entry("khess_kdim2_f1")
    demanding = dataclasses.replace(entry, extra_checks=(check_commutative,))
    monkeypatch.setitem(catalog._REGISTRY, entry.name, demanding)
    with pytest.raises(FixtureBroken) as info:
        catalog_verify(entry.name)
    assert info.value.predicate == "commutative"
    assert info.value.residual == check_commutative(catalog_build(entry.name).algebra).residual > 0.0
