"""Root finding for the classification systems.

The built-in systems have closed-form solution sets (quadratic surds), so
the tests pin the exact roots and check that every numerical root rebuilds
a verifying catalog algebra.  The batched search is compared bit for bit
with a per-seed Newton loop, kept here as the reference.
"""

import ast
import inspect
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest

from leftsym import FixtureBroken, PreconditionFailed, UnknownSystem
from leftsym.catalog import DIM5_BRANCHES, catalog_entry, catalog_verify
from leftsym.search import (
    DEDUP_RADIUS,
    DIVERGENCE_CUT,
    FD_STEP,
    MAX_ITERS,
    MAX_SEEDS,
    ROOT_RESIDUAL,
    PolySystem,
    RootSet,
    _BUILTINS,
    builtin_system,
    newton_search,
    verify_roots_build,
)

EXACT = {
    "dim3_case3": sorted([(-1.0 / np.sqrt(6.0),), (1.0 / np.sqrt(6.0),)]),
    "dim4": sorted([(-1.0 / np.sqrt(8.0),), (1.0 / np.sqrt(8.0),)]),
    "dim5": sorted(DIM5_BRANCHES),
}


@pytest.mark.parametrize("name", sorted(EXACT))
def test_roots_match_closed_form(name):
    sys = builtin_system(name)
    roots = newton_search(sys, [(-1.0, 1.0)] * sys.arity, grid=16)
    assert len(roots) == len(EXACT[name])
    for got, want in zip(sorted(roots), EXACT[name]):
        np.testing.assert_allclose(got, want, atol=1e-10)


@pytest.mark.parametrize("name", sorted(EXACT))
def test_root_residuals(name):
    sys = builtin_system(name)
    for root in newton_search(sys, [(-1.0, 1.0)] * sys.arity, grid=16):
        resid = np.max(np.abs(sys.residual(np.array(root))))
        assert resid <= ROOT_RESIDUAL


@pytest.mark.parametrize("name", sorted(EXACT))
def test_grid_refinement_is_stable(name):
    sys = builtin_system(name)
    box = [(-1.0, 1.0)] * sys.arity
    coarse = newton_search(sys, box, grid=8)
    fine = newton_search(sys, box, grid=16)
    assert len(coarse) == len(fine)
    for a, b in zip(sorted(coarse), sorted(fine)):
        np.testing.assert_allclose(a, b, atol=1e-9)


def test_unknown_system():
    with pytest.raises(UnknownSystem):
        builtin_system("dim9")


def test_search_preconditions():
    sys = builtin_system("dim4")
    with pytest.raises(PreconditionFailed):
        newton_search(sys, [(-1.0, 1.0)], grid=1)
    with pytest.raises(PreconditionFailed):
        newton_search(sys, [(-1.0, 1.0), (-1.0, 1.0)], grid=8)
    for box in [(-np.inf, 1.0), (0.0, np.inf), (0.0, np.nan), (-1e308, 1e308)]:
        with pytest.raises(PreconditionFailed, match="finite"):
            newton_search(sys, [box], grid=8)
    with pytest.raises(PreconditionFailed, match="residual of dim4 is not finite"):
        newton_search(sys, [(0.0, 1e308)], grid=8)


def test_an_oversize_grid_is_refused_before_anything_is_allocated(monkeypatch):
    def allocate(*args, **kwargs):
        raise AssertionError("the seed lattice was built")

    monkeypatch.setattr(np, "linspace", allocate)
    dim4, dim5 = builtin_system("dim4"), builtin_system("dim5")
    for system, grid in [(dim5, 10**6), (dim5, 1025), (dim4, MAX_SEEDS + 1)]:  # 1025^2 > 2^20
        with pytest.raises(PreconditionFailed, match="seeds exceeds"):
            newton_search(system, [(-1.0, 1.0)] * system.arity, grid)


def test_roots_rebuild_catalog_entries():
    for name in EXACT:
        sys = builtin_system(name)
        for root in newton_search(sys, [(-1.0, 1.0)] * sys.arity, grid=12):
            assert verify_roots_build(name, root)


def test_perturbed_root_is_rejected():
    with pytest.raises(FixtureBroken):
        verify_roots_build("dim4", (0.25,))


def test_a_refused_root_names_its_distance_to_the_nearest_admissible_root():
    with pytest.raises(FixtureBroken) as info:
        verify_roots_build("dim4", (0.25,))
    assert info.value.residual == abs(0.25 - 1.0 / (2.0 * math.sqrt(2.0)))
    with pytest.raises(FixtureBroken) as info:
        verify_roots_build("dim5", (5.0, 5.0))
    assert info.value.residual == 5.0 - 1.0 / math.sqrt(10.0)


@pytest.mark.parametrize("name", ["dim4", "dim3_case3"])
def test_a_nan_root_is_refused(name):
    # NaN lies within no radius of an admissible root
    with pytest.raises(FixtureBroken) as info:
        verify_roots_build(name, [math.nan])
    assert math.isnan(info.value.residual)


@pytest.mark.parametrize("name, root", [
    ("dim4", [1.0 / math.sqrt(8.0), 99.0]),  # the extra coordinate is not ignored
    ("dim5", [-math.sqrt(3.0) / 4.0, 1.0 / math.sqrt(3.0), 7.0]),
    ("dim5", [0.5]),
])
def test_a_root_of_the_wrong_length_is_refused(name, root):
    arity = builtin_system(name).arity
    with pytest.raises(PreconditionFailed) as info:
        verify_roots_build(name, root)
    assert str(info.value) == f"a {name} root has {arity} coordinates, got shape ({len(root)},)"


def test_every_admissible_root_is_a_root_that_builds_its_entry():
    for name, row in _BUILTINS.items():
        spec = {p.name: p for p in catalog_entry(row.entry).params}[row.param]
        for value in spec.choices:
            root = row.root(value)
            assert np.max(np.abs(builtin_system(name).residual(np.array(root)))) <= ROOT_RESIDUAL
            free = {} if name == "dim3_case3" else {"beta": 0.0, "lam": 1.0}
            want = catalog_verify(row.entry, {row.param: value, **free})
            assert want and verify_roots_build(name, root) == want


def test_a_root_is_built_at_fixed_free_parameters():
    # the dim-4 and dim-5 families are built at beta = 0 and lam = 1, with no knob for either
    assert list(inspect.signature(verify_roots_build).parameters) == ["sys_name", "root"]


SRC = Path(__file__).resolve().parents[1] / "src" / "leftsym"


def _literal_owners(path: Path, values: set[str]) -> list[tuple[str, str]]:
    """(owner, value) for every string literal of path in values; the owner is the
    top-level definition or assignment target holding it."""
    found = []
    for stmt in ast.parse(path.read_text()).body:
        names = [getattr(stmt, "name", None)] + [getattr(t, "id", None) for t in getattr(stmt, "targets", ())]
        owner = next((n for n in names if n), "")
        found += [(owner, node.value) for node in ast.walk(stmt)
                  if isinstance(node, ast.Constant) and node.value in values]
    return found


def test_the_builtin_systems_are_named_in_one_table():
    # builtin_system and verify_roots_build both read search._BUILTINS, so no
    # second dispatch on the system names can grow back unseen
    names = {"dim3_case3", "dim4", "dim5"}
    sites = [(path.stem, *site) for path in sorted(SRC.glob("*.py")) for site in _literal_owners(path, names)]
    assert sorted(sites) == [("search", "_BUILTINS", n) for n in sorted(names)]


def test_custom_system():
    # x^2 = 4 has the two obvious roots
    sys = PolySystem(1, lambda x: np.array([x[0] ** 2 - 4.0]), name="toy")
    roots = newton_search(sys, [(-3.0, 3.0)], grid=6)
    np.testing.assert_allclose(sorted(roots), [(-2.0,), (2.0,)], atol=1e-10)


def test_no_roots_outside_box():
    sys = PolySystem(1, lambda x: np.array([x[0] ** 2 + 1.0]), name="empty")
    assert len(newton_search(sys, [(-2.0, 2.0)], grid=8)) == 0


def _scalar_newton(f, x):
    """One seed's Newton orbit: the root it reaches, or None."""
    for _ in range(MAX_ITERS):
        fx = f(x)
        if np.max(np.abs(fx)) <= ROOT_RESIDUAL:
            return x
        if np.max(np.abs(x)) > DIVERGENCE_CUT:
            return None
        J = np.empty((fx.size, x.size))
        for j in range(x.size):
            step = np.zeros_like(x)
            step[j] = FD_STEP
            J[:, j] = (f(x + step) - fx) / FD_STEP
        try:
            x = x + np.linalg.solve(J, -fx)
        except np.linalg.LinAlgError:
            return None
    return x if np.max(np.abs(f(x))) <= ROOT_RESIDUAL else None


def scalar_newton_search(system, box, grid):
    """Reference for newton_search: one Newton orbit per seed, then a greedy dedup.

    Each point reaches the residual as an (arity, 1) column, the shape the
    batched search uses.  A float64 scalar would square through libm pow
    where an array squares by a multiply, and the two can differ in the
    last bit.
    """

    def f(x):
        return system.residual(x[:, None])[:, 0]

    found = []
    for seed in itertools.product(*[np.linspace(lo, hi, grid) for lo, hi in box]):
        root = _scalar_newton(f, np.array(seed))
        if root is not None and not any(np.max(np.abs(root - r)) <= DEDUP_RADIUS for r in found):
            found.append(root)
    return RootSet(system.name, tuple(sorted(tuple(float(v) for v in r) for r in found)))


_TOY = [
    PolySystem(1, lambda x: np.array([x[0] ** 2 - 4.0]), name="toy"),
    PolySystem(1, lambda x: np.array([x[0] ** 2 + 1.0]), name="empty"),
    # the Jacobian is exactly zero left of 0.5, so those seeds drop out alone
    PolySystem(1, lambda x: np.array([np.where(x[0] < 0.5, 1.0, x[0] ** 2 - 1.0)]), "singular"),
]
_BOXES = [(-1.0, 1.0), (-3.0, 3.0), (-0.3, 2.0)]


@pytest.mark.parametrize("box", _BOXES)
@pytest.mark.parametrize("grid", [7, 12, 24])
@pytest.mark.parametrize("system", [builtin_system(n) for n in sorted(EXACT)] + _TOY,
                         ids=lambda s: s.name)
def test_batched_search_equals_scalar_oracle(system, grid, box):
    boxes = [box] * system.arity
    assert newton_search(system, boxes, grid) == scalar_newton_search(system, boxes, grid)


def test_non_square_system_is_refused_before_iterating():
    # a residual with a row count other than its arity has no Newton step, so the
    # system is refused before any iteration, as is a residual of another shape
    cases = [
        (PolySystem(1, lambda x: np.array([x[0] ** 2 - 0.25, x[0] - 0.5]), "over"), "(2, 8)"),
        (PolySystem(2, lambda x: np.array([x[0] ** 2 + x[1] ** 2 - 1.0]), "under"), "(1, 64)"),
        (PolySystem(1, lambda x: x[0] ** 2 - 0.25, "flat"), "(8,)"),
        (PolySystem(1, lambda x: 1.0, "scalar"), "()"),
    ]
    for system, shape in cases:
        with pytest.raises(PreconditionFailed, match=rf"has shape {re.escape(shape)} on seeds"):
            newton_search(system, [(-0.9, 0.95)] * system.arity, grid=8)


@pytest.mark.parametrize("name", sorted(EXACT))
def test_residual_calls_do_not_grow_with_the_grid(name):
    sys = builtin_system(name)
    rootless = PolySystem(sys.arity, lambda x: x**2 + 1.0, "rootless")
    for system in [sys, rootless]:
        for grid in [2, 9, 40]:
            calls = []
            counted = PolySystem(system.arity, lambda x: calls.append(1) or system.residual(x),
                                 system.name)
            newton_search(counted, [(-1.0, 1.0)] * system.arity, grid)
            assert 1 <= len(calls) <= (system.arity + 1) * MAX_ITERS + 1
