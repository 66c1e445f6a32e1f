"""Root finding for the classification systems.

The built-in systems have closed-form solution sets (quadratic surds), so
the tests pin the exact roots and check that every numerical root rebuilds
a verifying catalog algebra.  The batched search is compared bit for bit
with a per-seed Newton loop, kept here as the reference.
"""

import itertools

import numpy as np
import pytest

from leftsym import FixtureBroken, PreconditionFailed, UnknownSystem
from leftsym.catalog import DIM5_BRANCHES
from leftsym.search import (
    DEDUP_RADIUS,
    DIVERGENCE_CUT,
    FD_STEP,
    MAX_ITERS,
    MAX_SEEDS,
    ROOT_RESIDUAL,
    PolySystem,
    RootSet,
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


def test_non_square_system_keeps_only_seeds_on_a_root():
    sys = PolySystem(1, lambda x: np.array([x[0] ** 2 - 0.25, x[0] - 0.5]), name="over")
    roots = newton_search(sys, [(-1.0, 1.0)], grid=5)
    assert roots == scalar_newton_search(sys, [(-1.0, 1.0)], grid=5)
    assert roots.roots == ((0.5,),)


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
