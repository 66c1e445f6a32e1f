"""Root finding for the small parameter-constraint systems.

The admissible parameters of the one-idempotent families are cut out by
tiny polynomial systems; this module finds all their real roots on a box
by Newton iteration from a dense grid of seeds, all advanced together as
one batch, then feeds each root back into the matching catalog builder to
confirm the constructed algebra passes its full predicate suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .catalog import DIM5_BRANCHES, catalog_verify
from .core import Check
from .errors import FixtureBroken, PreconditionFailed, UnknownSystem

ROOT_RESIDUAL = 1e-10  # max-norm acceptance threshold for a converged point
DEDUP_RADIUS = 1e-6  # max-norm radius identifying two converged points
FD_STEP = 1e-7  # forward-difference Jacobian step
MAX_ITERS = 60
DIVERGENCE_CUT = 10.0  # abandon an orbit once any coordinate passes this
MAX_SEEDS = 2**20  # the most grid^arity seeds a search holds at once


@dataclass(frozen=True)
class PolySystem:
    """A small real polynomial system, presented as its residual map.

    residual maps points stored as columns, shape (arity, S), to their
    residuals, shape (m, S), elementwise in S; written with x[k] for the
    k-th coordinate, it also takes a single point of shape (arity,).
    """

    arity: int
    residual: Callable[[np.ndarray], np.ndarray]
    name: str


@dataclass(frozen=True)
class RootSet:
    """Deduplicated roots sorted lexicographically."""

    name: str
    roots: tuple[tuple[float, ...], ...]

    def __len__(self) -> int:
        return len(self.roots)

    def __iter__(self):
        return iter(self.roots)


def builtin_system(name: str) -> PolySystem:
    """One of the named parameter systems: dim3_case3, dim4 or dim5."""
    if name == "dim3_case3":
        return PolySystem(1, lambda x: np.array([6.0 * x[0] ** 2 - 1.0]), name)
    if name == "dim4":
        return PolySystem(1, lambda x: np.array([8.0 * x[0] ** 2 - 1.0]), name)
    if name == "dim5":
        return PolySystem(
            2,
            lambda x: np.array(
                [
                    8.0 * x[0] ** 2 + 2.0 * x[0] * x[1] - 1.0,
                    6.0 * x[1] ** 2 + 4.0 * x[0] * x[1] - 1.0,
                ]
            ),
            name,
        )
    raise UnknownSystem(f"no builtin system named {name!r}")


def _solve_each(J: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve J[i] dx[i] = b[i] point by point; ok[i] is False where that solve fails."""
    dx = np.zeros((J.shape[0], J.shape[2]))
    ok = np.ones(J.shape[0], dtype=bool)
    for i in range(J.shape[0]):
        try:
            dx[i] = np.linalg.solve(J[i], b[i])
        except np.linalg.LinAlgError:
            ok[i] = False
    return dx, ok


def newton_search(
    system: PolySystem, box: Sequence[tuple[float, float]], grid: int
) -> RootSet:
    """All roots on the box found from a grid^arity lattice of Newton seeds.

    Every seed advances together.  Each iteration evaluates the residual
    once on all live points, records those whose residual max-norm is at
    most 1e-10, drops those with a coordinate beyond 10, builds the
    forward-difference Jacobians from arity more residual calls and makes
    one batched solve; a point whose Jacobian is singular (or not square)
    drops out alone.  A search therefore makes at most
    (arity + 1) * MAX_ITERS + 1 residual calls, and holds a few arrays of
    grid^arity floats (times arity or m).

    Converged points are deduplicated in seed order, the seeds taken in
    itertools.product order of the axes: a point is kept unless it lies
    within 1e-6 (max-norm) of a point kept before it.  The kept roots are
    sorted lexicographically; an empty result is legitimate.  The box
    bounds and widths must be finite, the residual finite at every seed, and
    grid^arity at most MAX_SEEDS, which is checked before anything is allocated.
    """
    if grid < 2:
        raise PreconditionFailed(f"grid must be at least 2 per axis, got {grid}")
    if grid**system.arity > MAX_SEEDS:
        raise PreconditionFailed(f"grid^arity = {grid}^{system.arity} seeds exceeds {MAX_SEEDS}")
    if len(box) != system.arity:
        raise PreconditionFailed(f"box has {len(box)} axes, system arity is {system.arity}")
    if not all(math.isfinite(lo) and math.isfinite(hi - lo) for lo, hi in box):
        raise PreconditionFailed(f"box bounds and widths must be finite, got {list(box)}")
    axes = [np.linspace(lo, hi, grid) for lo, hi in box]
    x = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")])
    with np.errstate(over="ignore", invalid="ignore"):
        fx = system.residual(x)
    if not np.isfinite(fx).all():
        raise PreconditionFailed(
            f"residual of {system.name} is not finite on every seed of the box"
        )

    seed = np.arange(x.shape[1])  # seed index of each live column
    roots = np.empty_like(x)
    converged = np.zeros(x.shape[1], dtype=bool)
    steps = FD_STEP * np.eye(system.arity)
    for it in range(MAX_ITERS + 1):
        done = np.max(np.abs(fx), axis=0) <= ROOT_RESIDUAL
        roots[:, seed[done]] = x[:, done]
        converged[seed[done]] = True
        if it == MAX_ITERS:
            break
        live = ~done & ~(np.max(np.abs(x), axis=0) > DIVERGENCE_CUT)
        x, fx, seed = x[:, live], fx[:, live], seed[live]
        if not seed.size:
            break
        J = np.stack([(system.residual(x + h[:, None]) - fx) / FD_STEP for h in steps], axis=-1)
        J, b = J.transpose(1, 0, 2), -fx.T
        try:
            dx = np.linalg.solve(J, b[..., None])[..., 0]
        except np.linalg.LinAlgError:
            dx, ok = _solve_each(J, b)
            x, dx, seed = x[:, ok], dx[ok], seed[ok]
        x = x + dx.T
        fx = system.residual(x)

    pending, kept = roots[:, converged], []
    while pending.shape[1]:
        kept.append(pending[:, 0])
        pending = pending[:, ~(np.max(np.abs(pending - kept[-1][:, None]), axis=0) <= DEDUP_RADIUS)]
    ordered = sorted(tuple(float(v) for v in r) for r in kept)
    return RootSet(name=system.name, roots=tuple(ordered))


def _nearest_sign(value: float, magnitude: float, what: str) -> float:
    """The sign s with value close to s*magnitude, else FixtureBroken."""
    s = 1.0 if value >= 0 else -1.0
    if abs(value - s * magnitude) > DEDUP_RADIUS:
        raise FixtureBroken(what, f"root {value} matches no admissible value", abs(value))
    return s


def verify_roots_build(
    sys_name: str,
    root: Sequence[float] | float,
    beta: float = 0.0,
    lam: float = 1.0,
) -> Check:
    """Feed a found root into the matching catalog entry and verify it.

    The root is snapped to the exact surd parameter of the entry (within
    the dedup radius); a root matching no admissible parameter raises
    FixtureBroken.  beta and lam fix the free parameters of the dim-4 and
    dim-5 families.
    """
    vec = np.atleast_1d(np.asarray(root, dtype=float))
    if sys_name == "dim3_case3":
        sign = _nearest_sign(float(vec[0]), 1.0 / math.sqrt(6.0), "dim3_case3 root")
        return catalog_verify("lspk_dim3_case3", {"sign": sign})
    if sys_name == "dim4":
        sign = _nearest_sign(float(vec[0]), 1.0 / (2.0 * math.sqrt(2.0)), "dim4 root")
        return catalog_verify("lspk_dim4", {"alpha_sign": sign, "beta": beta, "lam": lam})
    if sys_name == "dim5":
        pair = (float(vec[0]), float(vec[1]))
        for idx, branch in enumerate(DIM5_BRANCHES, start=1):
            if max(abs(pair[0] - branch[0]), abs(pair[1] - branch[1])) <= DEDUP_RADIUS:
                return catalog_verify(
                    "lspk_dim5", {"branch": idx, "beta": beta, "lam": lam}
                )
        raise FixtureBroken("dim5 root", f"pair {pair} matches no admissible branch")
    raise UnknownSystem(f"no builtin system named {sys_name!r}")
