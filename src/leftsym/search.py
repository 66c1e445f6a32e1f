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
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .catalog import DIM5_BRANCHES, RT2, RT6, catalog_entry, catalog_verify
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
    residuals, of the same shape, elementwise in S; written with x[k] for the
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


class _Builtin(NamedTuple):
    """A builtin system and the catalog entry its roots build.

    root(v) is the admissible root at which the entry's discrete parameter
    param takes the value v, one for each choice of its ParamSpec.
    """

    arity: int
    residual: Callable[[np.ndarray], np.ndarray]
    entry: str
    param: str
    root: Callable[[float], tuple[float, ...]]


_BUILTINS = {
    "dim3_case3": _Builtin(1, lambda x: np.array([6.0 * x[0] ** 2 - 1.0]),
                           "lspk_dim3_case3", "sign", lambda s: (s / RT6,)),
    "dim4": _Builtin(1, lambda x: np.array([8.0 * x[0] ** 2 - 1.0]),
                     "lspk_dim4", "alpha_sign", lambda s: (s / (2.0 * RT2),)),
    "dim5": _Builtin(2, lambda x: np.array([8.0 * x[0] ** 2 + 2.0 * x[0] * x[1] - 1.0,
                                            6.0 * x[1] ** 2 + 4.0 * x[0] * x[1] - 1.0]),
                     "lspk_dim5", "branch", lambda b: DIM5_BRANCHES[b - 1]),
}


def _builtin(name: str) -> _Builtin:
    try:
        return _BUILTINS[name]
    except KeyError:
        raise UnknownSystem(f"no builtin system named {name!r}") from None


def builtin_system(name: str) -> PolySystem:
    """One of the named parameter systems: dim3_case3, dim4 or dim5."""
    row = _builtin(name)
    return PolySystem(row.arity, row.residual, name)


def newton_search(
    system: PolySystem, box: Sequence[tuple[float, float]], grid: int
) -> RootSet:
    """All roots on the box found from a grid^arity lattice of Newton seeds.

    Every seed advances together.  Each iteration evaluates the residual
    once on all live points, records those whose residual max-norm is at
    most 1e-10, drops those with a coordinate beyond 10, builds the
    forward-difference Jacobians from arity more residual calls and makes
    one batched solve; a point whose Jacobian is singular drops out alone.
    A search therefore makes at most (arity + 1) * MAX_ITERS + 1 residual
    calls, and holds a few arrays of grid^arity floats (times arity).

    Converged points are deduplicated in seed order, the seeds taken in
    itertools.product order of the axes: a point is kept unless it lies
    within 1e-6 (max-norm) of a point kept before it.  The kept roots are
    sorted lexicographically; an empty result is legitimate.  The box
    bounds and widths must be finite, the residual finite at every seed and
    of the seeds' shape (a system that is not square is refused with
    PreconditionFailed before any iteration), and grid^arity at most
    MAX_SEEDS, which is checked before anything is allocated.
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
    if np.shape(fx) != x.shape:
        raise PreconditionFailed(
            f"residual of {system.name} has shape {np.shape(fx)} on seeds of shape {x.shape}"
        )
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
        except np.linalg.LinAlgError:  # a singular Jacobian drops its point alone
            ok = np.linalg.slogdet(J)[0] != 0
            x, seed = x[:, ok], seed[ok]
            dx = np.linalg.solve(J[ok], b[ok][..., None])[..., 0]
        x = x + dx.T
        fx = system.residual(x)

    pending, kept = roots[:, converged], []
    while pending.shape[1]:
        kept.append(pending[:, 0])
        pending = pending[:, ~(np.max(np.abs(pending - kept[-1][:, None]), axis=0) <= DEDUP_RADIUS)]
    ordered = sorted(tuple(float(v) for v in r) for r in kept)
    return RootSet(name=system.name, roots=tuple(ordered))


def verify_roots_build(sys_name: str, root: Sequence[float] | float) -> Check:
    """Feed a found root into the matching catalog entry and verify it.

    The root must have the system's arity of coordinates, else
    PreconditionFailed, and lie within the dedup radius (max-norm) of an
    admissible root, else FixtureBroken with the distance to the nearest one
    as residual (NaN for a NaN root).  The entry is then built at the exact
    parameter of that root, with the free parameters of the dim-4 and dim-5
    families fixed at beta = 0 and lam = 1.
    """
    row = _builtin(sys_name)
    vec = np.atleast_1d(np.asarray(root, dtype=float))
    if vec.shape != (row.arity,):
        raise PreconditionFailed(f"a {sys_name} root has {row.arity} coordinates, got shape {vec.shape}")
    specs = {p.name: p for p in catalog_entry(row.entry).params}
    distance = {v: float(np.max(np.abs(vec - row.root(v)))) for v in specs[row.param].choices}
    value = min(distance, key=distance.get)
    if not distance[value] <= DEDUP_RADIUS:
        what = f"root {tuple(vec.tolist())} matches no admissible {row.param}"
        raise FixtureBroken(f"{sys_name} root", what, distance[value])
    free = {k: v for k, v in (("beta", 0.0), ("lam", 1.0)) if k in specs}
    return catalog_verify(row.entry, {row.param: value, **free})
