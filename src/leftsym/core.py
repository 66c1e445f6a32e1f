"""Finite dimensional real algebras given by structure constants.

An algebra on R^n is stored as the rank-3 tensor C with

    e_i * e_j = sum_k C[i, j, k] e_k

over the standard basis.  Everything downstream (predicates, splittings,
curvature) is a contraction against C, so this module pins the index
conventions once:

    multiply(A, x, y)[k]    = x_i y_j C[i, j, k]
    left operator  L_x[k,j] = x_i C[i, j, k]      (L_x y = x * y)
    right operator R_x[k,i] = x_j C[i, j, k]      (R_x y = y * x)

Structure tensors are copied, checked finite and frozen at construction;
operations never mutate an algebra, they return new ones.

The heavy contractions of the library go through two private helpers, each
a fixed sequence of reshapes and BLAS matrix products: _compose (one index
summed between two tensors, one GEMM) and _restrict (the products of a set
of vectors, cost n^4).  change_basis is _restrict followed by one GEMM.
A check that needs only the worst entry of a rank-4 defect (the left symmetry,
associativity, Novikov, Jacobi and sectional identities) never holds the n^4
tensor: _slab_worst evaluates it over slabs of one index, at most _SLAB_FLOATS
(24 000) floats each, and keeps the running worst entry and its witness.  The
cost stays that of the whole-tensor GEMMs, n^5 multiply-adds each, while the
memory falls to one slab plus O(n^3).  A defect antisymmetric in its first two
indices, the left symmetry, is evaluated on the basis pairs i <= j only: its
slabs run over those pairs, n^5 + n^4(n+1)/2 multiply-adds in all, and memory
holds one slab of the product e_i(e_j e_k) plus the pair slab.
This module owns the summation order of L_x and R_x (_accumulate), and
construct.build_milnor rounds its constants against it to make L_h exactly 0.

Structure tensors and Gram matrices are read-only views of read-only arrays
(_readonly), which setflags(write=True) cannot make writable, also after a
pickle or copy round trip.  That is what lets an algebra or a metric algebra
keep quantities derived from it, such as its trace form, in its own __dict__
(_Owner._kept) for as long as it lives.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DimensionMismatch, SingularMatrix

# Floats in one slab of a rank-4 defect (_slab_worst): a slab stays in the L2 cache,
# and every n <= 12 (n^4 <= 20 736) is still a single slab with no loop overhead.
_SLAB_FLOATS = 24_000


@dataclass(frozen=True)
class Tolerance:
    """Comparison tolerance for all numeric predicates.

    Residuals are compared against eps scaled by the magnitude of the data
    involved, see residual_scale.  The default is fixed; the command line
    layer may override it through the LSPK_EPS environment variable.
    """

    eps: float = 1e-9

    def __post_init__(self):
        if not (self.eps > 0.0 and np.isfinite(self.eps)):
            raise ValueError(f"eps must be positive and finite, got {self.eps}")

    @classmethod
    def from_env(cls) -> "Tolerance":
        raw = os.environ.get("LSPK_EPS")
        return cls() if raw is None else cls(float(raw))


def residual_scale(*arrays: np.ndarray) -> float:
    """max(1, largest absolute entry) over the given tensors; NaN when an entry is NaN.

    A relation measured on these tensors holds when its residual is at most
    eps * residual_scale(...), so tolerances follow the magnitude of the data.
    """
    return _worst_of([1.0, *(_max_abs(np.asarray(a, dtype=float)) for a in arrays)])


def _worst_of(values, default: float | None = None) -> float | None:
    """Largest of the values that are not None (default when there are none); NaN wins."""
    live = [float(v) for v in values if v is not None]
    if not live:
        return default
    return math.nan if any(v != v for v in live) else max(live)


def _max_abs(t: np.ndarray) -> float | None:
    """Largest absolute entry, or None for an empty tensor (a vacuous relation)."""
    return None if t.size == 0 else float(np.abs(t).max())


@dataclass(frozen=True, slots=True)
class Check:
    """A named relation with its residual, threshold and, when located, witness indices.

    holds is the one pass/fail rule of the library: a vacuous relation (residual
    None) passes, NaN fails, otherwise residual <= threshold.
    """

    name: str
    residual: float | None
    threshold: float
    witness: tuple[int, ...] | None = None

    @property
    def holds(self) -> bool:
        return self.residual is None or bool(self.residual <= self.threshold)

    def __bool__(self) -> bool:
        return self.holds

    @property
    def max_residual(self) -> float:
        """The residual, 0.0 for a vacuous relation."""
        return 0.0 if self.residual is None else self.residual

    @property
    def margin(self) -> float:
        """The one rule for how close a relation is to failing: it holds exactly when margin <= 1.

        residual / threshold, or threshold / residual for a negative threshold (definiteness);
        the edges keep the rule: 0 when vacuous, NaN for a NaN, else 0 or inf as the check holds.
        """
        if self.residual is None:
            return 0.0
        r, t = float(self.residual), float(self.threshold)
        if r != r or t != t:
            return math.nan
        if 0.0 < t < math.inf:
            return r / t
        if -math.inf < t < 0.0 and r < 0.0:
            return t / r
        return 0.0 if self.holds else math.inf


def _enforce(checks, error: type):
    """Raise error(name, residual) for the first check that does not hold."""
    for check in checks:
        if not check.holds:
            raise error(check.name, check.residual)


def _conjunction(checks) -> Check:
    """The verdict of checks taken together: the first failing one, else the largest residual."""
    for check in checks:
        if not check.holds:
            return check
    return max(checks, key=lambda c: c.max_residual)


def _compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_m a[..., m] b[m, ...]: the last axis of a against the first of b, as one GEMM."""
    m = a.shape[-1]
    out = a.reshape(math.prod(a.shape[:-1]), m) @ b.reshape(m, math.prod(b.shape[1:]))
    return out.reshape(a.shape[:-1] + b.shape[1:])


def _slab_worst(
    n: int, slab, axis: int = 2, pairs: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[float | None, tuple[int, int, int] | None]:
    """Largest |d| of a rank-4 defect d over (n, n, n, n), and the first (i, j, k) attaining it.

    slab(lo, hi) returns a fresh array holding d restricted to lo <= index < hi of
    axis 2 or 3; the reduction overwrites it and keeps only the running worst.  With
    pairs = (ii, jj), increasing in C order, the slab's first two axes are one axis
    over the pairs (ii[p], jj[p]).  The witness follows forms._worst: NaN wins, and
    ties go to the first entry in C order.  (None, None) when n == 0, a vacuous relation.
    """
    if n == 0:
        return None, None
    step = max(1, _SLAB_FLOATS // n**3)
    found = []
    for lo in range(0, n, step):
        d = slab(lo, min(n, lo + step))
        a = np.abs(d, out=d)
        flat = int(a.argmax())
        ij, k = divmod(flat // a.shape[-1], a.shape[-2])
        if axis == 2:
            k += lo
        i, j = divmod(ij, n) if pairs is None else (int(pairs[0][ij]), int(pairs[1][ij]))
        found.append((a.item(flat), (i, j, k)))
    return min(found, key=lambda f: (f[0] == f[0], 0.0 if f[0] != f[0] else -f[0], f[1]))


def _restrict(c: np.ndarray, U: np.ndarray) -> np.ndarray:
    """r[a, b, k] = sum_ij U[i, a] U[j, b] c[i, j, k]: products of the columns of U."""
    return U.T @ _compose(U.T, c)  # _compose gives t[a, j, k]; @ sums j for each a


def _readonly(a: np.ndarray) -> np.ndarray:
    """A float copy of a, as a read-only view of a read-only array.

    An array that owns its data can be made writable again; a view of a
    read-only array cannot, so setflags(write=True) raises on the result.
    """
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a.view()


def _frozen(a: np.ndarray, field: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """_readonly(a), refusing inf and NaN entries and, given a shape, any other shape.

    Both refusals name field: a ValueError for an entry, a DimensionMismatch for the shape.
    """
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError(f"{field} must be finite")
    if shape is not None and a.shape != shape:
        raise DimensionMismatch(f"{field} must have shape {shape}, got {a.shape}")
    return _readonly(a)


class _Owner:
    """Base of the frozen dataclasses with read-only arrays, which may keep derived quantities.

    An entry sits beside the dataclass fields in the owner's own __dict__ under a
    string key (dir() sorts the keys) and lives exactly as long as its owner; it
    must not refer back to the owner.  Pickle and copy carry the fields only and
    freeze the arrays among them again (_frozen); dataclasses.replace builds a new
    owner, so no entry travels to another object.
    """

    def _kept(self, key: str, build):
        """The entry under key, built by build() on first use.

        A build that raises keeps nothing, so every call on a refused owner refuses
        again.  Concurrent first uses may each build; all of them get the value stored first.
        """
        found = self.__dict__.get(key)
        if found is None:
            found = self.__dict__.setdefault(key, build())
        return found

    def __getstate__(self):
        return {f.name: self.__dict__[f.name] for f in fields(self)}

    def __setstate__(self, state):
        # pickle and copy rebuild arrays writable; freeze them again, refusing non-finite ones
        self.__dict__.update({k: _frozen(v, k) if isinstance(v, np.ndarray) else v for k, v in state.items()})


def _accumulate(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_i x[i] t[i] as acc = 0; acc += x[0] t[0]; acc += x[1] t[1]; ...: IEEE fixes each entry.

    A vector t sums into a float: the same arithmetic, without 0-d array updates.
    """
    acc = np.zeros(t.shape[1:]) if t.ndim > 1 else 0.0
    for i in range(x.shape[0]):
        acc += x[i] * t[i]
    return acc


@dataclass(frozen=True, eq=False)
class AlgebraStructure(_Owner):
    """An algebra on R^n, given by its structure constant tensor.

    constants has shape (n, n, n) with the convention spelled out in the
    module docstring.  No axioms are assumed at construction; the check_*
    predicates in leftsym.forms certify whatever property is needed.
    """

    constants: np.ndarray
    name: str = ""
    dim: int = field(init=False)

    def __post_init__(self):
        c = np.asarray(self.constants, dtype=float)
        if c.ndim != 3 or len(set(c.shape)) != 1:
            raise DimensionMismatch(f"constants must be (n, n, n), got {c.shape}")
        object.__setattr__(self, "constants", _frozen(c, "structure constants"))
        object.__setattr__(self, "dim", int(c.shape[0]))

    def basis_vector(self, i: int) -> np.ndarray:
        e = np.zeros(self.dim)
        e[i] = 1.0
        return e

    def __repr__(self):
        label = self.name or "algebra"
        return f"AlgebraStructure({label!r}, dim={self.dim})"


def _check_vector(A: AlgebraStructure, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (A.dim,):
        raise DimensionMismatch(f"expected vector of shape ({A.dim},), got {x.shape}")
    return x


def mult_operator(A: AlgebraStructure, x: np.ndarray, side: str = "left") -> np.ndarray:
    """Matrix of left or right multiplication by x.

    side='left' gives L_x with L_x y = x * y, side='right' gives R_x with
    R_x y = y * x.
    """
    x = _check_vector(A, x)
    if side == "left":
        return _accumulate(x, A.constants).T
    if side == "right":
        return _accumulate(x, A.constants.transpose(1, 0, 2)).T
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def multiply(A: AlgebraStructure, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Product x * y. Evaluated as L_x y so it agrees with mult_operator exactly."""
    y = _check_vector(A, y)
    return mult_operator(A, x, "left") @ y


def associator(A: AlgebraStructure, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """(x*y)*z - x*(y*z)."""
    return multiply(A, multiply(A, x, y), z) - multiply(A, x, multiply(A, y, z))


def lie_bracket_constants(A: AlgebraStructure) -> AlgebraStructure:
    """Structure constants of the commutator [x, y] = x*y - y*x."""
    c = A.constants - A.constants.transpose(1, 0, 2)
    label = f"{A.name}:bracket" if A.name else "bracket"
    return AlgebraStructure(c, name=label)


def change_basis(A: AlgebraStructure, P: np.ndarray, tol: Tolerance = Tolerance()) -> AlgebraStructure:
    """Structure constants in the basis f_a = sum_i P[i, a] e_i.

    P carries the new basis as columns in old coordinates.  Raises
    SingularMatrix unless the condition number ||P||_1 ||P^-1||_1 is below
    1/eps, so the verdict does not change when P is rescaled.
    """
    P = np.asarray(P, dtype=float)
    if P.shape != (A.dim, A.dim):
        raise DimensionMismatch(f"expected ({A.dim}, {A.dim}) matrix, got {P.shape}")
    try:
        Pinv = np.linalg.inv(P)
        with np.errstate(over="ignore"):  # the 1-norms; one that overflows is inf, and refused
            cond = float(np.abs(P).sum(0).max(initial=0.0)) * float(np.abs(Pinv).sum(0).max(initial=0.0))
    except np.linalg.LinAlgError:  # exactly singular
        cond = math.inf
    if not cond * tol.eps < 1.0:
        raise SingularMatrix(f"basis matrix has condition number {cond:.3e}")
    c = _compose(_restrict(A.constants, P), Pinv.T)
    return AlgebraStructure(c, name=A.name)
