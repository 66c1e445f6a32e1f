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
This module owns the summation order of L_x and R_x (_accumulate), and
construct.build_milnor rounds its constants against it to make L_h exactly 0.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, SingularMatrix


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
    """max(1, largest absolute entry) over the given tensors.

    Predicates accept a residual r when r <= eps * residual_scale(...), so
    tolerances follow the magnitude of the structure constants involved.
    """
    m = 1.0
    for a in arrays:
        m = max(m, _max_abs(np.asarray(a, dtype=float)) or 0.0)
    return m


def _worst_of(values, default: float | None = None) -> float | None:
    """Largest of the values that are not None (default when there are none); NaN wins."""
    live = [v for v in values if v is not None]
    return float(np.max(live)) if live else default


def _max_abs(t: np.ndarray) -> float | None:
    """Largest absolute entry, or None for an empty tensor (a vacuous relation)."""
    return None if t.size == 0 else float(np.max(np.abs(t)))


def _enforce(residuals: dict, threshold: float, error: type) -> dict:
    """Raise error(name, value) for the first value not <= threshold; None passes, NaN fails."""
    for name, value in residuals.items():
        if value is not None and not value <= threshold:
            raise error(name, value)
    return residuals


def _compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_m a[..., m] b[m, ...]: the last axis of a against the first of b, as one GEMM."""
    m = a.shape[-1]
    out = a.reshape(math.prod(a.shape[:-1]), m) @ b.reshape(m, math.prod(b.shape[1:]))
    return out.reshape(a.shape[:-1] + b.shape[1:])


def _restrict(c: np.ndarray, U: np.ndarray) -> np.ndarray:
    """r[a, b, k] = sum_ij U[i, a] U[j, b] c[i, j, k]: products of the columns of U."""
    return U.T @ _compose(U.T, c)  # _compose gives t[a, j, k]; @ sums j for each a


def _frozen(a: np.ndarray, field: str) -> np.ndarray:
    """A read-only float copy of a; a ValueError naming field refuses inf and NaN entries."""
    a = np.array(a, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError(f"{field} must be finite")
    a.setflags(write=False)
    return a


def _accumulate(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_i x[i] t[i] as acc = 0; acc += x[0] t[0]; acc += x[1] t[1]; ...: IEEE fixes each entry.

    A vector t sums into a float: the same arithmetic, without 0-d array updates.
    """
    acc = np.zeros(t.shape[1:]) if t.ndim > 1 else 0.0
    for i in range(x.shape[0]):
        acc += x[i] * t[i]
    return acc


@dataclass(frozen=True, eq=False)
class AlgebraStructure:
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
    SingularMatrix when |det P| <= eps.
    """
    P = np.asarray(P, dtype=float)
    if P.shape != (A.dim, A.dim):
        raise DimensionMismatch(f"expected ({A.dim}, {A.dim}) matrix, got {P.shape}")
    det = np.linalg.det(P)
    if not np.isfinite(det) or abs(det) <= tol.eps:
        raise SingularMatrix(f"basis matrix has |det| = {abs(det):.3e}")
    Pinv = np.linalg.inv(P)
    c = _compose(_restrict(A.constants, P), Pinv.T)
    return AlgebraStructure(c, name=A.name)
