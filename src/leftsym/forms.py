"""Bilinear forms and the numeric predicates certifying algebra axioms.

Predicates never answer with a bare bool: they return a PredicateReport
with the worst residual and the basis triple attaining it, and they accept
a residual r when r <= tol.eps * residual_scale(data).  All identities are
evaluated on basis tuples by whole-tensor contractions, so a report covers
every multilinear instance of the identity at once.  Each identity is written
once, as a private defect tensor on plain arrays (_traces, _assoc_tensor,
_left_symmetry_defect, _hessian_defect, _sectional_target, _derivation_defect,
_paired_action); the split systems, the decomposition stages and the
constructions evaluate the same contractions through them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .core import (
    AlgebraStructure,
    Tolerance,
    _compose,
    _enforce,
    _max_abs,
    _restrict,
    change_basis,
    multiply,
    residual_scale,
)
from .errors import (
    DiagonalizationFailed,
    DimensionMismatch,
    NotAntisymmetric,
    PreconditionFailed,
)


@dataclass(frozen=True)
class PredicateReport:
    """Outcome of a numeric check: worst residual plus where it happened.

    witness holds the basis indices attaining the worst residual (None when
    the check has no located witness, e.g. definiteness).
    """

    holds: bool
    max_residual: float
    witness: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True, eq=False)
class BilinearForm:
    """A symmetric bilinear form, stored as its Gram matrix.

    The matrix is symmetrized on construction; the asymmetry field records
    how far the input was from symmetric, for diagnostics.
    """

    matrix: np.ndarray
    asymmetry: float = field(init=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"Gram matrix must be square, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("Gram matrix must be finite")
        asym = _max_abs(m - m.T) or 0.0
        sym = (m + m.T) / 2.0
        sym.setflags(write=False)
        object.__setattr__(self, "matrix", sym)
        object.__setattr__(self, "asymmetry", asym)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def value(self, x: np.ndarray, y: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != (self.dim,) or y.shape != (self.dim,):
            raise DimensionMismatch(f"expected vectors of shape ({self.dim},)")
        return float(x @ self.matrix @ y)

    @classmethod
    def identity(cls, n: int) -> "BilinearForm":
        return cls(np.eye(n))


@dataclass(frozen=True, eq=False)
class MetricAlgebra:
    """An algebra together with a positive definite metric on the same space."""

    algebra: AlgebraStructure
    metric: BilinearForm

    def __post_init__(self):
        if self.metric.dim != self.algebra.dim:
            raise DimensionMismatch(
                f"metric dim {self.metric.dim} != algebra dim {self.algebra.dim}"
            )

    @property
    def dim(self) -> int:
        return self.algebra.dim


def _worst(resid: np.ndarray) -> tuple[float, tuple[int, ...] | None]:
    """Largest absolute entry and (up to) the first three of its indices."""
    if resid.size == 0:
        return 0.0, None
    flat = int(np.argmax(np.abs(resid)))
    idx = np.unravel_index(flat, resid.shape)
    return float(np.abs(resid.flat[flat])), tuple(int(i) for i in idx[:3])


def _report(resid: np.ndarray, tol: Tolerance, *scale_from: np.ndarray) -> PredicateReport:
    worst, witness = _worst(resid)
    return PredicateReport(
        holds=bool(worst <= tol.eps * residual_scale(*scale_from)),
        max_residual=worst,
        witness=witness,
    )


def _joint(*reports: PredicateReport) -> PredicateReport:
    """Conjunction of reports; residual and witness come from the worst one."""
    worse = reduce(lambda a, b: a if a.max_residual >= b.max_residual else b, reports)
    return PredicateReport(all(r.holds for r in reports), worse.max_residual, worse.witness)


def _traces(c: np.ndarray) -> np.ndarray:
    """Trace of every slice, t[k] = sum_m c[k, m, m]; tr(L_{e_k}) for structure constants."""
    return np.einsum("kmm->k", c)


def _assoc_tensor(c: np.ndarray) -> np.ndarray:
    """T[i,j,k,:] = associator(e_i, e_j, e_k), all basis triples at once."""
    t = _compose(c, c)  # (e_i e_j) e_k
    t -= _compose(c, c.transpose(1, 0, 2)).transpose(2, 0, 1, 3)  # e_i (e_j e_k)
    return t


def _left_symmetry_defect(c: np.ndarray) -> np.ndarray:
    """ass(x, y, z) - ass(y, x, z) on basis triples."""
    t = _assoc_tensor(c)
    return t - t.transpose(1, 0, 2, 3)


def _hessian_defect(c: np.ndarray, g: np.ndarray) -> np.ndarray:
    """<x*y - y*x, z> - (<y*z, x> - <x*z, y>) on basis triples."""
    lhs = np.einsum("ijl,lk->ijk", c - c.transpose(1, 0, 2), g)
    rhs = np.einsum("jkl,li->ijk", c, g) - np.einsum("ikl,lj->ijk", c, g)
    return lhs - rhs


def _sectional_target(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """T[i,j,k,l] = g_jk x_li - g_ik x_lj, i.e. <e_j,e_k> X e_i - <e_i,e_k> X e_j for X = x."""
    return np.einsum("jk,li->ijkl", g, x) - np.einsum("ik,lj->ijkl", g, x)


def _derivation_defect(d: np.ndarray, c: np.ndarray) -> np.ndarray:
    """D(x*y) - D(x)*y - x*D(y) on basis pairs."""
    return (
        np.einsum("lm,ijm->ijl", d, c)
        - np.einsum("mi,mjl->ijl", d, c)
        - np.einsum("mj,iml->ijl", d, c)
    )


def _paired_action(g: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """P[x,y,z] = <rho(z) x, y> + <rho(z) y, x>, the symmetrized action pairing."""
    d = np.einsum("ya,zax->zyx", g, rho)
    return np.einsum("zyx->xyz", d) + np.einsum("zxy->xyz", d)


def koszul_form(A: AlgebraStructure) -> BilinearForm:
    """The trace form B(x, y) = tr(L_{x*y})."""
    return BilinearForm(np.einsum("ijk,k->ij", A.constants, _traces(A.constants)))


def trace_one_form(A: AlgebraStructure) -> np.ndarray:
    """Covector alpha with alpha[k] = -tr(L_{e_k})."""
    return -_traces(A.constants)


def is_positive_definite(F: BilinearForm, tol: Tolerance = Tolerance()) -> PredicateReport:
    """Definiteness test: smallest eigenvalue above the scaled tolerance.

    max_residual reports the negated smallest eigenvalue, so large negative
    values mean comfortably positive definite.
    """
    if F.dim == 0:
        return PredicateReport(holds=True, max_residual=0.0, witness=None)
    lam_min = float(np.linalg.eigvalsh(F.matrix)[0])
    thr = tol.eps * residual_scale(F.matrix)
    return PredicateReport(holds=bool(lam_min > thr), max_residual=-lam_min, witness=None)


def check_left_symmetric(A: AlgebraStructure, tol: Tolerance = Tolerance()) -> PredicateReport:
    """Associator symmetric in its first two arguments."""
    return _report(_left_symmetry_defect(A.constants), tol, A.constants)


def check_commutative(A: AlgebraStructure, tol: Tolerance = Tolerance()) -> PredicateReport:
    return _report(A.constants - A.constants.transpose(1, 0, 2), tol, A.constants)


def check_associative(A: AlgebraStructure, tol: Tolerance = Tolerance()) -> PredicateReport:
    return _report(_assoc_tensor(A.constants), tol, A.constants)


def check_novikov(A: AlgebraStructure, tol: Tolerance = Tolerance()) -> PredicateReport:
    """Right symmetry (x*y)*z = (x*z)*y together with left symmetry.

    The report covers the conjunction, so holds means the algebra is
    Novikov, not merely right-symmetric.
    """
    c = A.constants
    left = _compose(c, c)
    return _joint(
        _report(left - left.transpose(0, 2, 1, 3), tol, c),
        _report(_left_symmetry_defect(c), tol, c),
    )


def check_hessian(A: AlgebraStructure, F: BilinearForm, tol: Tolerance = Tolerance()) -> PredicateReport:
    """Compatibility <x*y - y*x, z> = <y*z, x> - <x*z, y> on basis triples."""
    if F.dim != A.dim:
        raise DimensionMismatch(f"form dim {F.dim} != algebra dim {A.dim}")
    c, g = A.constants, F.matrix
    return _report(_hessian_defect(c, g), tol, c, g)


def check_koszul_identity(A: AlgebraStructure, tol: Tolerance = Tolerance()) -> PredicateReport:
    """check_hessian against the algebra's own trace form."""
    return check_hessian(A, koszul_form(A), tol)


def check_k_hessian(
    A: AlgebraStructure, F: BilinearForm, k: float, tol: Tolerance = Tolerance()
) -> PredicateReport:
    """Hessian compatibility plus the sectional identity

    ass(x,y,z) - ass(y,x,z) = k (<x,z> y - <y,z> x)

    checked jointly; the report covers the worse of the two.
    """
    if F.dim != A.dim:
        raise DimensionMismatch(f"form dim {F.dim} != algebra dim {A.dim}")
    c, g = A.constants, F.matrix
    r_sec = _report(
        _left_symmetry_defect(c) + k * _sectional_target(g, np.eye(A.dim)), tol, c, g, np.array([k])
    )
    return _joint(r_sec, check_hessian(A, F, tol))


def _require_antisymmetric(A: AlgebraStructure, tol: Tolerance) -> None:
    resid = _max_abs(A.constants + A.constants.transpose(1, 0, 2))
    _enforce({"antisymmetric": resid}, tol.eps * residual_scale(A.constants), NotAntisymmetric)


def check_jacobi(A: AlgebraStructure, tol: Tolerance = Tolerance()) -> PredicateReport:
    """Jacobi identity for antisymmetric constants.

    Raises NotAntisymmetric when the constants are not a candidate bracket.
    """
    _require_antisymmetric(A, tol)
    c = A.constants
    t = _compose(c, c)
    jac = t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)
    return _report(jac, tol, c)


def is_solvable(A: AlgebraStructure, tol: Tolerance = Tolerance()) -> bool:
    """Whether the Lie algebra given by antisymmetric constants is solvable.

    Runs the derived series with numeric rank decisions: span dimensions
    come from singular values above eps * sigma_max.
    """
    _require_antisymmetric(A, tol)
    n = A.dim
    if n == 0:
        return True
    basis = np.eye(n)
    rank = n
    while True:
        # basis keeps at least one column, so w is never empty
        w = _restrict(A.constants, basis).reshape(-1, n)
        _, sigma, vt = np.linalg.svd(w, full_matrices=False)
        if sigma[0] <= tol.eps:
            return True
        new_rank = int(np.sum(sigma > tol.eps * sigma[0]))
        if new_rank == 0:
            return True
        if new_rank >= rank:
            return False
        basis = vt[:new_rank].T
        rank = new_rank


def _left_operators(A: AlgebraStructure) -> np.ndarray:
    """Stack of left multiplication matrices, Ls[i] = L_{e_i}."""
    return A.constants.transpose(0, 2, 1)


def rn_isomorphism(A: AlgebraStructure, tol: Tolerance = Tolerance()) -> np.ndarray:
    """Basis matrix P carrying A onto the coordinatewise product on R^n.

    Requires A commutative, left-symmetric, with positive definite trace
    form; such an algebra has a unique basis of orthogonal idempotents up
    to order.  Strategy: orthonormalize the trace form, split a random
    combination of the (then symmetric) left multiplications, rescale the
    eigenvectors to idempotents, and order them by their largest original
    coordinate so the canonical algebra returns the identity matrix.
    """
    rep_lsa = check_left_symmetric(A, tol)
    if not rep_lsa:
        raise PreconditionFailed(f"not left-symmetric, residual {rep_lsa.max_residual:.3e}")
    rep_comm = check_commutative(A, tol)
    if not rep_comm:
        raise PreconditionFailed(f"not commutative, residual {rep_comm.max_residual:.3e}")
    B = koszul_form(A)
    rep_pd = is_positive_definite(B, tol)
    if not rep_pd:
        raise PreconditionFailed("trace form not positive definite")

    n = A.dim
    w, v = np.linalg.eigh(B.matrix)
    q = v / np.sqrt(w)[None, :]
    Aq = change_basis(A, q, tol)
    ls = _left_operators(Aq)
    canonical = np.zeros((n, n, n))
    for i in range(n):
        canonical[i, i, i] = 1.0

    last_resid = np.inf
    for attempt in range(8):
        rng = np.random.default_rng(20240517 + attempt)
        coeff = rng.standard_normal(n)
        t = np.tensordot(coeff, ls, axes=1)
        t = (t + t.T) / 2.0
        mu, u = np.linalg.eigh(t)
        if n > 1 and np.min(np.diff(mu)) <= 1e-6 * residual_scale(mu):
            continue
        cols = []
        ok = True
        for j in range(n):
            vec = u[:, j]
            prod = multiply(Aq, vec, vec)
            lam = float(vec @ prod)
            if abs(lam) <= 1e-8:
                ok = False
                break
            cols.append(vec / lam)
        if not ok:
            continue
        p = q @ np.column_stack(cols)
        order = sorted(
            range(n),
            key=lambda j: (int(np.argmax(np.abs(p[:, j]))), tuple(np.round(p[:, j], 9))),
        )
        p = p[:, order]
        final = change_basis(A, p, tol)
        resid = _max_abs(final.constants - canonical)
        last_resid = min(last_resid, resid)
        if resid <= tol.eps * residual_scale(final.constants):
            return p
    raise DiagonalizationFailed(
        f"no idempotent basis found within tolerance, best residual {last_resid:.3e}"
    )
