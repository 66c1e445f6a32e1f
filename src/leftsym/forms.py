"""Bilinear forms and the numeric predicates certifying algebra axioms.

Predicates return a core.Check: the worst residual, the basis triple attaining
it and the threshold tol.eps * residual_scale(data); a conjunction reports its
first failing part.  All identities are evaluated on basis tuples by
whole-tensor contractions, so a check covers every multilinear instance of
the identity at once.  Each identity is written
once on plain arrays; the split systems, the decomposition stages and the
constructions evaluate the same contractions through them:

- rank-3 defects as tensors from one or three GEMMs (_traces, _hessian_defect,
  _derivation_defect, _paired_action), cost n^4;
- rank-4 defects as slabs over one index (the associativity, Novikov and
  Jacobi slabs), reduced by core._slab_worst to the worst entry and its witness
  without holding the n^4 tensor.  They cost the GEMMs of the whole-tensor form
  (n^5 multiply-adds each) in one slab of at most core._SLAB_FLOATS floats plus
  O(n^3).
- the left-symmetry defect d(x, y, z) = [x, y]z - x(yz) + y(xz), which is
  ass(x, y, z) - ass(y, x, z), through one kernel, _left_symmetry_worst: d is
  antisymmetric in (x, y), so it is evaluated on the basis pairs i <= j only,
  n^5 + n^4(n+1)/2 multiply-adds in slabs over k, holding one slab of
  e_i(e_j e_k) plus the pair slab.  check_left_symmetric, check_k_hessian,
  check_novikov, the split algebra of decompose.split_h, S2 (_systems) and the
  sectional hypothesis of construct.build_corollary2 all reduce through it.  The
  paper's sectional term c (<e_j, e_k> e_i - <e_i, e_k> e_j), for a metric <,> and
  a constant c, is added to each slab in closed form at n^3 cost (_metric_sectional).

Each algebra's trace form, residual_scale(C) and left-symmetry worst entry are
computed once and kept on the algebra itself (core._Owner._kept); a Check is
built per call from them and the caller's Tolerance, so thresholds follow the
tolerance as before.  An overflowing trace form raises and is never kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .core import (
    AlgebraStructure,
    Check,
    Tolerance,
    _compose,
    _conjunction,
    _enforce,
    _max_abs,
    _Owner,
    _readonly,
    _restrict,
    _slab_worst,
    change_basis,
    multiply,
    residual_scale,
)
from .errors import (
    DiagonalizationFailed,
    DimensionMismatch,
    HypothesisFailed,
    NotAntisymmetric,
    PreconditionFailed,
)


_FLOAT_MAX = float(np.finfo(float).max)


@dataclass(frozen=True, eq=False)
class BilinearForm(_Owner):
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
        top = np.abs(m).max(initial=0.0)
        if not top <= _FLOAT_MAX:  # inf or NaN
            raise ValueError("Gram matrix must be finite")
        if top > _FLOAT_MAX / 2.0:
            # m + m.T may overflow, so halve first (which, done everywhere, rounds subnormals)
            half = m / 2.0
            asym, sym = 2.0 * _max_abs(half - half.T), half + half.T
        else:
            asym, sym = _max_abs(m - m.T) or 0.0, (m + m.T) / 2.0
        object.__setattr__(self, "matrix", _readonly(sym))
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
class MetricAlgebra(_Owner):
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


def _worst(resid: np.ndarray) -> tuple[float | None, tuple[int, ...] | None]:
    """Largest absolute entry and (up to) the first three of its indices; (None, None) when empty."""
    if resid.size == 0:
        return None, None
    flat = int(np.argmax(np.abs(resid)))
    idx = np.unravel_index(flat, resid.shape)
    return float(np.abs(resid.flat[flat])), tuple(int(i) for i in idx[:3])


def _traces(c: np.ndarray) -> np.ndarray:
    """Trace of every slice, t[k] = sum_m c[k, m, m]; tr(L_{e_k}) for structure constants."""
    return np.einsum("kmm->k", c)


@lru_cache(maxsize=64)
def _pair_index(n: int) -> tuple[np.ndarray, ...]:
    """The basis pairs i <= j in C order: ii, jj, their positions p, and the rows i*n + j and j*n + i."""
    ii, jj = np.triu_indices(n)
    index = (ii, jj, np.arange(ii.size), ii * n + jj, jj * n + ii)
    for a in index:
        a.setflags(write=False)
    return index


def _left_symmetry_worst(c: np.ndarray, target=None) -> tuple[float | None, tuple[int, int, int] | None]:
    """Largest |d| of d(e_i, e_j, e_k) = [e_i, e_j]e_k - e_i(e_j e_k) + e_j(e_i e_k), and its witness.

    d = ass(x, y, z) - ass(y, x, z) is antisymmetric in (x, y), so its worst entry and
    first witness in C order are found on the pairs i <= j.  Each slab over k takes one
    GEMM of the bracket rows against c and one batched product q[i, j] = e_i(e_j e_k),
    whose rows (i, j) and (j, i) give the other two terms.  The diagonal pairs stay:
    their entries are 0, or NaN where a product overflows.  target(d, lo, hi), when
    given, adds a sectional term in place to each slab d[p, k - lo, l].
    """
    n = c.shape[0]
    ii, jj, _, rows_ij, rows_ji = _pair_index(n)
    bracket = c[ii, jj] - c[jj, ii]

    def slab(lo: int, hi: int) -> np.ndarray:
        ck = np.ascontiguousarray(c[:, lo:hi])  # ck[m, k, l], or as rows (j, k): ck[j, k, m]
        d = bracket @ ck.reshape(n, -1)  # [e_i, e_j] e_k
        q = np.matmul(ck.reshape(-1, n), c).reshape(n * n, -1)  # q[i*n + j] = e_i (e_j e_k)
        d -= q[rows_ij]
        d += q[rows_ji]
        d = d.reshape(-1, hi - lo, n)
        if target is not None:
            target(d, lo, hi)
        return d

    return _slab_worst(n, slab, pairs=(ii, jj))


def _metric_sectional(g: np.ndarray, factor: float):
    """Slab update adding factor * (<e_j, e_k> e_i - <e_i, e_k> e_j), in closed form at n^3 cost."""
    ii, jj, pp = _pair_index(g.shape[0])[:3]

    def update(d: np.ndarray, lo: int, hi: int) -> None:
        gk = factor * g[:, lo:hi]
        d[pp, :, ii] += gk[jj]
        d[pp, :, jj] -= gk[ii]

    return update


def _hessian_defect(c: np.ndarray, g: np.ndarray) -> np.ndarray:
    """<x*y - y*x, z> - (<y*z, x> - <x*z, y>) on basis triples."""
    p = _compose(c, g)  # p[i, j, k] = <e_i e_j, e_k>
    return p - p.transpose(1, 0, 2) - (p.transpose(2, 0, 1) - p.transpose(0, 2, 1))


def _derivation_defect(d: np.ndarray, c: np.ndarray) -> np.ndarray:
    """D(x*y) - D(x)*y - x*D(y) on basis pairs."""
    dt = d.T
    return (
        _compose(c, dt)
        - _compose(dt, c)
        - _compose(dt, c.transpose(1, 0, 2)).transpose(1, 0, 2)
    )


def _paired_action(g: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """P[x,y,z] = <rho(z) x, y> + <rho(z) y, x>, the symmetrized action pairing."""
    d = np.einsum("ya,zax->zyx", g, rho)
    return np.einsum("zyx->xyz", d) + np.einsum("zxy->xyz", d)


def _algebra_scale(A: AlgebraStructure) -> float:
    """residual_scale of the structure constants, computed once per algebra."""
    return A._kept("scale", lambda: residual_scale(A.constants))


def _trace_form(A: AlgebraStructure) -> BilinearForm:
    b = np.einsum("ijk,k->ij", A.constants, _traces(A.constants))
    if not np.isfinite(b).all():
        raise PreconditionFailed("trace form is not finite: the products overflow")
    return BilinearForm(b)


def koszul_form(A: AlgebraStructure) -> BilinearForm:
    """The trace form B(x, y) = tr(L_{x*y}), built once per algebra; PreconditionFailed when it overflows."""
    return A._kept("trace form", lambda: _trace_form(A))


def trace_one_form(A: AlgebraStructure) -> np.ndarray:
    """Covector alpha with alpha[k] = -tr(L_{e_k})."""
    return -_traces(A.constants)


def is_positive_definite(F: BilinearForm, tol: Tolerance = Tolerance()) -> Check:
    """Definiteness: residual -lambda_min against threshold -eps * residual_scale(F).

    Large negative residuals mean comfortably positive definite.
    """
    thr = -tol.eps * residual_scale(F.matrix)
    if F.dim == 0:
        return Check("positive definite", None, thr)
    return Check("positive definite", -float(np.linalg.eigvalsh(F.matrix)[0]), thr)


def _definite_trace_form(A: AlgebraStructure, tol: Tolerance) -> tuple[BilinearForm, Check]:
    """The trace form and its definiteness, as the check "positive definite trace form"."""
    B = koszul_form(A)
    return B, replace(is_positive_definite(B, tol), name="positive definite trace form")


def check_left_symmetric(A: AlgebraStructure, tol: Tolerance = Tolerance()) -> Check:
    """Associator symmetric in its first two arguments; measured once per algebra."""
    worst, at = A._kept("left symmetry", lambda: _left_symmetry_worst(A.constants))
    return Check("left-symmetric", worst, tol.eps * _algebra_scale(A), at)


def check_commutative(A: AlgebraStructure, tol: Tolerance = Tolerance()) -> Check:
    c = A.constants
    worst, at = _worst(c - c.transpose(1, 0, 2))
    return Check("commutative", worst, tol.eps * _algebra_scale(A), at)


def check_associative(A: AlgebraStructure, tol: Tolerance = Tolerance()) -> Check:
    c = A.constants
    ct = np.ascontiguousarray(c.transpose(1, 0, 2))

    def associator_slab(lo: int, hi: int) -> np.ndarray:
        ck = c[:, lo:hi]
        t = _compose(c, ck)  # (e_i e_j) e_k, slabs over k
        t -= _compose(ck, ct).transpose(2, 0, 1, 3)  # [j, k, i] = e_i (e_j e_k)
        return t

    worst, at = _slab_worst(A.dim, associator_slab)
    return Check("associative", worst, tol.eps * _algebra_scale(A), at)


def check_novikov(A: AlgebraStructure, tol: Tolerance = Tolerance()) -> Check:
    """Right symmetry (x*y)*z = (x*z)*y together with left symmetry.

    The check covers the conjunction, so holds means the algebra is
    Novikov, not merely right-symmetric.
    """
    c = A.constants

    def right_symmetry(lo: int, hi: int) -> np.ndarray:
        left = _compose(c, c[:, :, lo:hi])  # (e_i e_j) e_k, slabs over the last index
        return left - left.transpose(0, 2, 1, 3)

    worst, at = _slab_worst(A.dim, right_symmetry, axis=3)
    right = Check("right-symmetric", worst, tol.eps * _algebra_scale(A), at)
    return _conjunction((right, check_left_symmetric(A, tol)))


def check_hessian(A: AlgebraStructure, F: BilinearForm, tol: Tolerance = Tolerance()) -> Check:
    """Compatibility <x*y - y*x, z> = <y*z, x> - <x*z, y> on basis triples."""
    if F.dim != A.dim:
        raise DimensionMismatch(f"form dim {F.dim} != algebra dim {A.dim}")
    c, g = A.constants, F.matrix
    worst, at = _worst(_hessian_defect(c, g))
    return Check("hessian", worst, tol.eps * residual_scale(c, g), at)


def check_koszul_identity(A: AlgebraStructure, tol: Tolerance = Tolerance()) -> Check:
    """check_hessian against the algebra's own trace form."""
    return check_hessian(A, koszul_form(A), tol)


def check_k_hessian(
    A: AlgebraStructure, F: BilinearForm, k: float, tol: Tolerance = Tolerance()
) -> Check:
    """The sectional identity

    ass(x,y,z) - ass(y,x,z) = k (<x,z> y - <y,z> x)

    together with Hessian compatibility; the check is the conjunction of
    the parts "sectional" and "hessian".
    """
    if F.dim != A.dim:
        raise DimensionMismatch(f"form dim {F.dim} != algebra dim {A.dim}")
    if not np.isfinite(k):
        raise ValueError(f"k must be finite, got {k}")
    c, g = A.constants, F.matrix
    worst, at = _left_symmetry_worst(c, _metric_sectional(g, k))
    sectional = Check("sectional", worst, tol.eps * residual_scale(c, g, np.array([k])), at)
    return _conjunction((sectional, check_hessian(A, F, tol)))


def _require_antisymmetric(A: AlgebraStructure, tol: Tolerance) -> None:
    resid = _max_abs(A.constants + A.constants.transpose(1, 0, 2))
    _enforce([Check("antisymmetric", resid, tol.eps * _algebra_scale(A))], NotAntisymmetric)


def check_jacobi(A: AlgebraStructure, tol: Tolerance = Tolerance()) -> Check:
    """Jacobi identity for antisymmetric constants.

    Raises NotAntisymmetric when the constants are not a candidate bracket.
    """
    _require_antisymmetric(A, tol)
    c = A.constants

    def jacobi(lo: int, hi: int) -> np.ndarray:
        # slabs over the last index, so the three cyclic terms share one product
        t = _compose(c, c[:, :, lo:hi])
        return t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)

    worst, at = _slab_worst(A.dim, jacobi, axis=3)
    return Check("jacobi", worst, tol.eps * _algebra_scale(A), at)


def is_solvable(A: AlgebraStructure, tol: Tolerance = Tolerance()) -> bool:
    """Whether the Lie algebra given by antisymmetric constants is solvable.

    Runs the derived series with numeric rank decisions: span dimensions
    come from singular values above eps * sigma_max, and a derived algebra
    is zero when sigma_max is at most eps * max|C|: both scale with the data.
    """
    _require_antisymmetric(A, tol)
    n = A.dim
    if n == 0:
        return True
    zero = tol.eps * _max_abs(A.constants)
    basis = np.eye(n)
    rank = n
    while True:
        # basis keeps at least one column, so w is never empty
        w = _restrict(A.constants, basis).reshape(-1, n)
        _, sigma, vt = np.linalg.svd(w, full_matrices=False)
        if sigma[0] <= zero:
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
    form (HypothesisFailed names the one that fails); such an algebra has a unique basis of orthogonal idempotents up
    to order.  Strategy: orthonormalize the trace form, split a random
    combination of the (then symmetric) left multiplications, rescale the
    eigenvectors to idempotents, and order them by their largest original
    coordinate so the canonical algebra returns the identity matrix.
    """
    _enforce([check_left_symmetric(A, tol), check_commutative(A, tol)], HypothesisFailed)
    B, definite = _definite_trace_form(A, tol)
    _enforce([definite], HypothesisFailed)

    n = A.dim
    if n == 0:
        return np.zeros((0, 0))  # the empty basis; there are no idempotents to split off
    w, v = np.linalg.eigh(B.matrix)
    q = v / np.sqrt(w)[None, :]
    Aq = change_basis(A, q, tol)
    ls = _left_operators(Aq)
    canonical = np.zeros((n, n, n))
    for i in range(n):
        canonical[i, i, i] = 1.0

    best = Check("idempotent basis", np.inf, 0.0)  # stands when every attempt is skipped
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
        thr = tol.eps * residual_scale(final.constants)
        check = Check("idempotent basis", _max_abs(final.constants - canonical), thr)
        if check:
            return p
        best = min(best, check, key=lambda c: c.residual)
    _enforce([best], DiagonalizationFailed)  # raises: no attempt above held
