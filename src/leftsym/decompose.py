"""Structure recovery for left-symmetric algebras with positive definite
trace form.

The pipeline runs in four stages, each of which certifies what it uses:

1. find_idempotent_H: the trace form B is positive definite and the B-dual
   H of the trace character is idempotent.
2. split_h: on the B-orthocomplement h of H (orthonormalized for the
   normalized inner product <,> = B / B(H,H)) the product induces a product
   circ plus two operators S (right multiplication by H) and A_op (left
   multiplication by H), and the relations tying (circ, <,>, S, A_op)
   together hold.
3. eigensplit: S has spectrum {0, 1}; on the eigenspaces A_op splits into
   skew parts B1 (shifted by 1/2) and B2 (shifted by 1).
4. extract_structure: the product blocks over the two eigenspaces give the
   structure data (rho1, rho2, omega1, omega2, circ2), and the full
   compatibility systems S1, S2, S3-1..S3-8 plus the flatness and
   representation conditions hold.

Every relation is a whole-tensor contraction, kept by name as a core.Check
in the stage's result (residual None marks a relation that is vacuous
because one of the parts is zero dimensional), and the first relation
beyond its threshold raises under that name (the checks of find_idempotent_H
and _orthonormalize go unrecorded); koszul_blocks is allowed ten times the
others, and the {0, 1} spectrum of S the fixed _CLUSTER_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._systems import system_residuals
from .core import AlgebraStructure, Check, Tolerance, change_basis, multiply, residual_scale
from .core import _compose, _enforce, _max_abs, _restrict, _slab_worst, _worst_of
from .errors import (
    BlockNotSkew,
    Circ1NonZero,
    DiagonalizationFailed,
    HypothesisFailed,
    IdempotentCheckFailed,
    NotPositiveDefinite,
    SpectrumNotZeroOne,
    SystemASViolated,
    SystemViolated,
)
from .forms import check_left_symmetric, koszul_form
from .forms import _definite_trace_form, _derivation_defect, _hessian_defect, _left_symmetry_slabs
from .forms import _operator_sectional, _traces, _worst

_CLUSTER_TOL = 1e-6  # clustering width for the S-spectrum around {0, 1}
_SMALLEST_POSITIVE = float(np.nextafter(0.0, 1.0))  # x >= this is x > 0 as a Check threshold


def find_idempotent_H(A: AlgebraStructure, tol: Tolerance = Tolerance()) -> np.ndarray:
    """The canonical idempotent: B-dual of the trace character.

    Solves B(H, x) = tr(L_x) for H and verifies H*H = H.
    """
    B, definite = _definite_trace_form(A, tol)
    _enforce([definite], NotPositiveDefinite)
    H = np.linalg.solve(B.matrix, _traces(A.constants))
    thr = tol.eps * residual_scale(A.constants, H)
    _enforce([Check("H*H-H", _max_abs(multiply(A, H, H) - H), thr)], IdempotentCheckFailed)
    return H


def _orthonormalize(cols: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gram-Schmidt for the inner product g, as Cholesky QR run twice: u -> u R^-1, g(u, u) = R^T R.

    Raises NotPositiveDefinite when g takes a negative value on the span of the
    columns, and DiagonalizationFailed when a Cholesky pivot falls to 1e-12 of their scale.
    """
    u = cols.astype(float)
    floor = 1e-12 * residual_scale(cols)
    for _ in range(2):
        gram = u.T @ g @ u
        try:
            low = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            low = np.zeros_like(gram)  # the factorization met a pivot that is not positive
        pivot = Check("Cholesky pivot", -float(low.diagonal().min(initial=np.inf)), -floor)
        if not pivot:
            lam = float(np.linalg.eigvalsh(gram)[0])
            _enforce([Check("positive definite on the complement", -lam, 0.0)], NotPositiveDefinite)
            _enforce([pivot], DiagonalizationFailed)
        u = np.linalg.solve(low, u.T).T
    return u


class _Staged:
    @property
    def residuals(self) -> dict[str, float | None]:
        """The residual of each check, by name."""
        return {check.name: check.residual for check in self.checks}


@dataclass(frozen=True, eq=False)
class HSplit(_Staged):
    """Stage-2 result: the complement of H with its induced data.

    h_basis columns are ambient vectors, orthonormal for <,> = B/rho.
    S and A_op are square matrices in that basis, circ the induced product
    on the complement, gram the measured Gram matrix (identity up to
    roundoff).
    """

    H: np.ndarray
    rho: float
    h_basis: np.ndarray
    S: np.ndarray
    A_op: np.ndarray
    circ: AlgebraStructure
    gram: np.ndarray
    checks: tuple[Check, ...]


def split_h(A: AlgebraStructure, H: np.ndarray, tol: Tolerance = Tolerance()) -> HSplit:
    """Split off H and certify the induced system on its complement."""
    n = A.dim
    B = koszul_form(A)
    rho = B.value(H, H)
    positive = Check("B(H,H)", -rho, -_SMALLEST_POSITIVE)  # rho > 0, unchanged by a rescaling
    _enforce([positive], NotPositiveDefinite)
    inner = B.matrix / rho

    _, _, vt = np.linalg.svd((B.matrix @ H).reshape(1, -1))
    h_basis = _orthonormalize(vt[1:].T, inner)
    m = n - 1

    w_h = inner @ h_basis  # coordinate extractor: <v, u_i> = v @ w_h[:, i]
    w_H = inner @ H
    c = A.constants

    xh = h_basis.T @ (H @ c)  # rows: u_a * H
    hx = h_basis.T @ _compose(H, c)  # rows: H * u_a
    S = (xh @ w_h).T
    A_op = (hx @ w_h).T

    prod = _restrict(c, h_basis)
    h_coeff = prod @ w_H
    cc = _compose(prod, w_h)
    circ = AlgebraStructure(cc, name=f"{A.name}:circ" if A.name else "circ")
    gram = h_basis.T @ inner @ h_basis

    eye = np.eye(m)
    st = S.T
    s_right = _compose(st, cc.transpose(1, 0, 2))  # s_right[j, i] = e_i o S(e_j)
    as3 = _compose(cc - cc.transpose(1, 0, 2), st) - (s_right.transpose(1, 0, 2) - s_right)
    as4 = _derivation_defect(A_op, cc) + _compose(st, cc)  # + S(e_i) o e_j

    thr = tol.eps * residual_scale(c, S, A_op, cc)
    checks = (
        positive,
        Check("XH_stays_in_h", _max_abs(xh @ w_H), thr),
        Check("HX_stays_in_h", _max_abs(hx @ w_H), thr),
        Check("hh_H_component", _max_abs(h_coeff - eye), thr),
        Check("gram_identity", _max_abs(gram - eye), thr),
        Check("AS-1", _worst(_hessian_defect(cc, eye))[0], thr),
        Check("AS-2", _slab_worst(m, _left_symmetry_slabs(cc, _operator_sectional(S)))[0], thr),
        Check("AS-3", _max_abs(as3), thr),
        Check("AS-4", _max_abs(as4), thr),
        Check("AS-5", _max_abs(S - (A_op + A_op.T - eye)), thr),
        Check("AS-6", _max_abs(S @ A_op - A_op @ S - (S @ S - S)), thr),
        Check("AS-7", _max_abs(_traces(cc)), thr),
        Check("AS-S-symmetric", _max_abs(S - S.T), thr),
    )
    _enforce(checks[1:], SystemASViolated)
    return HSplit(H=H, rho=float(rho), h_basis=h_basis, S=S, A_op=A_op, circ=circ, gram=gram, checks=checks)


@dataclass(frozen=True, eq=False)
class EigenSplit(_Staged):
    """Stage-3 result: eigenbases of S (coordinates in the h basis) and the
    skew blocks of A_op on them."""

    h1: np.ndarray
    h2: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    checks: tuple[Check, ...]


def eigensplit(S: np.ndarray, A_op: np.ndarray, tol: Tolerance = Tolerance()) -> EigenSplit:
    """Split the complement along the {0, 1} spectrum of S."""
    S_sym = (S + S.T) / 2.0
    mu, u = np.linalg.eigh(S_sym) if S.size else (np.zeros(0), np.zeros((0, 0)))
    spectrum = Check("S_spectrum", _max_abs(np.minimum(np.abs(mu), np.abs(mu - 1.0))), _CLUSTER_TOL)
    _enforce([spectrum], SpectrumNotZeroOne)
    u1 = u[:, np.abs(mu) <= _CLUSTER_TOL]
    u2 = u[:, np.abs(mu - 1.0) <= _CLUSTER_TOL]
    n1, n2 = u1.shape[1], u2.shape[1]

    B1 = u1.T @ A_op @ u1 - np.eye(n1) / 2.0
    B2 = u2.T @ A_op @ u2 - np.eye(n2)
    thr = tol.eps * residual_scale(S, A_op)
    skew = (Check("B1", _max_abs(B1 + B1.T), thr), Check("B2", _max_abs(B2 + B2.T), thr))
    off = _worst_of([_max_abs(u1.T @ A_op @ u2), _max_abs(u2.T @ A_op @ u1)], default=0.0)
    offdiagonal = Check("A_offdiagonal", off, thr)  # implied by AS-6
    _enforce(skew, BlockNotSkew)
    _enforce([offdiagonal], SystemASViolated)
    checks = (spectrum, *skew, offdiagonal)
    return EigenSplit(h1=u1, h2=u2, B1=B1, B2=B2, checks=checks)


@dataclass(frozen=True, eq=False)
class LSPKDecomposition(_Staged):
    """Full structure data of a decomposed algebra.

    basis_h1/basis_h2 columns and H are ambient vectors; together they are
    orthonormal for <,> = B/rho (so the trace form is rho times the
    identity in this basis).  Operator-family tensors follow the convention
    rho1[x][l, m] = l-coordinate of the action of the x-th h1 basis vector
    on the m-th h2 basis vector, and omega1[x, y, :] is an h2-coordinate
    vector (symmetric in x, y); mirrored for rho2/omega2.
    """

    H: np.ndarray
    rho: float
    basis_h1: np.ndarray
    basis_h2: np.ndarray
    basis: np.ndarray
    S: np.ndarray
    A_op: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    rho1: np.ndarray
    rho2: np.ndarray
    omega1: np.ndarray
    omega2: np.ndarray
    circ2: AlgebraStructure
    checks: tuple[Check, ...]

    @property
    def dim_h1(self) -> int:
        return self.basis_h1.shape[1]

    @property
    def dim_h2(self) -> int:
        return self.basis_h2.shape[1]

    @property
    def signature(self) -> tuple[int, int, float]:
        return (self.dim_h1, self.dim_h2, self.rho)


def extract_structure(
    A: AlgebraStructure,
    hsplit: HSplit,
    esplit: EigenSplit,
    tol: Tolerance = Tolerance(),
) -> LSPKDecomposition:
    """Read off the block data on the eigenspaces and certify the systems."""
    u1, u2 = esplit.h1, esplit.h2
    n1, n2 = u1.shape[1], u2.shape[1]
    w = np.column_stack([u1, u2])
    circ_split = change_basis(hsplit.circ, w, tol) if w.size else hsplit.circ
    cc = circ_split.constants
    s1, s2 = slice(0, n1), slice(n1, n1 + n2)

    c2 = np.ascontiguousarray(cc[s2, s2, s2])
    omega1 = np.ascontiguousarray(cc[s1, s1, s2])
    omega2 = np.ascontiguousarray(cc[s2, s2, s1])
    rho1 = np.ascontiguousarray(cc[s1, s2, s2]).transpose(0, 2, 1)
    rho2 = np.ascontiguousarray(cc[s2, s1, s1]).transpose(0, 2, 1)
    circ2 = AlgebraStructure(c2, name=f"{A.name}:circ2" if A.name else "circ2")
    B1, B2 = esplit.B1, esplit.B2

    thr = tol.eps * residual_scale(A.constants, cc, B1, B2)
    blocks = (
        Check("circ1", _max_abs(cc[s1, s1, s1]), thr),
        Check("mixed_12_block", _max_abs(cc[s1, s2, s1]), thr),
        Check("mixed_21_block", _max_abs(cc[s2, s1, s2]), thr),
        *system_residuals(c2, rho1, rho2, omega1, omega2, B1, B2, np.eye(n1), np.eye(n2), thr),
    )

    basis_h1 = hsplit.h_basis @ u1
    basis_h2 = hsplit.h_basis @ u2
    basis = np.column_stack([basis_h1, basis_h2, hsplit.H])
    gram = basis.T @ koszul_form(A).matrix @ basis
    tail = (
        Check("koszul_blocks", _max_abs(gram - hsplit.rho * np.eye(A.dim)), 10.0 * thr),
        Check("rho_formula", abs(hsplit.rho - (n1 / 2.0 + n2 + 1.0)), thr),
    )

    _enforce(blocks[:1], Circ1NonZero)  # circ1 has its own error class
    _enforce(blocks + tail, SystemViolated)
    return LSPKDecomposition(
        H=hsplit.H,
        rho=hsplit.rho,
        basis_h1=basis_h1,
        basis_h2=basis_h2,
        basis=basis,
        S=hsplit.S,
        A_op=hsplit.A_op,
        B1=B1,
        B2=B2,
        rho1=rho1,
        rho2=rho2,
        omega1=omega1,
        omega2=omega2,
        circ2=circ2,
        checks=hsplit.checks + esplit.checks + blocks + tail,
    )


def decompose(A: AlgebraStructure, tol: Tolerance = Tolerance()) -> LSPKDecomposition:
    """Run the full pipeline; each stage raises on its own failures, after left symmetry, its first check."""
    flat = check_left_symmetric(A, tol)
    _enforce([flat], HypothesisFailed)
    H = find_idempotent_H(A, tol)
    hs = split_h(A, H, tol)
    es = eigensplit(hs.S, hs.A_op, tol)
    dec = extract_structure(A, hs, es, tol)
    return replace(dec, checks=(flat,) + dec.checks)
