"""Structure recovery for left-symmetric algebras with positive definite
trace form.

The pipeline runs in four stages, each of which certifies what it uses:

1. find_idempotent_H: the trace form B is positive definite and the B-dual
   H of the trace character is idempotent.
2. split_h: on the B-orthocomplement h of H (orthonormalized for the
   normalized inner product <,> = B / B(H,H)) the product induces a product
   circ plus two operators S (right multiplication by H) and A_op (left
   multiplication by H).  With <,> = I, x H = S x, H x = A_op x and H H = H
   they define the split algebra on h + R H, whose left symmetry,
   the check "split left-symmetric", is the paper's AS-1..AS-6.  Its defect
   d(x, y, z) by blocks, output in h / along H: (h, h, h) AS-2 / AS-1,
   (h, h, H) AS-3 / S symmetric, (H, h, h) AS-4 / AS-5, (H, h, H) AS-6.  In
   its witness (i, j, k), i <= j and n - 1 is H: j = n - 1 points at AS-4 or
   AS-5 (k < n - 1) or AS-6 (k = n - 1), j < k = n - 1 at AS-3 or S symmetric.
   AS-7, circ traceless, is checked beside it.
3. eigensplit: S has spectrum {0, 1}; on the eigenspaces A_op splits into
   skew parts B1 (shifted by 1/2) and B2 (shifted by 1).
4. extract_structure: A is written once in the basis (h1, h2, H), the frame,
   and every field of the structure data (the product blocks, and B1, B2 from
   the H row) is read off it through construct.LSPKData._layout, the table
   build_lspk writes through; so the rebuild equals the frame on every data
   block.  The frame's zero blocks hold, among them rho1_block and
   omega2_block, where the paper's forced zeros rho1 and omega2 sit; the eight
   relations of _systems.NAMES hold to the threshold build_lspk holds them to,
   and rho is certified against LSPKData.rho.

Every relation is a whole-tensor contraction, kept by name as a core.Check
in the stage's result (residual None marks a relation that spans a zero
dimensional part, which _systems then does not evaluate), and the first relation
beyond its threshold raises under that name (the checks of find_idempotent_H
and _orthonormalize go unrecorded); koszul_blocks is allowed ten times the
others, rho1_block and omega2_block theirs over 4 n s (see extract_structure),
and the {0, 1} spectrum of S the fixed _CLUSTER_TOL.

The trace form and the left-symmetry measurement of the input are kept on the
algebra (forms.koszul_form, forms.check_left_symmetric), so one decompose builds
one trace form and runs the n^5 left-symmetry kernel on the input, on the split
algebra and, when h2 is not empty, for S2.  The rebuild
build_lspk(data_from_decomposition(dec)) reads the systems measured on dec.data,
so the round trip measures them once and runs the kernel once more, on the
rebuilt algebra: four runs, three for flat data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .construct import LSPKData, _data_checks
from .core import AlgebraStructure, Check, Tolerance, change_basis, multiply, residual_scale
from .core import _Owner, _compose, _enforce, _max_abs, _readonly, _restrict, _worst_of
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
from .forms import _definite_trace_form, _left_symmetry_worst, _traces

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
    S and A_op are square matrices in that basis; the check gram_identity
    holds how far the measured Gram matrix of h_basis is from the identity.
    """

    H: np.ndarray
    rho: float
    h_basis: np.ndarray
    S: np.ndarray
    A_op: np.ndarray
    checks: tuple[Check, ...]


def split_h(A: AlgebraStructure, H: np.ndarray, tol: Tolerance = Tolerance()) -> HSplit:
    """Split off H and certify the induced system on its complement as one left symmetry."""
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
    cc = _compose(prod, w_h)  # the induced product on h
    gram = h_basis.T @ inner @ h_basis

    eye = np.eye(m)
    split = np.zeros((n, n, n))  # the split algebra on h + R H of the module docstring, H last
    split[:m, :m, :m] = cc
    split[:m, :m, m] = eye
    split[:m, m, :m] = S.T
    split[m, :m, :m] = A_op.T
    split[m, m, m] = 1.0
    worst, at = _left_symmetry_worst(split) if m else (None, None)

    thr = tol.eps * residual_scale(c, S, A_op, cc)
    checks = (
        positive,
        Check("XH_stays_in_h", _max_abs(xh @ w_H), thr),
        Check("HX_stays_in_h", _max_abs(hx @ w_H), thr),
        Check("hh_H_component", _max_abs(h_coeff - eye), thr),
        Check("gram_identity", _max_abs(gram - eye), thr),
        Check("split left-symmetric", worst, thr, at),
        Check("AS-7", _max_abs(_traces(cc)), thr),
    )
    _enforce(checks[1:], SystemASViolated)
    return HSplit(H=H, rho=float(rho), h_basis=h_basis, S=S, A_op=A_op, checks=checks)


@dataclass(frozen=True, eq=False)
class EigenSplit(_Staged):
    """Stage-3 result: eigenbases of S (coordinates in the h basis) and the
    checks that the blocks of A_op on them are skew."""

    h1: np.ndarray
    h2: np.ndarray
    checks: tuple[Check, ...]


def eigensplit(S: np.ndarray, A_op: np.ndarray, tol: Tolerance = Tolerance()) -> EigenSplit:
    """Split the complement along the {0, 1} spectrum of S, with the shifts of LSPKData._layout."""
    S_sym = (S + S.T) / 2.0
    mu, u = np.linalg.eigh(S_sym) if S.size else (np.zeros(0), np.zeros((0, 0)))
    spectrum = Check("S_spectrum", _max_abs(np.minimum(np.abs(mu), np.abs(mu - 1.0))), _CLUSTER_TOL)
    _enforce([spectrum], SpectrumNotZeroOne)
    u1 = u[:, np.abs(mu) <= _CLUSTER_TOL]
    u2 = u[:, np.abs(mu - 1.0) <= _CLUSTER_TOL]
    n1, n2 = u1.shape[1], u2.shape[1]

    shifts = {key: shift for key, _, _, shift in LSPKData._layout(n1, n2)}
    B1 = LSPKData._shifted(u1.T @ A_op @ u1, -shifts["b1"])
    B2 = LSPKData._shifted(u2.T @ A_op @ u2, -shifts["b2"])
    thr = tol.eps * residual_scale(S, A_op)
    skew = (Check("B1", _max_abs(B1 + B1.T), thr), Check("B2", _max_abs(B2 + B2.T), thr))
    off = _worst_of([_max_abs(u1.T @ A_op @ u2), _max_abs(u2.T @ A_op @ u1)], default=0.0)
    offdiagonal = Check("A_offdiagonal", off, thr)  # implied by AS-6 (split left-symmetric)
    _enforce(skew, BlockNotSkew)
    _enforce([offdiagonal], SystemASViolated)
    checks = (spectrum, *skew, offdiagonal)
    return EigenSplit(h1=u1, h2=u2, checks=checks)


@dataclass(frozen=True, eq=False)
class LSPKDecomposition(_Staged, _Owner):
    """Full structure data of a decomposed algebra.

    The columns of basis are ambient vectors, (h1 basis, h2 basis, H) in
    that order, orthonormal for <,> = B/rho, and frame = change_basis(A,
    basis).  Arrays are stored once, read-only also after a pickle or copy:
    H and the part bases are views of basis, S and A_op (right and left
    multiplication by H on h, in the coordinates of basis) views of the
    frame's H column and H row.  rho2[x][a, b] is the a-coordinate of the
    action of the x-th h2 basis vector on the b-th h1 basis vector, and
    omega1[x, y, :] the h2-coordinates of the product of the x-th and y-th h1
    basis vectors (symmetric in x, y).  The mirrored blocks, the action of h1
    on h2 (rho1) and the h1-coordinates of h2 * h2 (omega2), are zero, and the
    checks rho1_block and omega2_block certify it.  With it they certify the
    relations those zeros make vacuous (see extract_structure): rho1_block
    theo-i-trace, theo-i-commute, S3-3, S3-5 and S3-7, omega2_block
    omega2_symmetric, S3-4 and S3-5, and the two together S1's second half,
    S3-1 and S3-2.  rho2, omega1, B1/B2, the part dimensions and circ2 (kept
    on first use) are read through data, the construction data read off the
    frame with identity metrics, which keeps the measurement of the systems.
    """

    rho: float
    basis: np.ndarray
    frame: AlgebraStructure
    data: LSPKData
    checks: tuple[Check, ...]

    S = property(lambda self: self.frame.constants[:-1, -1, :-1].T)
    A_op = property(lambda self: self.frame.constants[-1, :-1, :-1].T)
    B1 = property(lambda self: self.data.b1)
    B2 = property(lambda self: self.data.b2)
    rho2 = property(lambda self: self.data.rho2)
    omega1 = property(lambda self: self.data.omega1)
    dim_h1 = property(lambda self: self.data.n1)
    dim_h2 = property(lambda self: self.data.n2)
    basis_h1 = property(lambda self: self.basis[:, : self.data.n1])
    basis_h2 = property(lambda self: self.basis[:, self.data.n1 : -1])
    H = property(lambda self: self.basis[:, -1])

    @property
    def circ2(self) -> AlgebraStructure:
        name = f"{self.frame.name}:circ2" if self.frame.name else "circ2"
        return self._kept("circ2", lambda: AlgebraStructure(self.data.c2, name=name))

    @property
    def signature(self) -> tuple[int, int, float]:
        return (self.dim_h1, self.dim_h2, self.rho)


def extract_structure(
    A: AlgebraStructure,
    hsplit: HSplit,
    esplit: EigenSplit,
    tol: Tolerance = Tolerance(),
) -> LSPKDecomposition:
    """Write A in the decomposition basis, read the split data off it and certify the systems.

    The eight relations of _systems.NAMES are held to build_lspk's own threshold
    (construct._data_checks, free of A's scale), so the rebuild accepts what
    decompose certified.  The frame's blocks are held to thr, eps times the
    scale of A and of the data.  Beside circ1 and the mixed blocks, the zero
    blocks rho1_block (h1 * h2 into h2) and omega2_block (h2 * h2 into h1) hold
    the paper's rho1 and omega2, which S3-7 and S1 force to zero (see _systems).
    Each is checked against thr / (4 n s): n is the dimension, and s the
    residual_scale of the product on h (which holds c2, rho2, omega1 and both
    blocks) and of b1, b2.  That keeps the nine relations those zeros make
    vacuous, and S1's second half, at most the block threshold thr.  Take
    identity metrics, every field at most s >= 1, and both blocks at most
    e <= s, so e * e <= s * e in the quadratic terms of theo-i-commute and
    S3-5.  Then a sum of m products, each with one factor from the blocks, is
    at most m s e, and with n1 + n2 = n - 1 the relations are at most:
    omega2_symmetric 2e, theo-i-trace n2 e, theo-i-commute 2 n2 s e, S1's
    second half (omega2 minus the paired rho1) 3e, S3-1 (3 n2 + 2 n1) s e, S3-2,
    S3-3 and S3-5 2 n2 s e, S3-4 (2 n1 + 4 n2) s e (its c2 bracket is at most
    2s), and S3-7 (2 n2 + n1) s e + e/2.  Each is at most 4 (n - 1) s e, so
    e <= thr / (4 n s) keeps all of them at most thr, and an input on which one
    exceeds thr is refused under a block's name.
    """
    u1, u2 = esplit.h1, esplit.h2
    n1, n2 = u1.shape[1], u2.shape[1]
    basis = _readonly(np.column_stack([hsplit.h_basis @ u1, hsplit.h_basis @ u2, hsplit.H]))
    frame = change_basis(A, basis, tol)
    fc = frame.constants
    fields = {key: LSPKData._shifted(fc[block].transpose(axes), -shift)
              for key, block, axes, shift in LSPKData._layout(n1, n2)}
    data = LSPKData(n1=n1, n2=n2, **fields)

    cc = fc[:-1, :-1, :-1]  # the induced product on h
    s1, s2 = slice(0, n1), slice(n1, n1 + n2)
    thr = tol.eps * residual_scale(A.constants, cc, data.b1, data.b2)
    forced = thr / (4.0 * A.dim * residual_scale(cc, data.b1, data.b2))
    blocks = (
        Check("circ1", _max_abs(cc[s1, s1, s1]), thr),
        Check("mixed_12_block", _max_abs(cc[s1, s2, s1]), thr),
        Check("mixed_21_block", _max_abs(cc[s2, s1, s2]), thr),
        Check("rho1_block", _max_abs(cc[s1, s2, s2]), forced),
        Check("omega2_block", _max_abs(cc[s2, s2, s1]), forced),
        *_data_checks(data, tol),
    )

    gram = basis.T @ koszul_form(A).matrix @ basis
    tail = (
        Check("koszul_blocks", _max_abs(gram - hsplit.rho * np.eye(A.dim)), 10.0 * thr),
        Check("rho_formula", abs(hsplit.rho - data.rho), thr),
    )

    _enforce(blocks[:1], Circ1NonZero)  # circ1 has its own error class
    _enforce(blocks + tail, SystemViolated)
    checks = hsplit.checks + esplit.checks + blocks + tail
    return LSPKDecomposition(rho=hsplit.rho, basis=basis, frame=frame, data=data, checks=checks)


def decompose(A: AlgebraStructure, tol: Tolerance = Tolerance()) -> LSPKDecomposition:
    """Run the full pipeline; each stage raises on its own failures, after left symmetry, its first check."""
    flat = check_left_symmetric(A, tol)
    _enforce([flat], HypothesisFailed)
    H = find_idempotent_H(A, tol)
    hs = split_h(A, H, tol)
    es = eigensplit(hs.S, hs.A_op, tol)
    dec = extract_structure(A, hs, es, tol)
    return replace(dec, checks=(flat,) + dec.checks)
