"""Left-invariant geometry attached to a metric algebra.

For an algebra with a metric, the commutator bracket and the metric give a
canonical torsion-free metric product (Levi-Civita), and the difference
operators gamma_x = Lbar_x - L_x measure how far the original product is
from metric-compatible.  The curvature here uses the sign convention

    K(X, Y) = Lbar_[X,Y] - Lbar_X Lbar_Y + Lbar_Y Lbar_X

and ric(X, Y) is the trace of Z -> K(X, Z)Y.  The double space h + h
(horizontal and vertical copies) has Ricci blocks that sum six curvature
component formulas over a g-orthonormal frame (tangent_bundle_ricci).

For a flat and compatible (Hessian) pair the same quantities have second,
independent expressions through the gamma operators, and each function
compares the two, raising OracleMismatch under the failing check's name:
second_koszul_form runs "second trace form" (for every pair);
base_curvature "curvature operator", then "Ricci form"; tangent_bundle_ricci
"Ricci form", then "double-space Ricci block hh", "vv" and "hh-vv" against
-beta; einstein_check those, then "einstein" (NotEinstein).  gamma_operator
raises VerificationFailed for a compatible pair's non-symmetric gamma_x.

Only base_curvature builds K (n^4 floats, n^5 work), because it returns it.
The others take ric from the record in closed form (_ricci: n^4 work, n^3
memory), so einstein_check forms no n^4 array: on a transported
build_corollary1(47) its tracemalloc peak is below 0.2 n^4 floats.

The record (_gamma_data) that every function here reads holds the bracket,
the verified Levi-Civita constants, the gamma stack and the Hessian check of
M, read-only, built once per (M, Tolerance) and kept on M.  It costs one n^5
Levi-Civita check, each gamma_operator call after it n^3; a refusal is never kept.

The metric alpha * B, B the trace form, has the Levi-Civita product, Ricci
form and double-space blocks of B, so its report is that of (A, B) with the
Einstein factor mu(1) / alpha (its Hessian check, linear in the metric, is
read at alpha = 1).  That report is measured once per Tolerance and kept on A
under "einstein", read-only (_trace_form_report); einstein_check(A, alpha)
and leftsym geometry on a file without a metric or with --scale read it, and
no metric algebra is kept.  A refusal while measuring is never kept.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import AlgebraStructure, Check, Tolerance, lie_bracket_constants, residual_scale
from .core import _check_vector, _compose, _enforce, _max_abs, _readonly, _worst_of
from .errors import (
    HypothesisFailed,
    NotEinstein,
    NotLieBracket,
    NotLSPK,
    NotPositiveDefinite,
    OracleMismatch,
    VerificationFailed,
)
from .forms import (
    BilinearForm,
    MetricAlgebra,
    check_hessian,
    check_jacobi,
    check_left_symmetric,
    is_positive_definite,
    koszul_form,
)
from .forms import _definite_trace_form, _traces


def levi_civita_product(
    bracket: AlgebraStructure, metric: BilinearForm, tol: Tolerance = Tolerance()
) -> AlgebraStructure:
    """The torsion-free metric product of a metric Lie algebra.

    Solves 2<X.Y, Z> = <[X,Y], Z> - <[Y,Z], X> + <[Z,X], Y> for X.Y and
    verifies the defining properties (skew left multiplications, commutator
    equal to the bracket) on the result.
    """
    _enforce([check_jacobi(bracket, tol)], NotLieBracket)
    _enforce([replace(is_positive_definite(metric, tol), name="positive definite metric")],
             NotPositiveDefinite)
    cb = bracket.constants
    g = metric.matrix
    n = bracket.dim
    p = _compose(cb, g)  # p[i, j, k] = <[e_i, e_j], e_k>
    rhs = p - p.transpose(2, 0, 1) + p.transpose(1, 2, 0)
    lc = np.linalg.solve(2.0 * g, rhs.reshape(n * n, n).T).T.reshape(n, n, n)
    label = f"{bracket.name}:lc" if bracket.name else "lc"
    out = AlgebraStructure(lc, name=label)

    ops = np.einsum("lm,imk->ilk", g, lc.transpose(0, 2, 1))  # g Lbar_i
    thr = tol.eps * residual_scale(cb, g, lc)
    checks = (
        Check("metric product is not metric", _max_abs(ops + ops.transpose(0, 2, 1)), thr),
        Check("commutator does not match the bracket", _max_abs(lc - lc.transpose(1, 0, 2) - cb), thr),
    )
    _enforce(checks, VerificationFailed)
    return out


@dataclass(frozen=True, eq=False)
class _Geometry:
    """The Levi-Civita data of one metric algebra at one tolerance; every array is read-only.

    gamma[i] = Lbar_i - L_i, hessian is check_hessian of the pair and scale is
    residual_scale(C, g), so _worst_of([scale, _max_abs(t)]) is residual_scale(C, g, t)
    without measuring C and g again.  Nothing here refers back to the metric algebra.
    """

    bracket: AlgebraStructure
    lc: AlgebraStructure
    gamma: np.ndarray
    hessian: Check
    scale: float


def _gamma_data(M: MetricAlgebra, tol: Tolerance) -> _Geometry:
    """The geometry record of M at tol, built on first use; a refusal raises and keeps nothing."""
    record = M.__dict__.get("geometry", {}).get(tol)  # {Tolerance: _Geometry}: dir() needs string keys
    if record is None:
        record = _geometry(M, tol)  # measured before the entry exists, so a refusal creates none
        record = M._kept("geometry", dict).setdefault(tol, record)
    return record


def _geometry(M: MetricAlgebra, tol: Tolerance) -> _Geometry:
    c, g = M.algebra.constants, M.metric.matrix
    hessian = check_hessian(M.algebra, M.metric, tol)
    bracket = lie_bracket_constants(M.algebra)
    lc = levi_civita_product(bracket, M.metric, tol)
    gamma = _readonly(lc.constants - c).transpose(0, 2, 1)
    return _Geometry(bracket, lc, gamma, hessian, residual_scale(c, g))


def gamma_operator(M: MetricAlgebra, x: np.ndarray, tol: Tolerance = Tolerance()) -> np.ndarray:
    """The difference operator gamma_x = Lbar_x - L_x as a matrix.

    When the pair satisfies the metric compatibility identity, gamma_x must
    be symmetric for the metric; this is verified and a violation raises.
    """
    x = _check_vector(M.algebra, x)
    rec = _gamma_data(M, tol)
    op = np.einsum("i,ilk->lk", x, rec.gamma)
    if rec.hessian:
        m = M.metric.matrix @ op
        thr = tol.eps * _worst_of([rec.scale, _max_abs(x)])
        _enforce([Check("gamma operator not symmetric", _max_abs(m - m.T), thr)], VerificationFailed)
    return op


def second_koszul_form(M: MetricAlgebra, tol: Tolerance = Tolerance()) -> BilinearForm:
    """The trace form computed through the gamma operators.

    beta(X, Y) = -tr(gamma_{X*Y}); the direct trace form of the product is an
    independent route, and a disagreement raises OracleMismatch.
    """
    rec = _gamma_data(M, tol)
    beta = -np.einsum("ijk,k->ij", M.algebra.constants, _traces(rec.gamma))
    direct = koszul_form(M.algebra).matrix
    _enforce([Check("second trace form", _max_abs(beta - direct), tol.eps * rec.scale)], OracleMismatch)
    return BilinearForm(beta)


@dataclass(frozen=True, eq=False)
class BaseCurvature:
    """Curvature data of the metric product on the base algebra.

    K[i, j, k, l] = (K(e_i, e_j) e_k)_l, ricci is ric(X, Y) = tr(Z -> K(X, Z)Y)
    and gamma the geometry record's read-only stack of difference operators.
    """

    lc: AlgebraStructure
    gamma: np.ndarray
    K: np.ndarray
    ricci: BilinearForm


def _ricci(rec: _Geometry, compatible: bool, tol: Tolerance) -> BilinearForm:
    """ric(a, b) = sum_j K[a, j, b, j] from the record, in n^4 work and n^3 memory, without K.

    With b the bracket and c the Levi-Civita constants, the three terms of K
    contract to sum_jm (b - c)[a, j, m] c[m, b, j] + sum_jm c[a, b, m] c[j, m, j].
    For a compatible pair it must equal the gamma trace formula
    tr(gamma_a gamma_b) - tr gamma_{gamma_a b}, or OracleMismatch is raised.
    """
    c = rec.lc.constants
    n = c.shape[0]
    ricci = (rec.bracket.constants - c).reshape(n, n * n) @ c.transpose(2, 0, 1).reshape(n * n, n)
    ricci += c @ np.einsum("jmj->m", c)
    if compatible:
        gamma = rec.gamma
        thr = tol.eps * _worst_of([rec.scale, _max_abs(c)])
        ric_gamma = np.einsum("alm,bml->ab", gamma, gamma) - np.einsum("amb,m->ab", gamma, _traces(gamma))
        _enforce([Check("Ricci form", _max_abs(ricci - ric_gamma), thr)], OracleMismatch)
    return BilinearForm(ricci)


def base_curvature(M: MetricAlgebra, tol: Tolerance = Tolerance()) -> BaseCurvature:
    """Curvature and Ricci of the metric product, with gamma cross-checks.

    The one function that builds K (n^4 floats, n^5 work).  When the pair
    satisfies the flatness and compatibility identities, K must equal the
    commutator of gamma operators and ric the gamma trace formula;
    disagreement raises OracleMismatch.
    """
    flat = bool(check_left_symmetric(M.algebra, tol))
    rec = _gamma_data(M, tol)
    compatible = flat and bool(rec.hessian)
    c, gamma = rec.lc.constants, rec.gamma
    cc = _compose(c, c.transpose(1, 0, 2))  # cc[a,b,i,l] = sum_m c[a,b,m] c[i,m,l]
    K = _compose(rec.bracket.constants, c)  # ijm,mkl->ijkl
    K -= cc.transpose(2, 0, 1, 3)  # jkm,iml->ijkl
    K += cc.transpose(0, 2, 1, 3)  # ikm,jml->ijkl
    del cc  # freed before the gamma cross-check builds its own n^4 arrays

    if compatible:
        thr = tol.eps * _worst_of([rec.scale, _max_abs(c)])
        pair = _compose(gamma, gamma.transpose(1, 0, 2)).transpose(0, 2, 1, 3)  # ilm,jmk->ijlk
        k_gamma = (pair - pair.transpose(1, 0, 2, 3)).transpose(0, 1, 3, 2)
        _enforce([Check("curvature operator", _max_abs(K - k_gamma), thr)], OracleMismatch)
    return BaseCurvature(lc=rec.lc, gamma=gamma, K=K, ricci=_ricci(rec, compatible, tol))


@dataclass(frozen=True, eq=False)
class CurvatureReport:
    """Ricci data of the double-space metric, in base coordinates.

    tb_ricci_hh, tb_ricci_vv and tb_ricci_hv are the horizontal-horizontal,
    vertical-vertical and mixed blocks of the double-space Ricci form (of
    g + g for a compatible pair only, where hh = vv = -beta, beta the trace
    form); base_ricci is the Ricci form of the metric product downstairs.
    einstein_mu is the best factor against the block metric, einstein the
    worst deviation from it against eps times the scale of C and beta (not
    of the metric), and hessian the compatibility check of the pair.  Every
    array is read-only: the report of the trace form is kept on its algebra.
    """

    base_ricci: BilinearForm
    tb_ricci_hh: BilinearForm
    tb_ricci_vv: BilinearForm
    tb_ricci_hv: np.ndarray
    beta: BilinearForm
    einstein_mu: float
    einstein: Check
    hessian: Check

    def as_dict(self) -> dict:
        """Plain-type view of the report, ready for json.dumps."""
        return {
            "base_ricci": self.base_ricci.matrix.tolist(),
            "tb_ricci_hh": self.tb_ricci_hh.matrix.tolist(),
            "tb_ricci_vv": self.tb_ricci_vv.matrix.tolist(),
            "tb_ricci_hv": self.tb_ricci_hv.tolist(),
            "beta": self.beta.matrix.tolist(),
            "einstein_mu": self.einstein_mu,
            "einstein_residual": self.einstein.max_residual,
            "einstein_threshold": self.einstein.threshold,
            "hessian_residual": self.hessian.max_residual,
            "hessian_threshold": self.hessian.threshold,
        }


def tangent_bundle_ricci(M: MetricAlgebra, tol: Tolerance = Tolerance()) -> CurvatureReport:
    """Ricci blocks of the canonical metric on the double space h + h.

    Requires the product to be flat (left-symmetric).  Summed over a frame,
    the six curvature component formulas leave, with s(x, y) = tr(Z ->
    Lbar_{gamma_x Z} y) and u(y) = tr(Z -> Lbar_Z y) + tr gamma_y,
        hh(x, y) = ric(x, y) + tr gamma_{Lbar_x y} - tr(gamma_x gamma_y),
        vv(x, y) = s(x, y) + s(y, x) - u(gamma_x y),
    and a zero mixed block.  For a compatible pair the blocks are the Ricci
    form of g + g and must equal -beta, or OracleMismatch is raised, against
    the threshold of the Einstein relation; for any other metric they are
    not (lspk_dim2, diag(1, 2): 0.25 off in hh, 1.5 in vv).
    """
    _enforce([check_left_symmetric(M.algebra, tol)], HypothesisFailed)
    beta = koszul_form(M.algebra)
    rec = _gamma_data(M, tol)
    ricci = _ricci(rec, bool(rec.hessian), tol)
    G, Lb = rec.gamma, rec.lc.constants.transpose(0, 2, 1)  # Lb[i] = matrix of Lbar_{e_i}
    tr = _traces(G)
    g = M.metric.matrix
    n = M.dim
    e = np.einsum
    # the other frame-sum terms cancel: tr(Lb_a G_b) = tr(G_b Lb_a), G[a, k, m] == G[m, k, a]
    hh = ricci.matrix + e("apb,p->ab", Lb, tr) - e("bkm,amk->ab", G, G)
    s = e("akm,kmb->ab", G, Lb)
    vv = s + s.T - e("m,amb->ab", e("kkm->m", Lb) + tr, G)

    thr = tol.eps * residual_scale(M.algebra.constants, beta.matrix)
    if rec.hessian:
        blocks = (
            Check("double-space Ricci block hh", _max_abs(hh + beta.matrix), thr),
            Check("double-space Ricci block vv", _max_abs(vv + beta.matrix), thr),
            Check("double-space Ricci block hh-vv", _max_abs(hh - vv), thr),
        )
        _enforce(blocks, OracleMismatch)

    mu = float(np.trace(np.linalg.solve(g, hh)) / n) if n else 0.0
    worst = _worst_of([_max_abs(hh - mu * g), _max_abs(vv - mu * g)])
    einstein = Check("einstein", worst, thr)
    return CurvatureReport(
        base_ricci=ricci,
        tb_ricci_hh=BilinearForm(hh),
        tb_ricci_vv=BilinearForm(vv),
        tb_ricci_hv=_readonly(np.zeros((n, n))),
        beta=beta,
        einstein_mu=mu,
        einstein=einstein,
        hessian=rec.hessian,
    )


def _trace_form_report(
    A: AlgebraStructure, tol: Tolerance = Tolerance(), scale: float = 1.0, name: str = "alpha_scale"
) -> tuple[CurvatureReport, float]:
    """tangent_bundle_ricci of (A, B), B the trace form, and mu / scale, the factor of scale * B.

    A ValueError names the scale when it is not positive and finite, before
    anything is measured, or when mu / scale overflows.  NotLSPK unless A is
    left-symmetric with positive definite B.  The report is measured once per tol
    and kept on A under "einstein": the entry exists only once those checks held
    at tol, and A is immutable, so a kept report is not checked again; a refusal
    is raised before the entry is created, so it keeps nothing.
    """
    if not (scale > 0 and np.isfinite(scale)):
        raise ValueError(f"{name} must be positive and finite, got {scale}")
    report = A.__dict__.get("einstein", {}).get(tol)  # {Tolerance: CurvatureReport}
    if report is None:
        _enforce([check_left_symmetric(A, tol)], NotLSPK)
        B, definite = _definite_trace_form(A, tol)
        _enforce([definite], NotLSPK)
        report = tangent_bundle_ricci(MetricAlgebra(A, B), tol)
        report = A._kept("einstein", dict).setdefault(tol, report)
    mu = report.einstein_mu / scale
    if np.isfinite(report.einstein_mu) and not np.isfinite(mu):
        raise ValueError(f"{name} {scale} is too small: mu / {name} is {mu}")
    return report, mu


def einstein_check(
    A: AlgebraStructure, alpha_scale: float = 1.0, tol: Tolerance = Tolerance()
) -> float:
    """Einstein factor of the double-space metric built from alpha * trace form.

    Requires A left-symmetric with positive definite trace form (NotLSPK);
    returns mu with Ricci = mu times the metric (expected -1/alpha), raising
    NotEinstein if proportionality fails.  Scaling a metric keeps its
    Levi-Civita product and Ricci form, so mu(alpha) = mu(1) / alpha, and the
    Einstein threshold eps * residual_scale(C, beta) has no alpha in it.  So
    every call reads the one kept report of (A, B) (_trace_form_report),
    enforces report.einstein and returns report.einstein_mu / alpha, the same
    verdict for every alpha.  An alpha that is not positive and finite, or so
    small that mu / alpha is not finite, raises ValueError.
    """
    report, mu = _trace_form_report(A, tol, alpha_scale)
    _enforce([report.einstein], NotEinstein)
    return mu
