"""Left-invariant geometry attached to a metric algebra.

For an algebra with a metric, the commutator bracket and the metric give a
canonical torsion-free metric product (Levi-Civita), and the difference
operators gamma_x = Lbar_x - L_x measure how far the original product is
from metric-compatible.  The curvature here uses the sign convention

    K(X, Y) = Lbar_[X,Y] - Lbar_X Lbar_Y + Lbar_Y Lbar_X

and ric(X, Y) is the trace of Z -> K(X, Z)Y.

When the pair (product, metric) satisfies the flatness and compatibility
identities, the same quantities have second, independent expressions
through the gamma operators (K as commutators, ric through gamma traces);
every function here that can cross-check a result this way does so and
raises OracleMismatch on disagreement.

The double space h + h (horizontal and vertical copies) has Ricci blocks
that sum the six curvature component formulas over a g-orthonormal frame.
Two identities that hold for every metric, cyclicity of the trace and
gamma_x y = gamma_y x, leave three terms per block (tangent_bundle_ricci).
They are the Ricci form of g + g on the Lie algebra of TG, checked against
-beta, for a Hessian pair only (lspk_dim2, diag(1, 2): 0.25 off in hh, 1.5 in vv).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import AlgebraStructure, Check, Tolerance, lie_bracket_constants, residual_scale
from .core import _check_vector, _compose, _enforce, _max_abs, _worst_of
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
    lc = np.linalg.solve(2.0 * g, rhs.reshape(-1, n).T).T.reshape(n, n, n)
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


def _gamma_data(
    M: MetricAlgebra, tol: Tolerance
) -> tuple[AlgebraStructure, AlgebraStructure, np.ndarray]:
    """The bracket, the Levi-Civita constants and the stack gamma[i] = Lbar_i - L_i."""
    bracket = lie_bracket_constants(M.algebra)
    lc = levi_civita_product(bracket, M.metric, tol)
    gamma = (lc.constants - M.algebra.constants).transpose(0, 2, 1)
    return bracket, lc, gamma


def gamma_operator(M: MetricAlgebra, x: np.ndarray, tol: Tolerance = Tolerance()) -> np.ndarray:
    """The difference operator gamma_x = Lbar_x - L_x as a matrix.

    When the pair satisfies the metric compatibility identity, gamma_x must
    be symmetric for the metric; this is verified and a violation raises.
    """
    x = _check_vector(M.algebra, x)
    gamma = _gamma_data(M, tol)[2]
    op = np.einsum("i,ilk->lk", x, gamma)
    if check_hessian(M.algebra, M.metric, tol):
        m = M.metric.matrix @ op
        thr = tol.eps * residual_scale(M.algebra.constants, M.metric.matrix, x)
        _enforce([Check("gamma operator not symmetric", _max_abs(m - m.T), thr)], VerificationFailed)
    return op


def second_koszul_form(M: MetricAlgebra, tol: Tolerance = Tolerance()) -> BilinearForm:
    """The trace form computed through the gamma operators.

    beta(X, Y) = -tr(gamma_{X*Y}); this must agree with the direct trace
    form of the product (the route through the metric product is
    independent), and the disagreement raises OracleMismatch.
    """
    gamma = _gamma_data(M, tol)[2]
    beta = -np.einsum("ijk,k->ij", M.algebra.constants, _traces(gamma))
    direct = koszul_form(M.algebra).matrix
    thr = tol.eps * residual_scale(M.algebra.constants, M.metric.matrix)
    _enforce([Check("second trace form", _max_abs(beta - direct), thr)], OracleMismatch)
    return BilinearForm(beta)


@dataclass(frozen=True, eq=False)
class BaseCurvature:
    """Curvature data of the metric product on the base algebra.

    K has K[i, j, k, l] = (K(e_i, e_j) e_k)_l and ricci is the form
    ric(X, Y) = tr(Z -> K(X, Z)Y); gamma stacks the difference operators.
    """

    lc: AlgebraStructure
    gamma: np.ndarray
    K: np.ndarray
    ricci: BilinearForm


def base_curvature(M: MetricAlgebra, tol: Tolerance = Tolerance()) -> BaseCurvature:
    """Curvature and Ricci of the metric product, with gamma cross-checks.

    When the pair satisfies the flatness and compatibility identities, K
    must equal the commutator of gamma operators and ric must equal the
    gamma trace formula; disagreement raises OracleMismatch.
    """
    compatible = bool(check_left_symmetric(M.algebra, tol)) and bool(
        check_hessian(M.algebra, M.metric, tol)
    )
    return _base_curvature(M, compatible, tol)[0]


def _base_curvature(
    M: MetricAlgebra, compatible: bool, tol: Tolerance
) -> tuple[BaseCurvature, np.ndarray]:
    """base_curvature with the flat-and-compatible verdict already known, and tr gamma."""
    bracket, lc, gamma = _gamma_data(M, tol)
    c = lc.constants
    cc = _compose(c, c.transpose(1, 0, 2))  # cc[a,b,i,l] = sum_m c[a,b,m] c[i,m,l]
    K = _compose(bracket.constants, c)  # ijm,mkl->ijkl
    K -= cc.transpose(2, 0, 1, 3)  # jkm,iml->ijkl
    K += cc.transpose(0, 2, 1, 3)  # ikm,jml->ijkl
    del cc  # freed before the gamma cross-check builds its own n^4 arrays
    ricci = np.einsum("ajbj->ab", K)
    tr_gamma = _traces(gamma)

    if compatible:
        thr = tol.eps * residual_scale(M.algebra.constants, M.metric.matrix, c)
        pair = _compose(gamma, gamma.transpose(1, 0, 2)).transpose(0, 2, 1, 3)  # ilm,jmk->ijlk
        k_gamma = (pair - pair.transpose(1, 0, 2, 3)).transpose(0, 1, 3, 2)
        _enforce([Check("curvature operator", _max_abs(K - k_gamma), thr)], OracleMismatch)
        ric_gamma = np.einsum("alm,bml->ab", gamma, gamma) - np.einsum("amb,m->ab", gamma, tr_gamma)
        _enforce([Check("Ricci form", _max_abs(ricci - ric_gamma), thr)], OracleMismatch)
    return BaseCurvature(lc=lc, gamma=gamma, K=K, ricci=BilinearForm(ricci)), tr_gamma


@dataclass(frozen=True, eq=False)
class CurvatureReport:
    """Ricci data of the double-space metric, in base coordinates.

    tb_ricci_hh, tb_ricci_vv and tb_ricci_hv are the horizontal-horizontal,
    vertical-vertical and mixed blocks of the double-space Ricci form, the
    Ricci form of g + g for a compatible pair only; base_ricci is the Ricci
    form of the metric product downstairs, and beta the trace form, which
    equals -tb_ricci_hh and -tb_ricci_vv for a compatible pair.  einstein_mu
    is the best proportionality factor against the block metric, einstein
    the worst deviation from exact proportionality against eps times the
    scale of the algebra and beta (not of the metric), and hessian_residual
    how far the pair is from the compatibility identity.
    """

    base_ricci: BilinearForm
    tb_ricci_hh: BilinearForm
    tb_ricci_vv: BilinearForm
    tb_ricci_hv: np.ndarray
    beta: BilinearForm
    einstein_mu: float
    einstein: Check
    hessian_residual: float

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
            "hessian_residual": self.hessian_residual,
        }


def tangent_bundle_ricci(M: MetricAlgebra, tol: Tolerance = Tolerance()) -> CurvatureReport:
    """Ricci blocks of the canonical metric on the double space h + h.

    Requires the product to be flat (left-symmetric).  Summed over a frame,
    the six curvature component formulas leave, with s(x, y) = tr(Z ->
    Lbar_{gamma_x Z} y) and u(y) = tr(Z -> Lbar_Z y) + tr gamma_y,
        hh(x, y) = ric(x, y) + tr gamma_{Lbar_x y} - tr(gamma_x gamma_y),
        vv(x, y) = s(x, y) + s(y, x) - u(gamma_x y),
    and a zero mixed block.  For a compatible pair the blocks are the Ricci
    form of g + g and must equal -beta, or OracleMismatch is raised; for any
    other metric they are not, and hessian_residual records the defect.
    """
    _enforce([check_left_symmetric(M.algebra, tol)], HypothesisFailed)
    return _double_space_ricci(M, koszul_form(M.algebra), tol)


def _double_space_ricci(M: MetricAlgebra, beta: BilinearForm, tol: Tolerance) -> CurvatureReport:
    """tangent_bundle_ricci for a product known to be flat, with trace form beta."""
    hess = check_hessian(M.algebra, M.metric, tol)
    base, tr = _base_curvature(M, bool(hess), tol)
    G, Lb = base.gamma, base.lc.constants.transpose(0, 2, 1)  # Lb[i] = matrix of Lbar_{e_i}
    g = M.metric.matrix
    n = M.dim
    e = np.einsum
    # the other frame-sum terms cancel: tr(Lb_a G_b) = tr(G_b Lb_a), G[a, k, m] == G[m, k, a]
    hh = base.ricci.matrix + e("apb,p->ab", Lb, tr) - e("bkm,amk->ab", G, G)
    s = e("akm,kmb->ab", G, Lb)
    vv = s + s.T - e("m,amb->ab", e("kkm->m", Lb) + tr, G)

    if hess:
        thr = tol.eps * residual_scale(M.algebra.constants, g, base.K)
        blocks = (
            Check("double-space Ricci block hh", _max_abs(hh + beta.matrix), thr),
            Check("double-space Ricci block vv", _max_abs(vv + beta.matrix), thr),
            Check("double-space Ricci block hh-vv", _max_abs(hh - vv), thr),
        )
        _enforce(blocks, OracleMismatch)

    mu = float(np.trace(np.linalg.solve(g, hh)) / n) if n else 0.0
    worst = _worst_of([_max_abs(hh - mu * g), _max_abs(vv - mu * g)])
    einstein = Check("einstein", worst, tol.eps * residual_scale(M.algebra.constants, beta.matrix))
    return CurvatureReport(
        base_ricci=base.ricci,
        tb_ricci_hh=BilinearForm(hh),
        tb_ricci_vv=BilinearForm(vv),
        tb_ricci_hv=np.zeros((n, n)),
        beta=beta,
        einstein_mu=mu,
        einstein=einstein,
        hessian_residual=hess.max_residual,
    )


def einstein_check(
    A: AlgebraStructure, alpha_scale: float = 1.0, tol: Tolerance = Tolerance()
) -> float:
    """Einstein factor of the double-space metric built from alpha * trace form.

    Requires A left-symmetric with positive definite trace form, and the
    scaled trace form as the base metric; returns mu with Ricci = mu times
    the metric (expected -1/alpha), raising NotEinstein if proportionality
    fails.
    """
    if not (alpha_scale > 0 and np.isfinite(alpha_scale)):
        raise ValueError(f"alpha_scale must be positive and finite, got {alpha_scale}")
    _enforce([check_left_symmetric(A, tol)], NotLSPK)
    B, definite = _definite_trace_form(A, tol)
    _enforce([definite], NotLSPK)
    M = MetricAlgebra(A, BilinearForm(alpha_scale * B.matrix))
    report = _double_space_ricci(M, B, tol)
    _enforce([report.einstein], NotEinstein)
    return report.einstein_mu
