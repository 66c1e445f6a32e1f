"""Residuals of the compatibility systems tying split structure data together.

The equations are measured once per construct.LSPKData and kept on it:
construction validates data supplied by the caller (arbitrary positive
definite metrics), and decomposition certifies the data it extracted (both
metrics the identity) through the LSPKData it hands on, so that
build_lspk(data_from_decomposition(dec)) reads decompose's measurement
instead of repeating it.  Both paths check literally the same system, and
each sets its own threshold against the tolerance-free residuals.

Conventions: c2 is the (n2, n2, n2) product tensor on the second part,
rho2[x] the (n1, n1) action matrix of the x-th second-part basis vector,
omega1 (n1, n1, n2) the symmetric pairing map, b1 / b2 the skew blocks,
g1 / g2 the Gram matrices.  Each relation is a (name, residual) pair, in
the order of NAMES.  The rank-4 products are _compose GEMMs; each comment
gives the einsum it evaluates.

The paper's systems also carry the action rho1 (n1, n2, n2) of the first
part on the second and its pairing map omega2 (n2, n2, n1), and both are
forced to zero.  Write T(r)_x = [b2, r_x] - sum_a b1[a, x] r_a; then S3-7
reads T(rho1) = rho1 / 2.  For g1-skew b1 and g2-skew b2, T is skew-adjoint
for the inner product <r, s> = sum_xy g1^-1[x, y] tr(g2^-1 r_x^T g2 s_y), so
|T(r) - r/2|^2 = |T(r)|^2 + |r|^2 / 4 and S3-7 holds only for rho1 = 0.  The
second half of S1, omega2 g1 = P(g2, rho1), then gives omega2 = 0.  Every
term of omega2_symmetric, theo-i-trace, theo-i-commute, S3-1, S3-2, S3-3,
S3-4, S3-5 and S3-7, and of S1's second half, carries rho1 or omega2, so with
both zero these nine relations and that half read 0 = 0 and are not
evaluated (S1 is its first half alone): construction has
no field for either, and decompose checks the two blocks of its frame where
they would sit (decompose.extract_structure).  rho1 = 0 (rho1_block) makes
theo-i-trace, theo-i-commute, S3-3, S3-5 and S3-7 vacuous, omega2 = 0
(omega2_block) omega2_symmetric, S3-4 and S3-5, and the two together S1's
second half, S3-1 and S3-2.

Which parts a relation spans, read off its tensor shapes: B1_skew spans h1
only, B2_skew and S2 span h2 only, and the five mixed relations
(omega1_symmetric, theo-ii, S1, S3-6, S3-8) span both.  The rule: a relation
is evaluated only when every part it spans is non-empty, and its residual is
None otherwise.  So data with one empty part (the flat part alone, the
product part alone, R^n) pays for its own relations only, and no relation
contracts an empty tensor.
"""

from __future__ import annotations

import numpy as np

from .core import _compose, _max_abs, _worst_of
from .forms import (
    _derivation_defect,
    _hessian_defect,
    _left_symmetry_worst,
    _metric_sectional,
    _paired_action,
    _traces,
)

NAMES = ("omega1_symmetric", "B1_skew", "B2_skew", "theo-ii", "S1", "S2", "S3-6", "S3-8")


def system_residuals(
    c2: np.ndarray,
    rho2: np.ndarray,
    omega1: np.ndarray,
    b1: np.ndarray,
    b2: np.ndarray,
    g1: np.ndarray,
    g2: np.ndarray,
    s2: tuple[float | None, ...] | None = None,
) -> tuple[tuple[str, float | None], ...]:
    """Every relation of NAMES with its residual.  s2, when given, is the four parts of S2
    (Hessian, sectional, derivation, traces) measured on these arrays already."""
    n1, n2 = g1.shape[0], g2.shape[0]
    found: dict[str, float | None] = {}
    if n1:
        m1 = g1 @ b1
        found["B1_skew"] = _max_abs(m1 + m1.T)
    if n2:
        m2 = g2 @ b2
        found["B2_skew"] = _max_abs(m2 + m2.T)
        # S2: the second part is a Hessian algebra with sectional constant -1,
        # b2 is a derivation, and left traces match the action traces
        found["S2"] = _worst_of(s2 if s2 is not None else (
            _max_abs(_hessian_defect(c2, g2)),
            _left_symmetry_worst(c2, _metric_sectional(g2, -1.0))[0],
            _max_abs(_derivation_defect(b2, c2)),
            _max_abs(_traces(c2) + _traces(rho2)),
        ))
    if n1 and n2:
        found.update(_mixed_residuals(c2, rho2, omega1, b1, b2, g1, g2))
    return tuple((name, found.get(name)) for name in NAMES)


def _mixed_residuals(c2, rho2, omega1, b1, b2, g1, g2) -> dict[str, float | None]:
    """The five relations that span both parts, by name, for n1, n2 > 0."""
    out: dict[str, float | None] = {}
    out["omega1_symmetric"] = _max_abs(omega1 - omega1.transpose(1, 0, 2))

    # the second-part action is a representation of the induced bracket
    c2_bracket = c2 - c2.transpose(1, 0, 2)
    comm2 = _compose(rho2, rho2.transpose(1, 0, 2)).transpose(0, 2, 1, 3)  # iab,jbc->ijac
    out["theo-ii"] = _max_abs(_compose(c2_bracket, rho2) - comm2 + comm2.transpose(1, 0, 2, 3))

    # S1: omega1 is the metric dual of the symmetrized second-part action
    out["S1"] = _max_abs(np.einsum("xyl,lz->xyz", omega1, g2) - _paired_action(g1, rho2))

    # S3-6: multiplication against omega1 reproduces the first Gram matrix
    rho2_t = rho2.transpose(0, 2, 1)
    q = _compose(omega1, c2.transpose(1, 0, 2)).transpose(2, 0, 1, 3)  # jkm,xml->xjkl
    q -= _compose(rho2_t, omega1)  # xaj,akl->xjkl
    q -= _compose(rho2_t, omega1.transpose(1, 0, 2)).transpose(0, 2, 1, 3)  # xak,jal->xjkl
    ii = np.arange(g2.shape[0])
    q[ii, :, :, ii] += g1  # + <e_j, e_k>_1 delta_xl
    out["S3-6"] = _max_abs(q)

    # S3-8: the skew blocks intertwine the second-part actions
    out["S3-8"] = _max_abs(
        _compose(b1, rho2.transpose(1, 0, 2)).transpose(1, 0, 2)  # lm,xmk->xlk
        - _compose(rho2, b1)  # xlm,mk->xlk
        - _compose(b2.T, rho2)  # ax,alk->xlk
    )
    return out
