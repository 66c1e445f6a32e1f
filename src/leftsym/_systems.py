"""Residuals of the compatibility systems tying split structure data together.

The same equations are needed twice: decomposition certifies data it
extracted (where both metrics are the identity), and construction validates
data supplied by the caller (arbitrary positive definite metrics).  Keeping
them in one place guarantees both paths check literally the same system.

Conventions: c2 is the (n2, n2, n2) product tensor on the second part,
rho1[x] the (n2, n2) action matrix of the x-th first-part basis vector,
rho2[x] the (n1, n1) action matrix of the x-th second-part basis vector,
omega1 (n1, n1, n2) and omega2 (n2, n2, n1) the symmetric pairing maps,
b1 / b2 the skew blocks, g1 / g2 the Gram matrices.  A relation whose index
ranges are empty reports None.  The rank-4 products are _compose GEMMs;
each comment gives the einsum it evaluates.
"""

from __future__ import annotations

import numpy as np

from .core import _compose, _max_abs, _worst_of
from .forms import (
    _derivation_defect,
    _hessian_defect,
    _left_symmetry_defect,
    _paired_action,
    _sectional_target,
    _traces,
)


def system_residuals(
    c2: np.ndarray,
    rho1: np.ndarray,
    rho2: np.ndarray,
    omega1: np.ndarray,
    omega2: np.ndarray,
    b1: np.ndarray,
    b2: np.ndarray,
    g1: np.ndarray,
    g2: np.ndarray,
) -> dict[str, float | None]:
    eye2 = np.eye(g2.shape[0])
    out: dict[str, float | None] = {}

    m1 = g1 @ b1
    m2 = g2 @ b2
    out["B1_skew"] = _max_abs(m1 + m1.T)
    out["B2_skew"] = _max_abs(m2 + m2.T)

    # flatness conditions: the first-part actions are traceless and commute
    out["theo-i-trace"] = _max_abs(_traces(rho1))
    comm1 = _compose(rho1, rho1.transpose(1, 0, 2)).transpose(0, 2, 1, 3)  # xab,ybc->xyac
    out["theo-i-commute"] = _max_abs(comm1 - comm1.transpose(1, 0, 2, 3))

    # the second-part action is a representation of the induced bracket
    c2_bracket = c2 - c2.transpose(1, 0, 2)
    comm2 = _compose(rho2, rho2.transpose(1, 0, 2)).transpose(0, 2, 1, 3)  # iab,jbc->ijac
    out["theo-ii"] = _max_abs(
        _compose(c2_bracket, rho2) - comm2 + comm2.transpose(1, 0, 2, 3)
    )

    # S1: the pairing maps are the metric duals of the symmetrized actions
    s1a = np.einsum("xyl,lz->xyz", omega1, g2) - _paired_action(g1, rho2)
    s1b = np.einsum("xyl,lz->xyz", omega2, g1) - _paired_action(g2, rho1)
    out["S1"] = _worst_of((_max_abs(s1a), _max_abs(s1b)))

    # S2: the second part is a Hessian algebra with sectional constant -1,
    # b2 is a derivation, and left traces match the action traces
    out["S2"] = _worst_of((
        _max_abs(_hessian_defect(c2, g2)),
        _max_abs(_left_symmetry_defect(c2) - _sectional_target(g2, eye2)),
        _max_abs(_derivation_defect(b2, c2)),
        _max_abs(_traces(c2) + _traces(rho2)),
    ))

    # S3-1: first-part actions are almost derivations of the second product
    rho1_t = rho1.transpose(0, 2, 1)
    lhs = _compose(c2, rho1.transpose(2, 0, 1)).transpose(2, 0, 1, 3)  # jkm,xlm->xjkl
    lhs -= _compose(rho1_t, c2.transpose(1, 0, 2)).transpose(0, 2, 1, 3)  # xmk,jml->xjkl
    lhs -= _compose(rho1_t, c2)  # xmj,mkl->xjkl
    lhs += _compose(rho2.transpose(0, 2, 1), rho1).transpose(1, 0, 3, 2)  # jax,alk->xjkl
    lhs += _compose(omega2, omega1.transpose(1, 0, 2)).transpose(2, 0, 1, 3)  # jka,xal->xjkl
    out["S3-1"] = _max_abs(lhs)

    # S3-2: composite action through the first part collapses
    out["S3-2"] = _max_abs(
        _compose(rho1_t, rho2).transpose(1, 0, 3, 2)  # jmx,mlk->xjkl
        + _compose(omega1, omega2.transpose(1, 0, 2)).transpose(2, 0, 1, 3)  # jkm,xml->xjkl
    )

    # S3-3: first-part actions agree on the omega1 pairings
    term3 = _compose(omega1, rho1.transpose(2, 0, 1)).transpose(2, 0, 1, 3)  # jkm,xlm->xjkl
    out["S3-3"] = _max_abs(term3 - term3.transpose(1, 0, 2, 3))

    # S3-4: cocycle condition for omega2 over the second product
    p1 = _compose(omega2, rho2.transpose(2, 0, 1)).transpose(2, 0, 1, 3)  # jka,xla->xjkl
    p2 = _compose(c2, omega2.transpose(1, 0, 2)).transpose(2, 0, 1, 3)  # jkm,xml->xjkl
    p3 = _compose(c2_bracket, omega2)  # xjm,mkl->xjkl
    out["S3-4"] = _max_abs(
        (p1 - p1.transpose(1, 0, 2, 3)) + (p2 - p2.transpose(1, 0, 2, 3)) - p3
    )

    # S3-5: omega2 is invariant under the first-part actions
    out["S3-5"] = _max_abs(
        _compose(rho1_t, omega2)  # xmj,mkl->xjkl
        + _compose(rho1_t, omega2.transpose(1, 0, 2)).transpose(0, 2, 1, 3)  # xmk,jml->xjkl
    )

    # S3-6: multiplication against omega1 reproduces the first Gram matrix
    rho2_t = rho2.transpose(0, 2, 1)
    q = _compose(omega1, c2.transpose(1, 0, 2)).transpose(2, 0, 1, 3)  # jkm,xml->xjkl
    q -= _compose(rho2_t, omega1)  # xaj,akl->xjkl
    q -= _compose(rho2_t, omega1.transpose(1, 0, 2)).transpose(0, 2, 1, 3)  # xak,jal->xjkl
    q += np.einsum("jk,xl->xjkl", g1, eye2)
    out["S3-6"] = _max_abs(q)

    # S3-7 / S3-8: the skew blocks intertwine the two action families
    out["S3-7"] = _max_abs(
        np.einsum("lm,xmk->xlk", b2, rho1)
        - np.einsum("xlm,mk->xlk", rho1, b2)
        - np.einsum("ax,alk->xlk", b1, rho1)
        - rho1 / 2.0
    )
    out["S3-8"] = _max_abs(
        np.einsum("lm,xmk->xlk", b1, rho2)
        - np.einsum("xlm,mk->xlk", rho2, b1)
        - np.einsum("ax,alk->xlk", b2, rho2)
    )
    return out
