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
ranges are empty reports None.
"""

from __future__ import annotations

import numpy as np

from .core import _max_abs
from .forms import (
    _derivation_defect,
    _hessian_defect,
    _left_symmetry_defect,
    _paired_action,
    _sectional_target,
    _traces,
)


def _combine(*parts: float | None) -> float | None:
    live = [p for p in parts if p is not None]
    return max(live) if live else None


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
    comm1 = np.einsum("xab,ybc->xyac", rho1, rho1)
    out["theo-i-commute"] = _max_abs(comm1 - comm1.transpose(1, 0, 2, 3))

    # the second-part action is a representation of the induced bracket
    c2_bracket = c2 - c2.transpose(1, 0, 2)
    out["theo-ii"] = _max_abs(
        np.einsum("ijm,mab->ijab", c2_bracket, rho2)
        - np.einsum("iab,jbc->ijac", rho2, rho2)
        + np.einsum("jab,ibc->ijac", rho2, rho2)
    )

    # S1: the pairing maps are the metric duals of the symmetrized actions
    s1a = np.einsum("xyl,lz->xyz", omega1, g2) - _paired_action(g1, rho2)
    s1b = np.einsum("xyl,lz->xyz", omega2, g1) - _paired_action(g2, rho1)
    out["S1"] = _combine(_max_abs(s1a), _max_abs(s1b))

    # S2: the second part is a Hessian algebra with sectional constant -1,
    # b2 is a derivation, and left traces match the action traces
    out["S2"] = _combine(
        _max_abs(_hessian_defect(c2, g2)),
        _max_abs(_left_symmetry_defect(c2) - _sectional_target(g2, eye2)),
        _max_abs(_derivation_defect(b2, c2)),
        _max_abs(_traces(c2) + _traces(rho2)),
    )

    # S3-1: first-part actions are almost derivations of the second product
    lhs = np.einsum("jkm,xlm->xjkl", c2, rho1)
    t1 = np.einsum("xmk,jml->xjkl", rho1, c2)
    t2 = np.einsum("xmj,mkl->xjkl", rho1, c2)
    t3 = np.einsum("jax,alk->xjkl", rho2, rho1)
    t4 = np.einsum("jka,xal->xjkl", omega2, omega1)
    out["S3-1"] = _max_abs(lhs - t1 - t2 + t3 + t4)

    # S3-2: composite action through the first part collapses
    out["S3-2"] = _max_abs(
        np.einsum("jmx,mlk->xjkl", rho1, rho2) + np.einsum("jkm,xml->xjkl", omega1, omega2)
    )

    # S3-3: first-part actions agree on the omega1 pairings
    term3 = np.einsum("jkm,xlm->xjkl", omega1, rho1)
    out["S3-3"] = _max_abs(term3 - term3.transpose(1, 0, 2, 3))

    # S3-4: cocycle condition for omega2 over the second product
    p1 = np.einsum("jka,xla->xjkl", omega2, rho2)
    p2 = np.einsum("jkm,xml->xjkl", c2, omega2)
    p3 = np.einsum("xjm,mkl->xjkl", c2_bracket, omega2)
    out["S3-4"] = _max_abs(
        (p1 - p1.transpose(1, 0, 2, 3)) + (p2 - p2.transpose(1, 0, 2, 3)) - p3
    )

    # S3-5: omega2 is invariant under the first-part actions
    out["S3-5"] = _max_abs(
        np.einsum("xmj,mkl->xjkl", rho1, omega2) + np.einsum("xmk,jml->xjkl", rho1, omega2)
    )

    # S3-6: multiplication against omega1 reproduces the first Gram matrix
    q1 = np.einsum("jkm,xml->xjkl", omega1, c2)
    q2 = np.einsum("xaj,akl->xjkl", rho2, omega1)
    q3 = np.einsum("xak,jal->xjkl", rho2, omega1)
    q4 = np.einsum("jk,xl->xjkl", g1, eye2)
    out["S3-6"] = _max_abs(q1 - q2 - q3 + q4)

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
