"""The split algebra of decompose.split_h: one left symmetry for AS-1..AS-6.

split_h assembles the algebra that the induced product circ on h, the inner
product <,> = I and the right and left multiplications S and A_op by H define
on h + R H (H last), and certifies its left symmetry through the one kernel
forms._left_symmetry_worst.  The blocks of its defect d(x, y, z) are the
paper's relations: (h, h, h) AS-2 and AS-1, (h, h, H) AS-3 and the symmetry of
S, (H, h, h) AS-4 and AS-5, (H, h, H) AS-6.  Here the seven relations it
replaced are written out once more as an oracle, and each block is forced in
turn through split_h, which must refuse it under the one name with a witness
in that block.
"""

import numpy as np
import pytest

from leftsym import (
    AlgebraStructure,
    SystemASViolated,
    Tolerance,
    change_basis,
    decompose,
    koszul_form,
    split_h,
)
from leftsym.catalog import catalog_build, catalog_list
from leftsym.core import _compose, _restrict, residual_scale
from leftsym.forms import _derivation_defect, _hessian_defect
from test_slab_reduction import left_symmetry_defect, sectional_target


def seven_relations(cc, S, A_op):
    """AS-1..AS-6 and AS-S-symmetric as split_h measured them before the split algebra, by name."""
    eye = np.eye(len(S))
    st = S.T
    s_right = _compose(st, cc.transpose(1, 0, 2))  # s_right[j, i] = e_i o S(e_j)
    return {
        "AS-1": _hessian_defect(cc, eye),
        "AS-2": left_symmetry_defect(cc) - sectional_target(eye, S),
        "AS-3": _compose(cc - cc.transpose(1, 0, 2), st) - (s_right.transpose(1, 0, 2) - s_right),
        "AS-4": _derivation_defect(A_op, cc) + _compose(st, cc),
        "AS-5": S - (A_op + A_op.T - eye),
        "AS-6": S @ A_op - A_op @ S - (S @ S - S),
        "AS-S-symmetric": S - S.T,
    }


def _worst_of_seven(cc, S, A_op) -> float:
    return max(float(np.abs(t).max()) for t in seven_relations(cc, S, A_op).values())


def _measured(A, H):
    """split_h's record on A and H at a threshold nothing exceeds, and the circ it read."""
    hs = split_h(A, H, Tolerance(1e300))
    w_h = koszul_form(A).matrix / hs.rho @ hs.h_basis
    return hs, _compose(_restrict(A.constants, hs.h_basis), w_h)  # circ, as split_h reads it


def test_split_h_measures_the_seven_relations_on_random_data():
    # with circ traceless, the algebra (circ, S, A_op) define on h + R H has the
    # trace form (1 + tr A_op) I, so split_h takes H = e_m and reads the data back
    # in an orthonormal basis of h, in which they fail every relation
    rng = np.random.default_rng(23)
    for draw in range(200):
        m = int(rng.integers(1, 9))
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        cc, S, A_op = (scale * rng.standard_normal(shape) for shape in ((m, m, m), (m, m), (m, m)))
        cc -= np.einsum("kmm->k", cc)[:, None, None] * np.eye(m) / m
        S = S + S.T if draw % 2 else S
        A_op *= 1.0 if np.trace(A_op) > -1.0 else -1.0  # 1 + tr A_op > 0
        c = np.zeros((m + 1,) * 3)
        c[:m, :m, :m], c[:m, :m, m], c[m, m, m] = cc, np.eye(m), 1.0
        c[:m, m, :m], c[m, :m, :m] = S.T, A_op.T  # x H = S x, H x = A_op x
        hs, cc = _measured(AlgebraStructure(c), np.eye(m + 1)[m])
        got = hs.residuals["split left-symmetric"]
        want = _worst_of_seven(cc, hs.S, hs.A_op)
        assert abs(got - want) <= 1e-15 * want, (draw, got, want)


@pytest.mark.parametrize("name", [n for n in catalog_list() if n.startswith("lspk_")])
def test_split_h_measures_the_seven_relations_on_the_catalog(name):
    # the residuals of valid data are rounding, so they agree to the size of the
    # quadratic terms, the square of the data's scale
    A0 = catalog_build(name)
    for seed in range(4):
        P = np.eye(A0.dim) + 0.3 * np.random.default_rng(seed).standard_normal((A0.dim, A0.dim))
        A = change_basis(A0, P)
        hs, cc = _measured(A, decompose(A).H)
        got = hs.residuals["split left-symmetric"]
        want = _worst_of_seven(cc, hs.S, hs.A_op)
        assert abs(got - want) <= 1e-15 * residual_scale(cc, hs.S, hs.A_op) ** 2, (seed, got, want)
        assert "AS-7" in hs.residuals and not {f"AS-{k}" for k in range(1, 7)} & set(hs.residuals)


def _frame(name, params=None):
    """The frame constants of a catalog entry (basis h1, h2, H with B = rho I), as a writable copy."""
    return np.array(decompose(catalog_build(name, params)).frame.constants)


def _force_as4(eps):
    c = _frame("lspk_dim5")  # n1 = 3, n2 = 1: a skew A_op on h1 commutes with S = 0 there
    c[-1, 0, 1] += eps
    c[-1, 1, 0] -= eps
    return c


def _force_s_symmetric(eps):
    c = _frame("lspk_dim5")
    c[0, -1, 1] += eps  # x H = S x, so S gains a skew part on h1
    c[1, -1, 0] -= eps
    return c


def _force_as6(eps):
    c = _frame("lspk_dim3_case1")  # circ = 0, S = 0, A_op = I/2 + b1
    for i, j in ((0, 1), (1, 0)):
        c[i, -1, j] += eps  # a symmetric change of S ...
        c[-1, i, j] += eps / 2.0  # ... and half of it in A_op, so AS-5 still holds
    return c


def _force_product(eps):
    c = _frame("rn_canonical", {"n": 3})  # S = A_op = I, so only the (h, h, h) block sees circ
    c[0, 1, 0] += eps
    return c


# (force, witness predicate on (i, j, k) with n - 1 the index of H): each change
# moves only outputs in h, so the trace form and H stay as they were
BLOCKS = {
    "(h, h, h): AS-2, AS-1": (_force_product, lambda i, j, k, last: j < last and k < last),
    "(h, h, H): AS-3, S symmetric": (_force_s_symmetric, lambda i, j, k, last: j < last and k == last),
    "(H, h, h): AS-4, AS-5": (_force_as4, lambda i, j, k, last: j == last and k < last),
    "(H, h, H): AS-6": (_force_as6, lambda i, j, k, last: i < last and j == k == last),
}


@pytest.mark.parametrize("block", sorted(BLOCKS))
def test_each_block_of_the_split_algebra_is_live(block):
    force, in_block = BLOCKS[block]
    A = AlgebraStructure(force(1e-3))
    last = A.dim - 1
    H = np.eye(A.dim)[last]
    with pytest.raises(SystemASViolated) as info:
        split_h(A, H)
    assert info.value.name == "split left-symmetric"
    check = {c.name: c for c in split_h(A, H, Tolerance(1.0)).checks}["split left-symmetric"]
    assert check.residual == info.value.residual and in_block(*check.witness, last), check
