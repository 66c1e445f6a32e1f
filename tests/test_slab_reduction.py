"""Rank-4 defects reduced slab by slab, against full-tensor oracles.

core._slab_worst never holds a whole n^4 defect: it evaluates one slab of an
index at a time and keeps the running worst entry and its witness.  The oracles
below build each defect as one tensor, the way the identities read on paper,
and the reduction must report the same worst entry (to 1e-13 of its size) and
the same witness.  The sizes straddle the slab edges: n <= 12 is one slab,
n = 13 splits into slabs of 10 and 3, and n = 24, 25 take one k per slab.
"""

import math
import tracemalloc

import numpy as np
import pytest

from leftsym import (
    AlgebraStructure,
    change_basis,
    check_associative,
    check_jacobi,
    check_left_symmetric,
    check_novikov,
    decompose,
)
from leftsym.construct import build_corollary1
from leftsym.core import _slab_worst
from leftsym.forms import (
    _left_symmetry_slabs,
    _metric_sectional,
    _operator_sectional,
    _worst,
)

SIZES = [0, 1, 2, 5, 12, 13, 24, 25]


def assoc_tensor(c):
    """T[i,j,k,:] = associator(e_i, e_j, e_k)."""
    return np.einsum("ijm,mkl->ijkl", c, c) - np.einsum("jkm,iml->ijkl", c, c)


def left_symmetry_defect(c):
    """ass(x, y, z) - ass(y, x, z) on basis triples."""
    t = assoc_tensor(c)
    return t - t.transpose(1, 0, 2, 3)


def sectional_target(g, x):
    """T[i,j,k,l] = g_jk x_li - g_ik x_lj, i.e. <e_j,e_k> X e_i - <e_i,e_k> X e_j for X = x."""
    return np.einsum("jk,li->ijkl", g, x) - np.einsum("ik,lj->ijkl", g, x)


def _data(n):
    rng = np.random.default_rng(1000 + n)
    c = rng.standard_normal((n, n, n))
    g = rng.standard_normal((n, n))
    g = g @ g.T + n * np.eye(n)
    s = rng.standard_normal((n, n))
    return c, g, s


def _assert_same_worst(got, want):
    if want[1] is None:
        assert got == want == (None, None)  # one vacuous rule for _worst and _slab_worst
        return
    assert abs(got[0] - want[0]) <= 1e-13 * max(1.0, want[0])
    assert got[1] == want[1]


@pytest.mark.parametrize("n", SIZES)
def test_sectional_defects_match_the_full_tensor_oracle(n):
    c, g, s = _data(n)
    eye = np.eye(n)
    d = left_symmetry_defect(c)
    cases = [
        (None, d),  # left symmetry
        (_metric_sectional(g, -1.0), d - sectional_target(g, eye)),  # S2, corollary 2
        (_metric_sectional(g, 2.5), d + 2.5 * sectional_target(g, eye)),  # check_k_hessian
        (_operator_sectional(s), d - sectional_target(eye, s)),  # AS-2
    ]
    for target, full in cases:
        _assert_same_worst(_slab_worst(n, _left_symmetry_slabs(c, target)), _worst(full))


@pytest.mark.parametrize("n", SIZES)
def test_predicates_match_the_full_tensor_oracle(n):
    c, _, _ = _data(n)
    A = AlgebraStructure(c)
    lie = AlgebraStructure(c - c.transpose(1, 0, 2))
    left = np.einsum("ijm,mkl->ijkl", c, c)
    t = np.einsum("ijm,mkl->ijkl", lie.constants, lie.constants)
    right_symmetry = left - left.transpose(0, 2, 1, 3)
    jacobi = t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)
    reports = [
        (check_left_symmetric(A), left_symmetry_defect(c)),
        (check_associative(A), assoc_tensor(c)),
        (check_novikov(A), right_symmetry),  # its first part, which fails on these data
        (check_jacobi(lie), jacobi),
    ]
    for rep, full in reports:
        if n == 0:
            assert (rep.holds, rep.max_residual, rep.witness) == (True, 0.0, None)
            continue
        want = _worst(full)
        if rep is reports[-1][0]:
            # the Jacobiator is antisymmetric only up to rounding, so its maximum is
            # never unique: the witness need only attain it
            assert abs(rep.max_residual - want[0]) <= 1e-13 * want[0]
            assert np.max(np.abs(full[rep.witness])) >= want[0] * (1 - 1e-13)
        else:
            _assert_same_worst((rep.max_residual, rep.witness), want)


@pytest.mark.parametrize("n", [1, 5, 13, 25])
@pytest.mark.parametrize("axis", [2, 3])
def test_slab_worst_reports_like_worst_with_ties_and_nans(n, axis):
    # few distinct values, so the maximum is tied across many slabs
    rng = np.random.default_rng(n + 10 * axis)
    arr = rng.integers(-3, 4, size=(n, n, n, n)).astype(float)
    with_nan = arr.copy()
    with_nan.flat[rng.integers(arr.size, size=2)] = np.nan
    for a in (arr, with_nan):
        got = _slab_worst(n, lambda lo, hi: np.take(a, range(lo, hi), axis=axis), axis)
        want = _worst(a)
        assert got[1] == want[1]
        assert got[0] == want[0] or (math.isnan(got[0]) and math.isnan(want[0]))


def test_a_nan_in_the_last_slab_wins():
    n = 25
    arr = np.random.default_rng(3).standard_normal((n, n, n, n))
    arr[0, 0, 0, 0] = 1e300
    arr[3, 1, n - 1, 2] = np.nan
    got = _slab_worst(n, lambda lo, hi: arr[:, :, lo:hi].copy())
    assert math.isnan(got[0]) and got[1] == (3, 1, n - 1)


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_left_symmetry_and_decompose_hold_no_rank4_tensor():
    n = 48
    A = AlgebraStructure(np.random.default_rng(48).standard_normal((n, n, n)))
    Q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((n, n)))
    B = change_basis(build_corollary1(n - 1), Q)
    assert _peak_bytes(lambda: check_left_symmetric(A)) <= 0.5 * 8 * n**4
    assert _peak_bytes(lambda: decompose(B)) <= 0.5 * 8 * n**4
