"""The paper's algebraic theorem, probed by a seeded search for counterexamples.

An associative or Novikov left-symmetric algebra with positive definite trace
form is R^n with its coordinatewise product, so in particular commutative.
Least squares (scipy's Levenberg-Marquardt) solves for all n^3 structure
constants from 6 seeded starts per case at n = 2, 3 and 4.  The residual is the
left-symmetry defect, plus B - I for the trace form B, plus the defect of the
hypothesis: the associator, or (xy)z - (xz)y for Novikov.  Every root with a
max residual of at most 1e-12 must be commutative and carried onto R^n by
rn_isomorphism.  A control run without a hypothesis must reach a root with
|xy - yx| > 0.1, so the search does reach non-commutative algebras and the
test cannot pass vacuously.
"""

import numpy as np
import pytest

from leftsym import AlgebraStructure, catalog_build, change_basis, check_commutative, koszul_form, rn_isomorphism

optimize = pytest.importorskip("scipy.optimize")

STARTS = 6
ROOT = 1e-12  # max residual of a converged start


def _products(c):
    """((e_i e_j) e_k, e_i (e_j e_k)), each as an (n, n, n, n) tensor over i, j, k and the output."""
    return np.einsum("ijm,mkl->ijkl", c, c), np.einsum("jkm,iml->ijkl", c, c)


def _associator(c):
    left, right = _products(c)
    return left - right


def _novikov(c):
    left, _ = _products(c)
    return left - left.transpose(0, 2, 1, 3)


def _residual(x, n, hypothesis):
    c = x.reshape(n, n, n)
    a = _associator(c)
    trace_form = np.einsum("ijk,k->ij", c, np.einsum("kmm->k", c))
    parts = [(a - a.transpose(1, 0, 2, 3)).ravel(), (trace_form - np.eye(n)).ravel()]
    if hypothesis is not None:
        parts.append(hypothesis(c).ravel())
    return np.concatenate(parts)


def _roots(n, hypothesis, seed):
    """The constants of every start whose max residual is at most ROOT."""
    rng = np.random.default_rng(seed)
    found = []
    for _ in range(STARTS):
        fit = optimize.least_squares(_residual, rng.standard_normal(n**3), method="lm", args=(n, hypothesis))
        if np.max(np.abs(fit.fun)) <= ROOT:
            found.append(fit.x.reshape(n, n, n))
    return found


def test_the_residual_measures_the_library_trace_form():
    A = change_basis(catalog_build("lspk_dim3_case2"), np.random.default_rng(0).standard_normal((3, 3)))
    B = koszul_form(A).matrix
    r = _residual(A.constants.ravel(), 3, None)
    np.testing.assert_allclose(r[81:], (B - np.eye(3)).ravel(), atol=1e-9 * np.abs(B).max())
    assert np.max(np.abs(r[:81])) <= 1e-9 * np.abs(A.constants).max() ** 2


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("hypothesis", [_associator, _novikov], ids=["associative", "novikov"])
def test_every_root_of_the_hypothesis_is_rn(n, hypothesis):
    roots = _roots(n, hypothesis, seed=[n, 1 if hypothesis is _associator else 2])
    assert len(roots) >= STARTS // 2, f"{len(roots)} of {STARTS} starts converged"
    canonical = catalog_build("rn_canonical", {"n": n}).constants
    for c in roots:
        A = AlgebraStructure(c)
        assert check_commutative(A)
        P = rn_isomorphism(A)
        np.testing.assert_allclose(change_basis(A, P).constants, canonical, atol=1e-9)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_control_search_reaches_a_non_commutative_root(n):
    roots = _roots(n, None, seed=[n, 0])
    gaps = [float(np.max(np.abs(c - c.transpose(1, 0, 2)))) for c in roots]
    assert max(gaps, default=0.0) > 0.1
