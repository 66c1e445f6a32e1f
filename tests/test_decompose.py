"""Splitting along the idempotent: signatures, residuals, invariance.

Each family in the catalog lands on a known signature (dim h1, dim h2,
rho); the signature must not move under a change of basis because it only
depends on the isomorphism class.
"""

import importlib

import numpy as np
import pytest

from leftsym import (
    AlgebraStructure,
    BlockNotSkew,
    DiagonalizationFailed,
    IdempotentCheckFailed,
    NotPositiveDefinite,
    SpectrumNotZeroOne,
    SystemASViolated,
    change_basis,
    decompose,
    eigensplit,
    find_idempotent_H,
    koszul_form,
    multiply,
    split_h,
)
from leftsym.catalog import catalog_build
from leftsym.construct import build_corollary1
from leftsym.decompose import _orthonormalize

SIGNATURES = {
    "lspk_dim2": (1, 0, 1.5),
    "lspk_dim3_case1": (2, 0, 2.0),
    "lspk_dim3_case2": (0, 2, 3.0),
    "lspk_dim3_case3": (1, 1, 2.5),
    "lspk_dim4": (2, 1, 3.0),
    "lspk_dim5": (3, 1, 3.5),
}


@pytest.mark.parametrize("name,sig", sorted(SIGNATURES.items()))
def test_family_signatures(name, sig):
    dec = decompose(catalog_build(name))
    assert dec.signature[:2] == sig[:2]
    assert abs(dec.signature[2] - sig[2]) <= 1e-9


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_residuals_certify_the_split(name):
    dec = decompose(catalog_build(name))
    worst = max((v for v in dec.residuals.values() if v is not None), default=0.0)
    assert worst <= 1e-8


def test_idempotent_dim2(dim2):
    H = find_idempotent_H(dim2)
    np.testing.assert_allclose(H, np.array([0.0, 1.0]), atol=1e-12)
    np.testing.assert_allclose(multiply(dim2, H, H), H, atol=1e-12)


def test_dim2_split_values(dim2):
    dec = decompose(dim2)
    assert (dec.dim_h1, dec.dim_h2) == (1, 0)
    assert abs(dec.rho - 1.5) <= 1e-12
    np.testing.assert_allclose(dec.H, np.array([0.0, 1.0]), atol=1e-12)
    # h1 is spanned by e, normalized for <,> = B / rho = identity
    assert abs(abs(dec.basis_h1[0, 0]) - 1.0) <= 1e-12
    # B1 is skew on a one dimensional space, hence zero
    np.testing.assert_allclose(dec.B1, np.zeros((1, 1)), atol=1e-12)


def test_h_component_identity(dim2):
    # x1 * y1 = (x1 o y1) + <x1, y1> H on h1, with <,> = B / rho
    dec = decompose(dim2)
    B = koszul_form(dim2)
    x = dec.basis_h1[:, 0]
    prod = multiply(dim2, x, x)
    coeff = B.value(x, x) / dec.rho
    np.testing.assert_allclose(prod, coeff * dec.H, atol=1e-12)


def test_rejects_degenerate_trace_form(a0):
    with pytest.raises(NotPositiveDefinite):
        decompose(a0)


def test_eigensplit_refusals():
    with pytest.raises(SpectrumNotZeroOne):
        eigensplit(np.array([[0.5]]), np.zeros((1, 1)))
    # on the eigenvalue-0 line A_op = 1 leaves B1 = 1/2, which is not skew
    with pytest.raises(BlockNotSkew) as info:
        eigensplit(np.diag([0.0, 1.0]), np.eye(2))
    assert (info.value.name, info.value.residual) == ("B1", 1.0)


def test_eigensplit_off_diagonal_residual_keeps_a_nan(monkeypatch):
    # _max_abs measures the spectrum, B1, B2 and then the two off-diagonal blocks;
    # a NaN in the second block must win the fold and fail A_offdiagonal
    measured = iter([0.0, 0.0, 0.0, 0.0, float("nan")])
    module = importlib.import_module("leftsym.decompose")  # the package name is the function
    monkeypatch.setattr(module, "_max_abs", lambda t: next(measured))
    with pytest.raises(SystemASViolated) as info:
        eigensplit(np.diag([0.0, 1.0]), np.diag([0.5, 1.0]))
    assert info.value.name == "A_offdiagonal" and np.isnan(info.value.residual)


def test_perturbed_flat_part_is_refused_by_stage():
    c = np.array(build_corollary1(2).constants)
    c[0, 1, 1] += 0.3
    A = AlgebraStructure(c)
    with pytest.raises(IdempotentCheckFailed) as info:
        find_idempotent_H(A)
    assert info.value.residual > 1e-3
    H = np.linalg.solve(koszul_form(A).matrix, np.einsum("kmm->k", c))
    with pytest.raises(SystemASViolated) as info:
        split_h(A, H)
    assert info.value.name == "XH_stays_in_h"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_split_h_refuses_an_indefinite_complement():
    # B(H, H) > 0 here, but the trace form is negative on the complement of H
    rng = np.random.default_rng(0)
    A = AlgebraStructure(rng.standard_normal((2, 2, 2)))
    with pytest.raises(NotPositiveDefinite):
        split_h(A, rng.standard_normal(2))


@pytest.mark.parametrize("name", ["lspk_dim2", "lspk_dim4", "lspk_dim5"])
def test_signature_is_basis_invariant(name):
    A = catalog_build(name)
    want = decompose(A).signature
    rng = np.random.default_rng(42)
    for _ in range(5):
        P = np.eye(A.dim) + 0.3 * rng.uniform(-1.0, 1.0, size=(A.dim, A.dim))
        if abs(np.linalg.det(P)) < 0.2:
            continue
        got = decompose(change_basis(A, P)).signature
        assert got[:2] == want[:2]
        assert abs(got[2] - want[2]) <= 1e-7


def test_adapted_basis_is_orthonormal():
    A = catalog_build("lspk_dim4")
    dec = decompose(A)
    B = koszul_form(A)
    gram = dec.basis.T @ (B.matrix / dec.rho) @ dec.basis
    np.testing.assert_allclose(gram, np.eye(A.dim), atol=1e-10)


def test_operator_blocks_line_up():
    # rho1[x] is the matrix of h2-action of the x-th h1 vector: check one
    # entry against a direct product
    A = catalog_build("lspk_dim5")
    dec = decompose(A)
    x = dec.basis_h1[:, 0]
    w = dec.basis_h2[:, 0]
    prod = multiply(A, x, w)
    coords = dec.basis_h2.T @ (koszul_form(A).matrix / dec.rho) @ prod
    np.testing.assert_allclose(coords, dec.rho1[0][:, 0], atol=1e-10)


def gram_schmidt(cols, g):
    """Column-by-column Gram-Schmidt for g with one re-orthogonalization pass."""
    out = []
    for v in cols.T:
        u = v.copy()
        for _ in range(2):
            for w in out:
                u = u - (w @ g @ u) * w
        out.append(u / np.sqrt(u @ g @ u))
    return np.column_stack(out) if out else np.zeros((cols.shape[0], 0))


@pytest.mark.parametrize("n", [1, 2, 5, 12, 24])
def test_orthonormalize_matches_gram_schmidt(n):
    rng = np.random.default_rng(n)
    g = rng.standard_normal((n, n))
    g = g @ g.T + np.eye(n)
    cols = np.linalg.svd(rng.standard_normal((1, n)))[2][1:].T  # as split_h builds them
    np.testing.assert_allclose(_orthonormalize(cols, g), gram_schmidt(cols, g), rtol=0, atol=1e-12)


def test_orthonormalize_refusals():
    e = np.eye(3)
    with pytest.raises(NotPositiveDefinite):
        _orthonormalize(e[:, :2], np.diag([1.0, -1.0, 1.0]))
    for cols, g in [(e[:, [0, 0]], e), (e[:, :2], np.diag([1.0, 0.0, 1.0]))]:
        with pytest.raises(DiagonalizationFailed):
            _orthonormalize(cols, g)
