"""Splitting along the idempotent: signatures, residuals, invariance.

Each family in the catalog lands on a known signature (dim h1, dim h2,
rho); the signature must not move under a change of basis because it only
depends on the isomorphism class.
"""

import copy
import dataclasses
import importlib
import pickle

import numpy as np
import pytest

from leftsym import (
    AlgebraStructure,
    BlockNotSkew,
    DiagonalizationFailed,
    IdempotentCheckFailed,
    LeftSymError,
    NotPositiveDefinite,
    SpectrumNotZeroOne,
    SystemASViolated,
    Tolerance,
    change_basis,
    data_from_decomposition,
    decompose,
    eigensplit,
    find_idempotent_H,
    koszul_form,
    multiply,
    split_h,
)
from leftsym.catalog import catalog_build, sample_params
from leftsym.construct import build_corollary1, build_lspk
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
    # rho2[x] is the matrix of h1-action of the x-th h2 vector: check one
    # entry against a direct product; the h1-action on h2 (the paper's
    # rho1) is zero, so h1 * h2 has no h2-coordinates
    A = catalog_build("lspk_dim5")
    dec = decompose(A)
    inner = koszul_form(A).matrix / dec.rho
    x = dec.basis_h2[:, 0]
    w = dec.basis_h1[:, 0]
    coords = dec.basis_h1.T @ inner @ multiply(A, x, w)
    np.testing.assert_allclose(coords, dec.rho2[0][:, 0], atol=1e-10)
    assert np.abs(dec.rho2[0][:, 0]).max() > 0.1  # a nonzero entry, not a zero block
    coords = dec.basis_h2.T @ inner @ multiply(A, w, x)
    np.testing.assert_allclose(coords, np.zeros(dec.dim_h2), atol=1e-10)


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


def test_S_and_A_op_are_read_in_the_decomposition_basis():
    # S and A_op are the frame's H column and H row, so S is diagonal in dec.basis
    # even when the input is transported by a random orthogonal matrix
    A = catalog_build("lspk_dim4")
    q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((A.dim, A.dim)))
    dec = decompose(change_basis(A, q))
    (spectrum,) = [c for c in dec.checks if c.name == "S_spectrum"]
    np.testing.assert_allclose(dec.S, np.diag([0.0, 0.0, 1.0]), rtol=0, atol=spectrum.threshold)
    frame = change_basis(change_basis(A, q), dec.basis).constants
    np.testing.assert_array_equal(dec.S, frame[:-1, -1, :-1].T)
    np.testing.assert_array_equal(dec.A_op, frame[-1, :-1, :-1].T)


def test_one_decompose_makes_one_change_of_basis(monkeypatch):
    # every module that can reach change_basis counts through one wrapper
    calls = []
    core = importlib.import_module("leftsym.core")
    original = core.change_basis

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    A = change_basis(catalog_build("lspk_dim5"), np.diag([1.0, 2.0, 0.5, 1.0, 3.0]))
    for module in ("core", "forms", "construct", "decompose", "geometry", "_systems"):
        mod = importlib.import_module(f"leftsym.{module}")
        if hasattr(mod, "change_basis"):
            monkeypatch.setattr(mod, "change_basis", counted)
    dec = decompose(A)
    assert calls == [A]
    assert dec.frame.constants.tobytes() == original(A, dec.basis).constants.tobytes()


def test_the_decomposition_stores_each_vector_once():
    # H and the part bases are views of the one read-only basis, S and A_op
    # views of the frame's H column and H row, and the part dimensions are
    # read from the split data
    dec = decompose(change_basis(catalog_build("lspk_dim5"), np.diag([1.0, 2.0, 0.5, 1.0, 3.0])))
    names = {f.name for f in dataclasses.fields(dec)}
    assert names == {"rho", "basis", "frame", "data", "checks"}
    assert (dec.dim_h1, dec.dim_h2) == (dec.data.n1, dec.data.n2) == (3, 1)
    views = (dec.basis_h1, dec.basis_h2, dec.H)
    assert [v.shape for v in views] == [(5, 3), (5, 1), (5,)]
    assert all(np.shares_memory(v, dec.basis) for v in views)
    np.testing.assert_array_equal(np.column_stack(views), dec.basis)
    assert dec.S.shape == dec.A_op.shape == (4, 4)
    assert all(np.shares_memory(v, dec.frame.constants) for v in (dec.S, dec.A_op))
    assert dec.circ2 is dec.circ2  # built once and kept
    for copied in (dec, pickle.loads(pickle.dumps(dec)), copy.deepcopy(dec)):
        assert copied.basis.tobytes() == dec.basis.tobytes()
        assert copied.frame.constants.tobytes() == dec.frame.constants.tobytes()
        for a in (copied.basis, copied.frame.constants, copied.S, copied.A_op, copied.circ2.constants):
            with pytest.raises(ValueError):
                a.setflags(write=True)
        with pytest.raises(ValueError):
            copied.H[0] = 1.0


def test_every_accepted_ill_conditioned_decomposition_rebuilds():
    # decompose holds the systems to build_lspk's own threshold, which is free of the
    # input's scale, so the rebuild accepts every split data decompose certified; at
    # condition 1e2..1e4 a threshold that grows with the input's scale would not
    rng = np.random.default_rng(3)
    names = ["lspk_dim3_case3", "lspk_dim4", "lspk_dim5"]
    accepted = 0
    for draw in range(90):
        name = names[draw % 3]
        A = catalog_build(name, sample_params(name, rng))
        u, v = (np.linalg.qr(rng.standard_normal((A.dim, A.dim)))[0] for _ in range(2))
        P = u @ np.diag(np.geomspace(1.0, 10.0 ** rng.uniform(2.0, 4.0), A.dim)) @ v.T
        tol = Tolerance([1e-9, 1e-12][draw % 2])
        try:
            dec = decompose(change_basis(A, P, tol), tol)
        except LeftSymError:
            continue
        accepted += 1
        assert build_lspk(data_from_decomposition(dec), tol).dim == A.dim, draw
    assert accepted >= 25
