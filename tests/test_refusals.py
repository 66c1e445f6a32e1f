"""Every refusal on a measured relation is a ResidualError with a name and a residual.

Each case forces one refusal of the library and checks its class, the name of
the relation and that the residual is a float.  A decompose stage keeps its
checks under the names it raises with, so for the stages the raised name must
also be a key of the stage's .residuals on a passing input.  The last tests
replay the catalog with a decompose that refuses, as catalog verify-all sees it.
"""

import importlib
import json

import numpy as np
import pytest

from leftsym import (
    AlgebraStructure,
    BilinearForm,
    DiagonalizationFailed,
    HypothesisFailed,
    IdempotentCheckFailed,
    LSPKData,
    MetricAlgebra,
    MilnorSpec,
    NoKernelVector,
    NotLieBracket,
    NotLSPK,
    NotPositiveDefinite,
    PreconditionFailed,
    ResidualError,
    SpectrumNotZeroOne,
    SystemASViolated,
    Tolerance,
    VerificationFailed,
    ZeroH,
    build_milnor,
    change_basis,
    decompose,
    eigensplit,
    einstein_check,
    find_idempotent_H,
    kdim2_family,
    levi_civita_product,
    multiply,
    recognize_milnor,
    rn_isomorphism,
    split_h,
    tangent_bundle_ricci,
)
from leftsym import catalog, cli
from leftsym.catalog import catalog_build, catalog_entry, catalog_list
from leftsym.decompose import _orthonormalize

REBASED = (
    NotPositiveDefinite,
    NotLieBracket,
    NotLSPK,
    SpectrumNotZeroOne,
    DiagonalizationFailed,
    NoKernelVector,
    ZeroH,
)


def _raised(call, error: type) -> ResidualError:
    with pytest.raises(error) as info:
        call()
    exc = info.value
    assert isinstance(exc, ResidualError)
    assert type(exc.residual) is float
    return exc


def _random_bracket() -> AlgebraStructure:
    c = np.random.default_rng(3).standard_normal((3, 3, 3))
    return AlgebraStructure(c - c.transpose(1, 0, 2))


@pytest.mark.parametrize("error", REBASED + (HypothesisFailed,), ids=lambda e: e.__name__)
def test_rebased_classes_keep_their_bases(error):
    assert issubclass(error, ResidualError)
    if error is HypothesisFailed:
        assert issubclass(error, PreconditionFailed)


def test_library_refusals_name_the_relation(dim2, a0, monkeypatch):
    planar = kdim2_family(-1.0, 0.4)  # not left-symmetric
    commutative_planar = kdim2_family(-1.0, 0.4, family=2).algebra  # commutative, not left-symmetric
    e = np.eye(3)
    cases = [
        (lambda: _orthonormalize(e[:, :2], np.diag([1.0, -1.0, 1.0])), NotPositiveDefinite,
         "positive definite on the complement"),
        (lambda: _orthonormalize(e[:, [0, 0]], e), DiagonalizationFailed, "Cholesky pivot"),
        (lambda: find_idempotent_H(a0), NotPositiveDefinite, "positive definite trace form"),
        (lambda: rn_isomorphism(commutative_planar), HypothesisFailed, "left-symmetric"),
        (lambda: rn_isomorphism(dim2), HypothesisFailed, "commutative"),
        (lambda: rn_isomorphism(a0), HypothesisFailed, "positive definite trace form"),
        (lambda: levi_civita_product(_random_bracket(), BilinearForm.identity(3)), NotLieBracket,
         "jacobi"),
        (lambda: levi_civita_product(AlgebraStructure(np.zeros((2, 2, 2))),
                                     BilinearForm(np.diag([1.0, -1.0]))),
         NotPositiveDefinite, "positive definite metric"),
        (lambda: tangent_bundle_ricci(planar), HypothesisFailed, "left-symmetric"),
        (lambda: einstein_check(planar.algebra), NotLSPK, "left-symmetric"),
        (lambda: einstein_check(a0), NotLSPK, "positive definite trace form"),
        (lambda: LSPKData(n1=1, n2=0, g1=[[-1.0]]), NotPositiveDefinite, "positive definite g1"),
        (lambda: MilnorSpec(2, np.zeros(2), metric=-np.eye(2)), NotPositiveDefinite,
         "positive definite metric"),
        (lambda: build_milnor(MilnorSpec(2, np.zeros(2))), ZeroH, "<h, h> > 0"),
        (lambda: recognize_milnor(planar, -2.0), HypothesisFailed, "sectional"),
        (lambda: recognize_milnor(kdim2_family(-1.0, 0.4, family=2), -1.0), NoKernelVector,
         "kernel vector"),
        # dimension 1: the zero algebra is k-Hessian for every k, and under the metric -1
        # its kernel vector has negative length, so no h with <h, h> = -k exists
        (lambda: recognize_milnor(MetricAlgebra(AlgebraStructure(np.zeros((1, 1, 1))),
                                                BilinearForm(np.array([[-1.0]]))), -1.0),
         VerificationFailed, "kernel vector does not reproduce the structure constants"),
        # R^2 in an integer basis meets every hypothesis exactly; each attempt's basis
        # misses the coordinatewise product by an ulp, above eps = 1e-17
        (lambda: rn_isomorphism(change_basis(catalog_build("rn_canonical", {"n": 2}),
                                             np.array([[1.0, 1.0], [0.0, 1.0]])), Tolerance(1e-17)),
         DiagonalizationFailed, "idempotent basis"),
    ]
    for call, error, name in cases:
        assert _raised(call, error).name == name
    # no eigenvector squares to a multiple of itself, so every attempt is skipped
    forms = importlib.import_module("leftsym.forms")
    monkeypatch.setattr(forms, "multiply", lambda A, x, y: np.zeros_like(x))
    exc = _raised(lambda: rn_isomorphism(catalog_build("rn_canonical")), DiagonalizationFailed)
    assert (exc.name, exc.residual) == ("idempotent basis", np.inf)


def test_stage_refusals_are_recorded_under_their_names(dim2, monkeypatch):
    A = catalog_build("lspk_dim4")
    dec = decompose(A)
    hs = split_h(A, dec.H)
    es = eigensplit(hs.S, hs.A_op)
    planar = kdim2_family(-1.0, 0.4).algebra
    stages = importlib.import_module("leftsym.decompose")

    def off_by_one(B, x, y):  # H*H misses H
        return multiply(B, x, y) + 1.0

    def not_idempotent():
        with monkeypatch.context() as patch:
            patch.setattr(stages, "multiply", off_by_one)
            decompose(catalog_build("lspk_dim2"))

    cases = [
        (lambda: decompose(planar), HypothesisFailed, "left-symmetric", dec),
        (lambda: decompose(catalog_build("nilpotent_A0")), NotPositiveDefinite,
         "positive definite trace form", dec),
        (not_idempotent, IdempotentCheckFailed, "H*H-H", dec),
        (lambda: split_h(dim2, np.zeros(2)), NotPositiveDefinite, "B(H,H)", hs),
        (lambda: eigensplit(np.array([[0.5]]), np.zeros((1, 1))), SpectrumNotZeroOne, "S_spectrum", es),
        (lambda: eigensplit(np.diag([0.0, 1.0]), np.array([[0.5, 1.0], [0.0, 1.0]])),
         SystemASViolated, "A_offdiagonal", es),
    ]
    for call, error, name, passing in cases:
        assert _raised(call, error).name == name
        assert name in passing.residuals
    # the hypothesis opens the record, then the two checks of find_idempotent_H
    assert list(dec.residuals)[:3] == ["left-symmetric", "positive definite trace form", "H*H-H"]
    assert [c.threshold for c in es.checks if c.name == "S_spectrum"] == [1e-6]


@pytest.mark.parametrize("name", [n for n in catalog_list() if catalog_entry(n).kind == "lspk"])
def test_stage_checks_accept_rescaled_and_transported_input(name):
    # rho = B(H, H) is unchanged when the product is rescaled or carried to another
    # basis, so no stage may refuse such a copy of a valid algebra
    A = catalog_build(name)
    n1, n2, rho = decompose(A).signature
    P = np.eye(A.dim) + 0.3 * np.random.default_rng(5).standard_normal((A.dim, A.dim))
    copies = [AlgebraStructure(10.0**k * A.constants) for k in range(1, 7)] + [change_basis(A, P)]
    for copy in copies:
        got = decompose(copy).signature
        assert got[:2] == (n1, n2)
        assert got[2] == pytest.approx(rho, rel=1e-9)


def _verify_all_json(capsys) -> tuple[int, list[dict]]:
    code = cli.run(["catalog", "verify-all", "--json"])
    return code, json.loads(capsys.readouterr().out)["entries"]


@pytest.mark.parametrize("error", REBASED + (HypothesisFailed,), ids=lambda e: e.__name__)
def test_verify_all_maps_every_decompose_refusal_to_a_row(monkeypatch, capsys, error):
    def refuse(A, tol):
        raise error("forced relation", 0.25)

    monkeypatch.setattr(catalog, "decompose", refuse)
    code, rows = _verify_all_json(capsys)
    assert code == 1
    assert [row["name"] for row in rows] == catalog_list()
    for row in rows:
        if catalog_entry(row["name"]).kind == "lspk":
            assert row == {"name": row["name"], "ok": False, "predicate": "forced relation",
                           "residual": 0.25}
        else:
            assert row["ok"] is True


def test_verify_all_gives_a_wrong_signature_a_residual(monkeypatch, capsys):
    flat = decompose(catalog_build("lspk_dim2"))  # signature (1, 0)
    monkeypatch.setattr(catalog, "decompose", lambda A, tol: flat)
    _, rows = _verify_all_json(capsys)
    row = next(r for r in rows if r["name"] == "lspk_dim3_case2")  # expects (0, 2)
    assert row["predicate"] == "signature (1, 0) != (0, 2)" and row["residual"] == 2.0
