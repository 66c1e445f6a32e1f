"""Refusals of malformed arguments, each pinned by its class and its message.

These are the argument checks of the library (shapes, dimensions, finiteness,
singular metrics, parameter ranges), which refuse before anything is measured.
"""

import math

import numpy as np
import pytest

from leftsym import (
    BilinearForm,
    DimensionMismatch,
    FixtureBroken,
    LSPKData,
    MetricAlgebra,
    MilnorSpec,
    NotPositiveDefinite,
    PreconditionFailed,
    SingularMetric,
    UnknownSystem,
    build_corollary1,
    build_milnor,
    check_hessian,
    check_k_hessian,
    recognize_milnor,
)
from leftsym.construct import derive_omegas
from leftsym.search import verify_roots_build

_MILNOR, _ = build_milnor(MilnorSpec(2, np.array([1.0, 0.0])))
_ACTION = np.zeros((1, 1, 1))

CASES = [
    (lambda: derive_omegas(_ACTION, np.eye(1), np.zeros((1, 1))), SingularMetric,
     "second metric is singular: Singular matrix"),
    # the first metric is never solved against: the data refuses it before
    (lambda: LSPKData(n1=1, n2=1, g1=np.zeros((1, 1))), NotPositiveDefinite,
     "positive definite g1 fails, residual -0.000e+00"),
    (lambda: LSPKData(n1=-1, n2=0), DimensionMismatch, "part dimensions must be nonnegative, got -1, 0"),
    (lambda: LSPKData(n1=1, n2=-2), DimensionMismatch, "part dimensions must be nonnegative, got 1, -2"),
    (lambda: build_corollary1(-1), DimensionMismatch, "part dimension must be nonnegative, got -1"),
    (lambda: MilnorSpec(0, np.zeros(0)), DimensionMismatch, "dimension must be positive, got 0"),
    (lambda: recognize_milnor(_MILNOR, 0.0), PreconditionFailed, "requires k < 0, got 0.0"),
    (lambda: recognize_milnor(_MILNOR, 1.0), PreconditionFailed, "requires k < 0, got 1.0"),
    (lambda: BilinearForm(np.zeros((2, 3))), DimensionMismatch, "Gram matrix must be square, got (2, 3)"),
    (lambda: BilinearForm(np.zeros(2)), DimensionMismatch, "Gram matrix must be square, got (2,)"),
    (lambda: BilinearForm(np.array([[np.inf]])), ValueError, "Gram matrix must be finite"),
    (lambda: BilinearForm(np.array([[np.nan]])), ValueError, "Gram matrix must be finite"),
    (lambda: BilinearForm(np.eye(2)).value(np.zeros(3), np.zeros(2)), DimensionMismatch,
     "expected vectors of shape (2,)"),
    (lambda: MetricAlgebra(_MILNOR.algebra, BilinearForm(np.eye(3))), DimensionMismatch,
     "metric dim 3 != algebra dim 2"),
    (lambda: check_hessian(_MILNOR.algebra, BilinearForm(np.eye(3))), DimensionMismatch,
     "form dim 3 != algebra dim 2"),
    (lambda: check_k_hessian(_MILNOR.algebra, BilinearForm(np.eye(3)), -1.0), DimensionMismatch,
     "form dim 3 != algebra dim 2"),
    (lambda: verify_roots_build("dim5", [5.0, 5.0]), FixtureBroken,
     "catalog entry 'dim5 root' fails predicate 'pair (5.0, 5.0) matches no admissible branch'"),
    (lambda: verify_roots_build("dim7", [0.0]), UnknownSystem, "no builtin system named 'dim7'"),
]


@pytest.mark.parametrize("call, error, message", CASES, ids=[m for _, _, m in CASES])
def test_argument_refusal_names_what_is_wrong(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("k", [math.inf, -math.inf, math.nan], ids=str)
def test_check_k_hessian_refuses_a_non_finite_k(k):
    # as einstein_check refuses a non-finite alpha, before a NaN residual is measured
    with pytest.raises(ValueError) as info:
        check_k_hessian(_MILNOR.algebra, _MILNOR.metric, k)
    assert str(info.value) == f"k must be finite, got {k}"
