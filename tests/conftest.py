"""Shared fixtures: two small algebras that get reused all over the suite.

dim2 is the two dimensional algebra with product e*e = H, H*e = e/2,
H*H = H (basis order e, H); its Koszul form is (3/2) I and every geometric
quantity is known in closed form, so it serves as the main frozen oracle.
a0 is the nilpotent plane e1*e1 = e2, whose Koszul form vanishes.
_ill_conditioned draws the seeded ill-conditioned transports of the six
lspk_* entries that the decompose, geometry and CLI tests replay, and
_ill_conditioned_draws the same transports with the entry and parameters
each one carries.
"""

import numpy as np
import pytest

from leftsym import AlgebraStructure, BilinearForm, MetricAlgebra, change_basis
from leftsym.catalog import catalog_build, sample_params

LSPK_NAMES = ["lspk_dim2", "lspk_dim3_case1", "lspk_dim3_case2",
              "lspk_dim3_case3", "lspk_dim4", "lspk_dim5"]


def _ill_conditioned_draws(count: int, seed: int = 2):
    """(name, params, A): A transports the entry by P = U diag(geomspace(1, kappa, n)) V^T 10^U(-2, 2)."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        name = LSPK_NAMES[i % len(LSPK_NAMES)]
        params = sample_params(name, rng)
        A = catalog_build(name, params)
        n = A.dim
        U, _ = np.linalg.qr(rng.standard_normal((n, n)))
        V, _ = np.linalg.qr(rng.standard_normal((n, n)))
        kappa = 10.0 ** rng.uniform(0.0, 4.0)
        P = U @ np.diag(np.geomspace(1.0, kappa, n)) @ V.T * 10.0 ** rng.uniform(-2.0, 2.0)
        yield name, params, change_basis(A, P)


def _ill_conditioned(count: int, seed: int = 2):
    """The transports of _ill_conditioned_draws alone."""
    for _, _, A in _ill_conditioned_draws(count, seed):
        yield A


@pytest.fixture
def dim2() -> AlgebraStructure:
    c = np.zeros((2, 2, 2))
    c[0, 0, 1] = 1.0
    c[1, 0, 0] = 0.5
    c[1, 1, 1] = 1.0
    return AlgebraStructure(c, name="dim2")


@pytest.fixture
def a0() -> AlgebraStructure:
    c = np.zeros((2, 2, 2))
    c[0, 0, 1] = 1.0
    return AlgebraStructure(c, name="a0")


@pytest.fixture
def a0_metric(a0) -> MetricAlgebra:
    return MetricAlgebra(a0, BilinearForm.identity(2))
