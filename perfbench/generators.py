"""Seeded inputs with known answers for the leftsym benchmark.

Every case carries the algebra's builder together with the invariants it is
known to have at any dimension n: the decomposition signature (dim h1,
dim h2, rho), the trace form in the built basis, and the Einstein factor
mu = -1/alpha of the double-space metric built from alpha times the trace
form.  Each case also carries a seeded random orthogonal matrix Q; the
benchmark transports the built algebra by Q, which keeps the signature and
rho and turns the trace form K into Q^T K Q.

The families:

* flat part: build_corollary1(n-1, D) with a random skew D, signature
  (n-1, 0, n/2 + 1/2), trace form rho * I;
* product part: build_corollary2 over build_milnor with a random unit h,
  signature (0, n-1, n), trace form n * I;
* the coordinatewise product on R^n, signature (0, n-1, n), trace form I;
* the mixed catalog entries, with parameters drawn by sample_params and
  the invariants the catalog declares for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import leftsym as ls

FAMILIES = ("flat", "product", "rn")
CATALOG_LSPK = ("lspk_dim3_case3", "lspk_dim4", "lspk_dim5")


@dataclass(frozen=True, eq=False)
class Case:
    """One input algebra with its known answers."""

    family: str
    n: int
    build: Callable[[], "ls.AlgebraStructure"]
    Q: np.ndarray
    n1: int
    n2: int
    rho: float
    koszul: np.ndarray

    def koszul_transported(self) -> np.ndarray:
        """The trace form in the basis given by the columns of Q."""
        return self.Q.T @ self.koszul @ self.Q

    @staticmethod
    def mu(alpha: float) -> float:
        """Einstein factor of the metric alpha * trace form."""
        return -1.0 / alpha


def random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.where(np.diag(r) < 0, -1.0, 1.0)


def random_skew(n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return (a - a.T) / 2.0


def rn_constants(n: int) -> np.ndarray:
    c = np.zeros((n, n, n))
    idx = np.arange(n)
    c[idx, idx, idx] = 1.0
    return c


def flat_part(n: int, rng: np.random.Generator) -> Case:
    m = n - 1
    d = random_skew(m, rng)
    rho = n / 2.0 + 0.5
    return Case("flat", n, lambda: ls.build_corollary1(m, d), random_orthogonal(n, rng),
                m, 0, rho, rho * np.eye(n))


def product_part(n: int, rng: np.random.Generator) -> Case:
    m = n - 1
    h = rng.standard_normal(m)
    h /= np.linalg.norm(h)

    def build():
        M, _ = ls.build_milnor(ls.MilnorSpec(m, h))
        return ls.build_corollary2(M)

    return Case("product", n, build, random_orthogonal(n, rng), 0, m, float(n), n * np.eye(n))


def rn_product(n: int, rng: np.random.Generator) -> Case:
    return Case("rn", n, lambda: ls.AlgebraStructure(rn_constants(n), name=f"rn{n}"),
                random_orthogonal(n, rng), 0, n - 1, float(n), np.eye(n))


def catalog_case(name: str, rng: np.random.Generator) -> Case:
    entry = ls.catalog_entry(name)
    params = ls.sample_params(name, rng)
    resolved = entry.resolve(params)
    n1, n2, rho = entry.expected_signature(resolved)
    koszul = np.asarray(entry.expected_koszul(resolved), dtype=float)
    n = koszul.shape[0]
    return Case(name, n, lambda: ls.catalog_build(name, params), random_orthogonal(n, rng),
                n1, n2, float(rho), koszul)


_FAMILY = {"flat": flat_part, "product": product_part, "rn": rn_product}


def make_case(family: str, n: int, rng: np.random.Generator) -> Case:
    """A case of one of FAMILIES at dimension n, or of a catalog entry."""
    if family in _FAMILY:
        return _FAMILY[family](n, rng)
    return catalog_case(family, rng)
