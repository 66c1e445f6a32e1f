"""Registry of the worked example algebras, with their expected invariants.

Each entry bundles a builder with the values the algebra is known to have:
the trace form matrix, the decomposition signature (dim h1, dim h2, rho)
where the algebra is an LSPK, and the sectional constant k where it is a
k-Hessian metric algebra.  catalog_verify rebuilds an entry and replays its
whole declared predicate suite, so the registry doubles as an executable
regression corpus.

Surd-valued parameters (1/sqrt(6) and friends) are computed from integer
radicands at import time; no decimal approximations are hard-coded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .construct import MilnorSpec, build_milnor, kdim2_family
from .core import AlgebraStructure, Check, Tolerance, _conjunction, residual_scale
from .decompose import decompose
from .errors import FixtureBroken, ResidualError, UnknownEntry
from .forms import (
    BilinearForm,
    MetricAlgebra,
    check_commutative,
    check_k_hessian,
    check_left_symmetric,
    koszul_form,
)
from .forms import _traces, _worst

RT6 = math.sqrt(6.0)
RT3 = math.sqrt(3.0)
RT10 = math.sqrt(10.0)
RT2 = math.sqrt(2.0)

# the four admissible (alpha, gamma) pairs of the five-dimensional family
DIM5_BRANCHES = (
    (-RT3 / 4.0, 1.0 / RT3),
    (RT3 / 4.0, -1.0 / RT3),
    (1.0 / RT10, 1.0 / RT10),
    (-1.0 / RT10, -1.0 / RT10),
)


@dataclass(frozen=True)
class ParamSpec:
    """One named real (or discrete) parameter of a catalog entry."""

    name: str
    default: float
    low: float | None = None
    high: float | None = None
    choices: tuple[float, ...] | None = None
    integer: bool = False

    def validate(self, value: float) -> float:
        """The checked value, an int for an integer parameter (converted after the range check)."""
        if value != value or abs(value) == math.inf:  # NaN compares false with every bound
            raise ValueError(f"parameter {self.name} must be finite, got {value}")
        if self.integer and value != int(value):
            raise ValueError(f"parameter {self.name} must be an integer, got {value}")
        # named as an int below 2**53, where every integer is a float, and as given beyond,
        # so n = 1e300 reads 1e+300, not its 301 digits
        shown = int(value) if self.integer and abs(value) < 2**53 else value
        if self.choices is not None and value not in self.choices:
            raise ValueError(f"parameter {self.name} must be one of {self.choices}")
        if self.low is not None and value < self.low:
            raise ValueError(f"parameter {self.name} = {shown} below {self.low}")
        if self.high is not None and value > self.high:
            raise ValueError(f"parameter {self.name} = {shown} above {self.high}")
        return int(value) if self.integer else value

    def sample(self, rng: np.random.Generator) -> float:
        if self.choices is not None:
            return self.choices[int(rng.integers(len(self.choices)))]
        lo = self.low if self.low is not None else -3.0
        hi = self.high if self.high is not None else 3.0
        if self.integer:
            return int(rng.integers(int(lo), int(hi) + 1))
        return float(rng.uniform(lo, hi))


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    """A worked example with its builder and expected invariants.

    expected_koszul maps the resolved params to the trace form matrix (a
    zero matrix for the trace-free families); expected_signature to the
    decomposition signature of an LSPK entry; expected_k to the sectional
    constant of a metric k-Hessian entry.  Which of the two is declared
    selects the predicate suite run by catalog_verify, and names the entry's
    kind; extra_checks are further predicates (A, tol) -> Check that it runs
    after that suite.
    """

    name: str
    params: tuple[ParamSpec, ...]
    builder: Callable[..., AlgebraStructure | MetricAlgebra]
    expected_koszul: Callable[[dict], np.ndarray] | None = None
    expected_signature: Callable[[dict], tuple[int, int, float]] | None = None
    expected_k: Callable[[dict], float] | None = None
    extra_checks: tuple[Callable[[AlgebraStructure, Tolerance], Check], ...] = field(default=())

    @property
    def kind(self) -> str:
        """The suite catalog_verify runs, read off the declared invariants: "lspk" with an
        expected signature, else "khessian" with an expected k, else "nilpotent"."""
        if self.expected_signature is not None:
            return "lspk"
        return "khessian" if self.expected_k is not None else "nilpotent"

    def resolve(self, params: dict | None) -> dict:
        given = dict(params or {})
        out = {}
        for spec in self.params:
            out[spec.name] = spec.validate(given.pop(spec.name, spec.default))
        if given:
            raise ValueError(f"unknown parameters for {self.name}: {sorted(given)}")
        return out

    def build(self, params: dict | None = None):
        return self.builder(**self.resolve(params))


def _alg(n: int, entries: dict[tuple[int, int, int], float], name: str) -> AlgebraStructure:
    C = np.zeros((n, n, n))
    for (i, j, k), v in entries.items():
        C[i, j, k] = v
    return AlgebraStructure(C, name=name)


def _rn_canonical(n: int) -> AlgebraStructure:
    C = np.zeros((n, n, n))
    for i in range(n):
        C[i, i, i] = 1.0
    return AlgebraStructure(C, name=f"rn{n}")


def _lspk_dim2() -> AlgebraStructure:
    return _alg(2, {(0, 0, 1): 1.0, (1, 0, 0): 0.5, (1, 1, 1): 1.0}, "lspk_dim2")


def _lspk_dim3_case1(lam: float) -> AlgebraStructure:
    return _alg(
        3,
        {
            (0, 0, 2): 1.0,
            (1, 1, 2): 1.0,
            (2, 0, 0): 0.5,
            (2, 0, 1): lam,
            (2, 1, 0): -lam,
            (2, 1, 1): 0.5,
            (2, 2, 2): 1.0,
        },
        "lspk_dim3_case1",
    )


def _lspk_dim3_case2(theta: float) -> AlgebraStructure:
    c, s = math.cos(theta), math.sin(theta)
    return _alg(
        3,
        {
            (0, 0, 1): -c,
            (0, 0, 2): 1.0,
            (0, 1, 0): c,
            (1, 0, 1): -s,
            (1, 1, 0): s,
            (1, 1, 2): 1.0,
            (2, 0, 0): 1.0,
            (0, 2, 0): 1.0,
            (2, 1, 1): 1.0,
            (1, 2, 1): 1.0,
            (2, 2, 2): 1.0,
        },
        "lspk_dim3_case2",
    )


def _lspk_dim3_case3(sign: float) -> AlgebraStructure:
    a = sign / RT6
    return _alg(
        3,
        {
            (0, 0, 1): -2.0 * a,
            (0, 0, 2): 1.0,
            (1, 0, 0): -a,
            (1, 1, 1): a,
            (1, 1, 2): 1.0,
            (2, 0, 0): 0.5,
            (2, 1, 1): 1.0,
            (1, 2, 1): 1.0,
            (2, 2, 2): 1.0,
        },
        "lspk_dim3_case3",
    )


def _lspk_dim4(alpha_sign: float, beta: float, lam: float) -> AlgebraStructure:
    a = alpha_sign / (2.0 * RT2)
    return _alg(
        4,
        {
            (0, 0, 2): 2.0 * a,
            (0, 0, 3): 1.0,
            (1, 1, 2): 2.0 * a,
            (1, 1, 3): 1.0,
            (2, 2, 2): -2.0 * a,
            (2, 2, 3): 1.0,
            (2, 0, 0): a,
            (2, 0, 1): -beta,
            (2, 1, 0): beta,
            (2, 1, 1): a,
            (3, 0, 0): 0.5,
            (3, 0, 1): -lam,
            (3, 1, 0): lam,
            (3, 1, 1): 0.5,
            (3, 2, 2): 1.0,
            (2, 3, 2): 1.0,
            (3, 3, 3): 1.0,
        },
        "lspk_dim4",
    )


def _lspk_dim5(branch: float, beta: float, lam: float) -> AlgebraStructure:
    a, g = DIM5_BRANCHES[int(branch) - 1]
    return _alg(
        5,
        {
            (0, 0, 3): 2.0 * a,
            (0, 0, 4): 1.0,
            (1, 1, 3): 2.0 * a,
            (1, 1, 4): 1.0,
            (2, 2, 3): 2.0 * g,
            (2, 2, 4): 1.0,
            (3, 3, 3): -(2.0 * a + g),
            (3, 3, 4): 1.0,
            (3, 0, 0): a,
            (3, 0, 1): -beta,
            (3, 1, 0): beta,
            (3, 1, 1): a,
            (3, 2, 2): g,
            (4, 0, 0): 0.5,
            (4, 0, 1): -lam,
            (4, 1, 0): lam,
            (4, 1, 1): 0.5,
            (4, 2, 2): 0.5,
            (4, 3, 3): 1.0,
            (3, 4, 3): 1.0,
            (4, 4, 4): 1.0,
        },
        "lspk_dim5",
    )


def _khess_r2_example(lam: float, y: float, k: float) -> MetricAlgebra:
    mu = (y * y / 4.0 - 1.0) / k
    if lam <= 0 or mu <= 0:
        raise ValueError(f"metric diag({lam}, {mu}) is not positive definite")
    A = _alg(
        2,
        {
            (0, 0, 1): (y + 2.0) * lam / (2.0 * mu),
            (1, 1, 1): y,
            (0, 1, 0): y / 2.0 - 1.0,
            (1, 0, 0): y / 2.0,
        },
        "khess_r2",
    )
    return MetricAlgebra(A, BilinearForm(np.diag([lam, mu])))


def _khess_r3_commutative() -> MetricAlgebra:
    # symmetric completion of the three pair products; see the loader note
    A = _alg(
        3,
        {
            (0, 1, 2): 1.0,
            (1, 0, 2): 1.0,
            (0, 2, 1): 1.0,
            (2, 0, 1): 1.0,
            (1, 2, 0): 1.0,
            (2, 1, 0): 1.0,
        },
        "khess_r3",
    )
    return MetricAlgebra(A, BilinearForm.identity(3))


def _milnor(n: int, h_scale: float) -> MetricAlgebra:
    h = np.zeros(n)
    h[0] = h_scale
    M, _ = build_milnor(MilnorSpec(int(n), h))
    return M


def _nilpotent_a0() -> AlgebraStructure:
    return _alg(2, {(0, 0, 1): 1.0}, "nilpotent_A0")


def _trace_free(A: AlgebraStructure, tol: Tolerance) -> Check:
    worst, at = _worst(_traces(A.constants))
    return Check("trace-free multiplications", worst, tol.eps * residual_scale(A.constants), at)


def _khess_r2_koszul(p: dict) -> np.ndarray:
    mu = (p["y"] ** 2 / 4.0 - 1.0) / p["k"]
    return np.diag([3.0 * p["y"] * p["lam"] * (p["y"] + 2.0) / (4.0 * mu), 1.5 * p["y"] ** 2])


_PI = math.pi

_ENTRIES: tuple[CatalogEntry, ...] = (
    CatalogEntry(
        name="rn_canonical",
        params=(ParamSpec("n", 3, 1, 6, integer=True),),
        builder=_rn_canonical,
        expected_koszul=lambda p: np.eye(int(p["n"])),
        expected_signature=lambda p: (0, int(p["n"]) - 1, float(p["n"])),
    ),
    CatalogEntry(
        name="lspk_dim2",
        params=(),
        builder=_lspk_dim2,
        expected_koszul=lambda p: 1.5 * np.eye(2),
        expected_signature=lambda p: (1, 0, 1.5),
    ),
    CatalogEntry(
        name="lspk_dim3_case1",
        params=(ParamSpec("lam", 1.0, -3.0, 3.0),),
        builder=_lspk_dim3_case1,
        expected_koszul=lambda p: 2.0 * np.eye(3),
        expected_signature=lambda p: (2, 0, 2.0),
    ),
    CatalogEntry(
        name="lspk_dim3_case2",
        params=(ParamSpec("theta", _PI / 3.0, 0.0, 2.0 * _PI),),
        builder=_lspk_dim3_case2,
        expected_koszul=lambda p: 3.0 * np.eye(3),
        expected_signature=lambda p: (0, 2, 3.0),
    ),
    CatalogEntry(
        name="lspk_dim3_case3",
        params=(ParamSpec("sign", 1.0, choices=(-1.0, 1.0)),),
        builder=_lspk_dim3_case3,
        expected_koszul=lambda p: 2.5 * np.eye(3),
        expected_signature=lambda p: (1, 1, 2.5),
    ),
    CatalogEntry(
        name="lspk_dim4",
        params=(
            ParamSpec("alpha_sign", 1.0, choices=(-1.0, 1.0)),
            ParamSpec("beta", 0.7, -3.0, 3.0),
            ParamSpec("lam", 1.3, 0.05, 3.0),
        ),
        builder=_lspk_dim4,
        expected_koszul=lambda p: 3.0 * np.eye(4),
        expected_signature=lambda p: (2, 1, 3.0),
    ),
    CatalogEntry(
        name="lspk_dim5",
        params=(
            ParamSpec("branch", 3, choices=(1, 2, 3, 4)),
            ParamSpec("beta", 0.5, -3.0, 3.0),
            ParamSpec("lam", 1.0, 0.05, 3.0),
        ),
        builder=_lspk_dim5,
        expected_koszul=lambda p: 3.5 * np.eye(5),
        expected_signature=lambda p: (3, 1, 3.5),
    ),
    CatalogEntry(
        name="khess_kdim2_f1",
        params=(
            ParamSpec("k", -1.0, -5.0, -0.05),
            ParamSpec("theta", _PI / 3.0, 0.0, 2.0 * _PI),
        ),
        builder=lambda k, theta: kdim2_family(k, theta, family=1),
        expected_koszul=lambda p: np.zeros((2, 2)),
        expected_k=lambda p: p["k"],
        extra_checks=(_trace_free,),
    ),
    CatalogEntry(
        name="khess_kdim2_f2",
        params=(
            ParamSpec("k", -1.0, -5.0, -0.05),
            ParamSpec("theta", _PI / 3.0, 0.0, 2.0 * _PI),
        ),
        builder=lambda k, theta: kdim2_family(k, theta, family=2),
        expected_koszul=lambda p: np.zeros((2, 2)),
        expected_k=lambda p: p["k"],
        extra_checks=(_trace_free, check_commutative),
    ),
    CatalogEntry(
        name="khess_r2_example",
        params=(
            ParamSpec("lam", 1.0, 0.25, 2.0),
            ParamSpec("y", 3.0, 2.5, 4.0),
            ParamSpec("k", 2.0, 0.5, 3.0),
        ),
        builder=_khess_r2_example,
        expected_koszul=_khess_r2_koszul,
        expected_k=lambda p: p["k"],
    ),
    CatalogEntry(
        name="khess_r3_commutative",
        params=(),
        builder=_khess_r3_commutative,
        expected_k=lambda p: -1.0,
        extra_checks=(check_commutative,),
    ),
    CatalogEntry(
        name="milnor",
        params=(
            ParamSpec("n", 3, 2, 6, integer=True),
            ParamSpec("h_scale", 2.0, 0.25, 3.0),
        ),
        builder=_milnor,
        expected_koszul=lambda p: np.zeros((int(p["n"]), int(p["n"]))),
        expected_k=lambda p: -float(p["h_scale"]) ** 2,
    ),
    CatalogEntry(
        name="nilpotent_A0",
        params=(),
        builder=_nilpotent_a0,
        expected_koszul=lambda p: np.zeros((2, 2)),
    ),
)

_REGISTRY: dict[str, CatalogEntry] = {e.name: e for e in _ENTRIES}


def catalog_list() -> list[str]:
    """Names of all registered entries, in registry order."""
    return [e.name for e in _ENTRIES]


def catalog_entry(name: str) -> CatalogEntry:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownEntry(f"no catalog entry named {name!r}") from None


def catalog_build(name: str, params: dict | None = None):
    """Build an entry; returns AlgebraStructure or MetricAlgebra."""
    return catalog_entry(name).build(params)


def _parts(built) -> tuple[AlgebraStructure, BilinearForm | None]:
    """(algebra, metric) of a built entry; the metric is None for a bare algebra."""
    if isinstance(built, MetricAlgebra):
        return built.algebra, built.metric
    return built, None


def catalog_verify(name: str, params: dict | None = None, tol: Tolerance = Tolerance()) -> Check:
    """Rebuild an entry and replay its declared predicate suite.

    Raises FixtureBroken naming the first failing predicate; on success it
    returns the conjunction of the suite's checks, those of decompose included.
    """
    entry = catalog_entry(name)
    resolved = entry.resolve(params)
    built = entry.builder(**resolved)
    A, metric = _parts(built)
    checks: list[Check] = []

    def run(check: Check, predicate: str | None = None) -> None:
        checks.append(check)
        if not check:
            raise FixtureBroken(name, predicate or check.name, check.residual)

    if entry.expected_koszul is not None:
        want = entry.expected_koszul(resolved)
        worst, at = _worst(koszul_form(A).matrix - want)
        run(Check("koszul match", worst, tol.eps * residual_scale(A.constants, want), at))

    if entry.expected_signature is not None:
        # decompose certifies left symmetry and the definite trace form itself
        n1, n2, rho = entry.expected_signature(resolved)
        try:
            dec = decompose(A, tol)
        except ResidualError as exc:
            raise FixtureBroken(name, exc.name, exc.residual) from exc
        got = dec.signature[:2]
        mismatch = float(max(abs(got[0] - n1), abs(got[1] - n2)))
        run(Check("signature", mismatch, 0.0), f"signature {got} != {(n1, n2)}")
        run(Check("rho match", abs(dec.rho - rho), tol.eps * residual_scale(rho)))
        checks.extend(dec.checks)
    elif entry.expected_k is not None:
        assert metric is not None
        run(check_k_hessian(A, metric, entry.expected_k(resolved), tol), "k-hessian")
    else:  # neither invariant declared: a nilpotent entry
        run(check_left_symmetric(A, tol))

    for extra in entry.extra_checks:
        run(extra(A, tol))

    return _conjunction(checks)


def sample_params(name: str, rng: np.random.Generator) -> dict:
    """Draw one in-range parameter dict for an entry."""
    return {spec.name: spec.sample(rng) for spec in catalog_entry(name).params}


def sl2_bracket() -> AlgebraStructure:
    """The simple three-dimensional bracket (not solvable), as a product."""
    C = np.zeros((3, 3, 3))
    C[2, 0, 0] = 2.0  # [h, e] = 2e
    C[0, 2, 0] = -2.0
    C[2, 1, 1] = -2.0  # [h, f] = -2f
    C[1, 2, 1] = 2.0
    C[0, 1, 2] = 1.0  # [e, f] = h
    C[1, 0, 2] = -1.0
    return AlgebraStructure(C, name="sl2")
