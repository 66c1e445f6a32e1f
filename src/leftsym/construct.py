"""Constructors: from split structure data to algebras and back.

The central object is LSPKData, the free data of the decomposition: two
Euclidean spaces with skew operators, a product on the second, and a pair
of action families.  build_lspk assembles the algebra on h1 + h2 + R H,
validates the compatibility systems first, and cross-checks the result
(left symmetry, predicted trace form) so a wrong equation can never
silently produce a broken algebra.

Also here: the two one-part shortcuts (flat part only / product part
only), and the rank-one family X * Y = <X, Y> h - <Y, h> X with its
recognizer.  The rank-one constants are rounded against core's summation
order of L_x, which makes L_h exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import permutations
from typing import TYPE_CHECKING

import numpy as np

from ._systems import system_residuals
from .core import AlgebraStructure, Check, Tolerance, mult_operator, residual_scale
from .core import _Owner, _accumulate, _conjunction, _enforce, _frozen, _max_abs, _readonly
from .errors import (
    DimensionMismatch,
    HypothesisFailed,
    KoszulMismatch,
    NoKernelVector,
    NotPositiveDefinite,
    NotSkew,
    PreconditionFailed,
    SingularMetric,
    ValidationFailed,
    VerificationFailed,
    ZeroH,
)
from .forms import (
    BilinearForm,
    MetricAlgebra,
    check_hessian,
    check_k_hessian,
    check_left_symmetric,
    is_positive_definite,
    koszul_form,
)
from .forms import _derivation_defect, _left_symmetry_worst, _metric_sectional, _paired_action, _traces

if TYPE_CHECKING:
    from .decompose import LSPKDecomposition


def _metric_field(v: np.ndarray | None, label: str, n: int) -> np.ndarray:
    """The symmetrized Gram matrix of a metric argument, checked PD; an omitted one is the identity."""
    if v is None:
        return _readonly(np.eye(n))
    form = BilinearForm(_frozen(v, label, (n, n)))
    _enforce([replace(is_positive_definite(form), name=f"positive definite {label}")], NotPositiveDefinite)
    return form.matrix


def derive_omegas(rho2: np.ndarray, g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """The pairing map omega1 determined by the action rho2 and the metrics.

    omega1 is the g2-dual of (X, Y) -> <rho2(.)X, Y>_1 symmetrized; it is
    forced, not free data.  (Its mirror omega2 is forced to zero, see _systems.)
    """
    n, m = g1.shape[0], g2.shape[0]
    if not (n and m):  # omega1 spans both parts: zero unless both are non-empty, as in _systems
        return np.zeros((n, n, m))
    rhs = _paired_action(g1, rho2)
    try:
        return np.linalg.solve(g2, rhs.reshape(-1, m).T).T.reshape(n, n, m)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric(f"second metric is singular: {exc}") from exc


@dataclass(frozen=True, eq=False)
class LSPKData(_Owner):
    """Free data of the two-part decomposition.

    Shapes: c2 (n2, n2, n2) with the same index convention as structure
    constants, rho2 (n2, n1, n1) the stack of action matrices of the second
    part on the first, omega1 (n1, n1, n2) the pairing map, b1 / b2 skew
    operators, g1 / g2 positive definite Gram matrices.  The action of the
    first part on the second and its pairing map are forced to zero (see
    _systems), so they are no fields: build_lspk leaves their blocks zero.

    Omitted pieces default to zero (operators, product) or the identity
    (metrics); an omitted omega1 is derived from rho2 and the metrics.
    Shapes, finite entries and positive definiteness of the metrics are
    enforced here; the equation systems are the business of validate_data.
    This class owns the format of the split data: _layout places each field,
    shift of the action of H included, in the algebra on h1 + h2 + R H (build_lspk
    writes through it, decompose reads through it), and rho is the law
    n1/2 + n2 + 1 that build_lspk predicts and decompose certifies.
    The fields are read-only, so the systems are measured once per data
    object and kept on it (core._Owner._kept): validate_data, data_residuals
    and build_lspk read that one measurement, each with its own threshold,
    the data that decompose certified carries decompose's measurement, and
    the data of build_corollary2 the parts of S2 it measured as hypotheses.
    """

    n1: int
    n2: int
    c2: np.ndarray | None = None
    rho2: np.ndarray | None = None
    omega1: np.ndarray | None = None
    b1: np.ndarray | None = None
    b2: np.ndarray | None = None
    g1: np.ndarray | None = None
    g2: np.ndarray | None = None

    def __post_init__(self):
        n1, n2 = self.n1, self.n2
        if n1 < 0 or n2 < 0:
            raise DimensionMismatch(f"part dimensions must be nonnegative, got {n1}, {n2}")

        def store(key: str, shape: tuple[int, ...], fallback) -> None:
            v = getattr(self, key)
            object.__setattr__(self, key, _frozen(fallback if v is None else v, key, shape))

        store("c2", (n2, n2, n2), np.zeros((n2, n2, n2)))
        store("rho2", (n2, n1, n1), np.zeros((n2, n1, n1)))
        store("b1", (n1, n1), np.zeros((n1, n1)))
        store("b2", (n2, n2), np.zeros((n2, n2)))
        object.__setattr__(self, "g1", _metric_field(self.g1, "g1", n1))
        object.__setattr__(self, "g2", _metric_field(self.g2, "g2", n2))
        derived = derive_omegas(self.rho2, self.g1, self.g2) if self.omega1 is None else None
        store("omega1", (n1, n1, n2), derived)

    @property
    def dim(self) -> int:
        return self.n1 + self.n2 + 1

    @property
    def rho(self) -> float:
        """B(H, H) of the assembled algebra, n1/2 + n2 + 1: its trace form is rho * diag(g1, g2, 1)."""
        return self.n1 / 2.0 + self.n2 + 1.0

    @staticmethod
    def _layout(n1: int, n2: int) -> tuple[tuple[str, tuple, tuple[int, ...], float], ...]:
        """(field, block, axes, shift): the block holds the field transposed by axes plus shift
        times the identity (b1, b2: the action of H on h1, h2 less 1/2, 1).  Each axes is its
        own inverse, so one transpose writes a field and reads it back."""
        s1, s2, iH = slice(0, n1), slice(n1, n1 + n2), n1 + n2
        return (
            ("c2", (s2, s2, s2), (0, 1, 2), 0.0),
            ("rho2", (s2, s1, s1), (0, 2, 1), 0.0),
            ("omega1", (s1, s1, s2), (0, 1, 2), 0.0),
            ("b1", (iH, s1, s1), (1, 0), 0.5),
            ("b2", (iH, s2, s2), (1, 0), 1.0),
        )

    @staticmethod
    def _shifted(v: np.ndarray, shift: float) -> np.ndarray:
        """v plus shift times the identity; v itself for a zero shift, so every zero keeps its sign."""
        return v + shift * np.eye(len(v)) if shift else v

    @property
    def _arrays(self) -> tuple[np.ndarray, ...]:
        """The fields in the argument order of system_residuals."""
        return (self.c2, self.rho2, self.omega1, self.b1, self.b2, self.g1, self.g2)

    def _residuals(self) -> tuple[tuple[str, float | None], ...]:
        """The (name, residual) pairs of the compatibility systems, measured on first use; S2
        folds the four parts kept under "S2" when the data's constructor measured them first."""
        return self._kept("systems", lambda: system_residuals(*self._arrays, self.__dict__.get("S2")))


def _data_checks(data: LSPKData, tol: Tolerance) -> tuple[Check, ...]:
    """The compatibility equations of the data, each against eps times the scale of the data."""
    thr = tol.eps * residual_scale(*data._arrays)
    return tuple(Check(name, residual, thr) for name, residual in data._residuals())


def data_residuals(data: LSPKData) -> dict[str, float | None]:
    """All compatibility-equation residuals of the data, by name."""
    return dict(data._residuals())


def validate_data(data: LSPKData, tol: Tolerance = Tolerance()) -> Check:
    """Whether the data satisfies its full compatibility system (their conjunction)."""
    return _conjunction(_data_checks(data, tol))


def build_lspk(data: LSPKData, tol: Tolerance = Tolerance(), name: str = "") -> AlgebraStructure:
    """Assemble the algebra on h1 + h2 + R H from validated data.

    Basis order is (h1 basis, h2 basis, H), and every field sits in its
    block of LSPKData._layout.  The result is cross-checked: it must be
    left-symmetric and its trace form must equal data.rho * diag(g1, g2, 1).
    """
    _enforce(_data_checks(data, tol), ValidationFailed)

    n1, n2 = data.n1, data.n2
    n = data.dim
    s1, s2, iH = slice(0, n1), slice(n1, n1 + n2), n - 1
    c = np.zeros((n, n, n))
    for key, block, axes, shift in LSPKData._layout(n1, n2):
        c[block] = LSPKData._shifted(getattr(data, key), shift).transpose(axes)
    c[s1, s1, iH] = data.g1
    c[s2, s2, iH] = data.g2
    c[s2, iH, s2] = np.eye(n2)
    c[iH, iH, iH] = 1.0
    A = AlgebraStructure(c, name=name)

    flat = check_left_symmetric(A, tol)
    _enforce([replace(flat, name="assembled product is not left-symmetric")], VerificationFailed)
    predicted = np.zeros((n, n))
    predicted[s1, s1] = data.rho * data.g1
    predicted[s2, s2] = data.rho * data.g2
    predicted[iH, iH] = data.rho
    resid = _max_abs(koszul_form(A).matrix - predicted)
    _enforce([Check("trace_form", resid, tol.eps * residual_scale(c, predicted))], KoszulMismatch)
    return A


def data_from_decomposition(dec: LSPKDecomposition) -> LSPKData:
    """The construction data that decompose read off its frame and certified (identity metrics);
    build_lspk of it reads the measurement of the systems that decompose made."""
    return dec.data


def build_corollary1(
    n: int, skew: np.ndarray | None = None, tol: Tolerance = Tolerance()
) -> AlgebraStructure:
    """The algebra with flat part R^n only: X*Y = <X,Y>H, H*X = X/2 + DX.

    D (the skew argument) defaults to zero and must be skew-symmetric.
    The trace form comes out as (n/2 + 1) times the identity.
    """
    if n < 0:
        raise DimensionMismatch(f"part dimension must be nonnegative, got {n}")
    d = _frozen(np.zeros((n, n)) if skew is None else skew, "skew operator", (n, n))
    _enforce([Check("skew", _max_abs(d + d.T), tol.eps * residual_scale(d))], NotSkew)
    return build_lspk(LSPKData(n1=n, n2=0, b1=d), tol, name=f"flatpart{n}")


def build_corollary2(
    h: MetricAlgebra, skew: np.ndarray | None = None, tol: Tolerance = Tolerance()
) -> AlgebraStructure:
    """The algebra with product part only: X*Y = X.Y + <X,Y>H, H*X = X + DX.

    The input must carry trace-free left multiplications, the metric
    compatibility, the sectional identity with constant -1, and D must be
    a skew derivation; each hypothesis failure is reported by name.  The data
    keeps these measurements as the parts of its S2, so the n^5 sectional
    kernel runs once on c (and once on the assembled algebra).
    """
    n = h.dim
    A, g = h.algebra, h.metric.matrix
    c = A.constants
    d = _frozen(np.zeros((n, n)) if skew is None else skew, "skew operator", (n, n))

    thr = tol.eps * residual_scale(c, g, d)

    trace_free = _max_abs(_traces(c))
    _enforce([Check("trace_free", trace_free, thr)], HypothesisFailed)
    hessian = check_hessian(A, h.metric, tol)
    _enforce([hessian], HypothesisFailed)

    gd = g @ d
    sectional = _left_symmetry_worst(c, _metric_sectional(g, -1.0))[0]
    derivation = _max_abs(_derivation_defect(d, c))
    hypotheses = (
        Check("sectional", sectional, thr),
        Check("skew", _max_abs(gd + gd.T), thr),
        Check("derivation", derivation, thr),
    )
    _enforce(hypotheses, HypothesisFailed)

    data = LSPKData(n1=0, n2=n, c2=c, b2=d, g2=g)
    data._kept("S2", lambda: (hessian.residual, sectional, derivation, trace_free))  # the parts of its S2
    label = f"{A.name}+H" if A.name else "productpart"
    return build_lspk(data, tol, name=label)


@dataclass(frozen=True, eq=False)
class MilnorSpec:
    """Input for the rank-one family X*Y = <X,Y>h - <Y,h>X.

    The metric defaults to the identity and must be positive definite;
    the vector h must be nonzero (its squared length sets k = -|h|^2).
    """

    dim: int
    h_vec: np.ndarray
    metric: np.ndarray | None = None

    def __post_init__(self):
        n = self.dim
        if n <= 0:
            raise DimensionMismatch(f"dimension must be positive, got {n}")
        object.__setattr__(self, "h_vec", _frozen(self.h_vec, "h_vec", (n,)))
        object.__setattr__(self, "metric", _metric_field(self.metric, "metric", n))


def _rank_one_constants(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """C[i,j,k] = g_ij h_k - (g h)_j delta_ik: the constants of X*Y = <X,Y>h - <Y,h>X."""
    return np.einsum("ij,k->ijk", g, h) - np.einsum("j,ik->ijk", g @ h, np.eye(h.shape[0]))


def _stepped(x: float, m: int) -> float:
    for _ in range(abs(m)):
        x = np.nextafter(x, np.inf if m > 0 else -np.inf)
    return x


_STRIDES = (0,) + tuple(s * v for v in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
                        for s in (1, -1))


def _annihilate_column(h: np.ndarray, col: np.ndarray, configs) -> bool:
    """Round col within a few ulp so the h-contraction cancels bitwise.

    The identity sum_i h_i col_i = 0 holds in exact arithmetic but not
    after assembly rounding.  The last summand enters through a single
    float addition, and near total cancellation that addition is exact, so
    nudging the entry at one late index (plus, when needed, stirring the
    low bits of an earlier partial sum through a second index) reaches an
    exactly zero float sum.
    """
    base = col.copy()
    for ia, ib in configs:
        col[:] = base
        orig_b = col[ib] if ib is not None else None
        for mb in _STRIDES:
            if ib is not None:
                col[ib] = _stepped(orig_b, mb)
            elif mb != 0:
                break
            d = _accumulate(h, col)
            if d == 0.0:
                return True
            x0 = col[ia] - d / h[ia]
            for pos in range(31):
                m = (pos + 1) // 2 * (1 if pos % 2 else -1)
                col[ia] = _stepped(x0, m)
                if _accumulate(h, col) == 0.0:
                    return True
            col[ia] = base[ia]
    col[:] = base
    return False


def _annihilate(c: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Round c, column by column, so that L_h = core._accumulate(h, c) is exactly zero."""
    c = np.array(c)
    n = h.shape[0]
    active = [i for i in range(n) if h[i] != 0.0]
    if not active:
        return c
    if len(active) == 1:
        configs = [(active[0], None)]
    else:
        configs = list(permutations(active[::-1][:4], 2))
    for j, k in zip(*np.nonzero(_accumulate(h, c))):
        _annihilate_column(h, c[:, j, k], configs)
    return c


def build_milnor(spec: MilnorSpec, tol: Tolerance = Tolerance()) -> tuple[MetricAlgebra, float]:
    """The rank-one algebra of the spec, together with its constant k.

    Returns (M, k) with k = -<h, h> < 0; the construction is cross-checked
    against the defining identities before returning.  The rounding of the
    stored constants is picked so that multiplication by h vanishes not
    just within tolerance but exactly, matching the structural role of h.
    """
    g, h = spec.metric, spec.h_vec
    k = -float(h @ (g @ h))
    _enforce([Check("<h, h> > 0", k, -tol.eps * residual_scale(g, h))], ZeroH)  # k = -<h, h>
    c = _annihilate(_rank_one_constants(g, h), h)
    A = AlgebraStructure(c, name=f"rankone{spec.dim}")
    lh = _max_abs(mult_operator(A, h))
    thr = tol.eps * residual_scale(c, h)
    _enforce([Check("left multiplication by h does not vanish", lh, thr)], VerificationFailed)
    identities = check_k_hessian(A, BilinearForm(g), k, tol)
    _enforce([replace(identities, name="constructed algebra fails its defining identities")],
             VerificationFailed)
    return MetricAlgebra(A, BilinearForm(g)), k


def recognize_milnor(M: MetricAlgebra, k: float, tol: Tolerance = Tolerance()) -> np.ndarray:
    """Recover h with X*Y = <X,Y>h - <Y,h>X from a k-Hessian algebra, k < 0.

    Looks for a kernel vector of x -> L_x (singular vectors in ascending
    order), rescales it to squared length -k, and accepts a sign that
    reproduces the structure constants exactly.
    """
    if k >= 0:
        raise PreconditionFailed(f"requires k < 0, got {k}")
    _enforce([check_k_hessian(M.algebra, M.metric, k, tol)], HypothesisFailed)
    c = M.algebra.constants
    g = M.metric.matrix
    n = M.dim
    scale = residual_scale(c, g)
    thr = tol.eps * scale

    m = c.transpose(1, 2, 0).reshape(n * n, n)
    _, sigma, vt = np.linalg.svd(m)
    sigma = np.concatenate([sigma, np.zeros(n - sigma.size)])
    relation = "kernel vector does not reproduce the structure constants"
    best = Check(relation, np.inf, thr)
    for idx in np.argsort(sigma):
        u = vt[idx]
        norm2 = float(u @ g @ u)
        if norm2 <= 0:
            continue
        base = u * np.sqrt(-k / norm2)
        for h in (base, -base):
            found = Check(relation, _max_abs(c - _rank_one_constants(g, h)), thr)
            if found:
                return h
            best = min(best, found, key=lambda f: f.residual)
        if sigma[idx] > thr:
            # no later candidate is closer to the kernel; stop early
            break
    _enforce([Check("kernel vector", float(np.min(sigma)), thr)], NoKernelVector)
    _enforce([best], VerificationFailed)  # raises: every candidate above failed


def kdim2_family(
    k: float, theta: float, family: int = 1, tol: Tolerance = Tolerance()
) -> MetricAlgebra:
    """The two one-parameter families of planar trace-free k-Hessian algebras.

    family 1 is the rank-one branch, family 2 the commutative branch; both
    need k < 0 and are returned with the identity metric.  The result is
    verified against the defining identities before returning.
    """
    if k >= 0:
        raise PreconditionFailed(f"the planar families require k < 0, got {k}")
    if family not in (1, 2):
        raise ValueError(f"family must be 1 or 2, got {family}")
    r = np.sqrt(-k)
    c = np.zeros((2, 2, 2))
    if family == 1:
        c[0, 0, 1] = -r * np.cos(theta)
        c[0, 1, 0] = r * np.cos(theta)
        c[1, 0, 1] = -r * np.sin(theta)
        c[1, 1, 0] = r * np.sin(theta)
    else:
        b = r * np.cos(theta) / np.sqrt(2.0)
        y = r * np.sin(theta) / np.sqrt(2.0)
        c[0, 0, 0] = -y
        c[0, 0, 1] = b
        c[0, 1, 0] = b
        c[0, 1, 1] = y
        c[1, 0, 0] = b
        c[1, 0, 1] = y
        c[1, 1, 0] = y
        c[1, 1, 1] = -b
    A = AlgebraStructure(c, name=f"planar{family}")
    traces = _max_abs(_traces(c))
    thr = tol.eps * residual_scale(c)
    _enforce([Check("left multiplications are not trace-free", traces, thr)], VerificationFailed)
    identities = check_k_hessian(A, BilinearForm.identity(2), k, tol)
    _enforce([replace(identities, name="planar family fails its defining identities")],
             VerificationFailed)
    return MetricAlgebra(A, BilinearForm.identity(2))
