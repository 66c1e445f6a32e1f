"""Exception hierarchy.

Every failure a caller can act on gets its own class; all inherit from
LeftSymError so scripts can catch the whole family at once.  A certified
relation is a core.Check; core._enforce, and nothing else, raises a
ResidualError subclass for a failing one, with its name and residual; every
refusal on a measured relation is such a subclass, the others refuse arguments.
"""

from __future__ import annotations


class LeftSymError(Exception):
    """Base class for all errors raised by this package."""


class ResidualError(LeftSymError):
    """A named relation whose residual exceeds its threshold; message formats both."""

    message = "relation {name} fails, residual {residual:.3e}"

    def __init__(self, name: str, residual: float):
        super().__init__(name, residual)  # args stay (name, residual), so pickling works
        self.name = name
        self.residual = residual

    def __str__(self) -> str:
        return self.message.format(name=self.name, residual=self.residual)


class DimensionMismatch(LeftSymError):
    """An argument's shape does not match the algebra dimension."""


class SingularMatrix(LeftSymError):
    """A matrix that must be invertible is numerically singular."""


class SingularMetric(LeftSymError):
    """A metric that must be invertible is numerically singular."""


class NotAntisymmetric(ResidualError):
    """Structure constants expected to be antisymmetric are not."""

    message = "constants not antisymmetric, residual {residual:.3e}"


class NotLieBracket(ResidualError):
    """Constants fail antisymmetry or the Jacobi identity."""

    message = "not a Lie bracket: {name} fails, residual {residual:.3e}"


class NotPositiveDefinite(ResidualError):
    """A form required to be positive definite is not; residual is minus its least value."""

    message = "{name} fails, residual {residual:.3e}"


class NotSkew(ResidualError):
    """An operator required to be skew-adjoint is not."""

    message = "operator is not skew-symmetric, residual {residual:.3e}"


class PreconditionFailed(LeftSymError):
    """An argument out of range, or a trace form that overflows; see also HypothesisFailed."""


class DiagonalizationFailed(ResidualError):
    """A diagonalization-based routine could not produce a usable basis."""

    message = "no usable basis: {name} fails, residual {residual:.3e}"


class IdempotentCheckFailed(ResidualError):
    """The distinguished vector fails H*H = H beyond tolerance."""

    message = "H*H - H residual {residual:.3e} exceeds tolerance"


class SystemASViolated(ResidualError):
    """A relation of the split product system fails on the complement."""

    message = "relation {name} violated, residual {residual:.3e}"


class SpectrumNotZeroOne(ResidualError):
    """The scaling operator has eigenvalues away from {0, 1}; residual is the largest distance."""

    message = "{name}: an eigenvalue lies {residual:.3e} away from {{0, 1}}"


class Circ1NonZero(ResidualError):
    """The induced product on the eigenvalue-0 part does not vanish."""

    message = "product on the flat part nonzero, residual {residual:.3e}"


class SystemViolated(ResidualError):
    """A compatibility equation of the extracted data fails."""

    message = "equation {name} violated, residual {residual:.3e}"


class ValidationFailed(ResidualError):
    """Construction data fails its compatibility system."""

    message = "equation {name} fails, residual {residual:.3e}"


class KoszulMismatch(ResidualError):
    """A built algebra's trace form differs from the predicted one."""

    message = "trace form mismatch, residual {residual:.3e}"


class HypothesisFailed(ResidualError, PreconditionFailed):
    """A measured hypothesis of a construction recipe or an operation fails."""

    message = "hypothesis '{name}' fails, residual {residual:.3e}"


class ZeroH(ResidualError):
    """The defining vector of a pointed construction is zero; residual is minus its squared length."""

    message = "the defining vector is zero, residual {residual:.3e}"


class NoKernelVector(ResidualError):
    """No common kernel vector of the left multiplications exists; residual is the least singular value."""

    message = "no vector annihilated by every left multiplication, residual {residual:.3e}"


class VerificationFailed(ResidualError):
    """An internal cross-check that should hold by theory does not; name states it."""

    message = "{name}, residual {residual:.3e}"


class OracleMismatch(ResidualError):
    """Two independent computations of the same quantity disagree."""

    message = "{name}: independent routes disagree by {residual:.3e}"


class NotLSPK(ResidualError):
    """The algebra is not left-symmetric with positive definite trace form."""

    message = "not an LSPK algebra: {name} fails, residual {residual:.3e}"


class NotEinstein(ResidualError):
    """The tangent-bundle Ricci form is not proportional to the metric."""

    message = "Ricci not proportional to the metric, residual {residual:.3e}"


class UnknownSystem(LeftSymError):
    """No built-in polynomial system with the requested name."""


class UnknownEntry(LeftSymError):
    """No catalog entry with the requested name."""


class FixtureBroken(LeftSymError):
    """A catalog entry fails one of its declared predicates."""

    def __init__(self, name: str, predicate: str, residual: float | None = None):
        super().__init__(name, predicate, residual)  # the full args, so pickling works
        self.name = name
        self.predicate = predicate
        self.residual = residual

    def __str__(self) -> str:
        tail = "" if self.residual is None else f" (residual {self.residual:.3e})"
        return f"catalog entry '{self.name}' fails predicate '{self.predicate}'{tail}"


class ParseError(LeftSymError):
    """The input is not valid JSON."""


class SchemaError(LeftSymError):
    """The input is valid JSON but violates the algebra-file schema."""
