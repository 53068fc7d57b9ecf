"""Exception types raised by the package."""


class SchurkitError(Exception):
    """Base class for all package errors."""


class InvalidProblemData(SchurkitError):
    """Interpolation data violates a structural invariant (e.g. |z1| != 1)."""


class ZeroDenominator(SchurkitError):
    """A rational function was built with the zero polynomial as denominator."""


class DegreeLimitExceeded(SchurkitError):
    """Reduced numerator or denominator degree exceeds the supported cap."""


class PoleAtExpansionPoint(SchurkitError):
    """Taylor expansion requested at (or too close to) a pole."""


class DegenerateLFT(SchurkitError):
    """The linear-fractional transform has an identically-zero denominator."""


class NonConstantDeterminant(SchurkitError):
    """Matrix inversion requires a constant nonzero determinant."""


class NotGeneralizedSchur(SchurkitError):
    """Function fails the circle-modulus bound after Blaschke factor removal."""


class BoundaryPole(SchurkitError):
    """A pole sits on (or numerically on) the unit circle."""


class PoleAtOne(SchurkitError):
    """The Cayley transform is undefined at z = 1."""


class DiagonalSingularity(SchurkitError):
    """Kernel evaluated at points with z * conj(w) too close to 1."""


class PoleProximity(SchurkitError):
    """Kernel evaluated too close to a pole of the function."""


class NotHermitian(SchurkitError):
    """Matrix asymmetry exceeds the Hermitian tolerance, or cannot be
    measured because an entry is NaN or infinite, or kernel samples would
    overflow."""


class NoAnalyticPoints(SchurkitError):
    """Pole clearance leaves no room to sample the disk."""


class NonHermitianPick(SchurkitError):
    """The structured Pick matrix is not Hermitian; the parametrization
    requires Hermitian data and no fallback is attempted."""


class SingularPick(SchurkitError):
    """The structured Pick matrix is numerically singular."""


class InadmissibleParameter(SchurkitError):
    """Parameter violates the boundary separation condition at z1."""


class VerificationError(SchurkitError):
    """A post-condition (expansion match, identity assertion) failed."""


class ModulusAtLeastOne(SchurkitError):
    """Julia quotient requested where |s(z)| >= 1."""


class NotSchur(SchurkitError):
    """Circle samples exceed modulus 1 beyond tolerance."""


class InvalidContactPoint(SchurkitError):
    """Rigidity contact point coincides with tau0 or is not unimodular."""


class HypothesisNotMet(SchurkitError):
    """Candidate fails the boundary-expansion hypothesis of the check."""
