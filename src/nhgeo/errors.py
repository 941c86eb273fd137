"""Exception types shared across the package."""


class NHGeoError(Exception):
    """Base class for all nhgeo errors."""


class ConfigError(NHGeoError):
    """Invalid or missing run configuration."""


class DegeneratePointError(NHGeoError):
    """Gapless point of a pseudospin model (d.d below tolerance)."""


class ExceptionalPointError(NHGeoError):
    """Eigenvalue gap below tolerance; 1/(e_n - e_m) formulas are invalid.

    ``points`` optionally carries the offending (kx, ky) pairs when the
    error was aggregated over a grid.
    """

    def __init__(self, msg, points=None):
        super().__init__(msg)
        self.points = points if points is not None else []


class NonConvergenceError(NHGeoError):
    """Dense eigensolver failed to converge."""


class NonFiniteError(NHGeoError):
    """A computed quantity is NaN or infinite."""


class ProportionalityError(NHGeoError):
    """Keldysh self-energy outside its declared proportionality class."""


class IllConditionedError(NHGeoError):
    """Overlap matrix condition number too large (near-exceptional point)."""


class GaugeLockError(NHGeoError):
    """Finite-difference stencil overlap too small to lock the gauge."""


class NonRealCurvatureError(NHGeoError):
    """Imaginary residue of the Berry curvature exceeds tolerance."""


class LinkCollapseError(NHGeoError):
    """A biorthogonal plaquette link has near-zero magnitude."""


class NonIntegerResidueError(NHGeoError):
    """Plaquette phase sum does not round cleanly to 2*pi*integer."""


class BoundViolationError(NHGeoError):
    """A local inequality failed beyond floating-point tolerance."""

    def __init__(self, msg, points=None):
        super().__init__(msg)
        self.points = points if points is not None else []


class BranchViolationError(NHGeoError):
    """A complex energy difference crossed the chosen logarithm branch."""


class PoleOnAxisError(NHGeoError):
    """Undamped transition evaluated exactly on resonance."""


class NonIntegrableError(NHGeoError):
    """Keldysh integrand not integrable (zero decay on the Keldysh leg)."""


class CommutatorViolationError(NHGeoError):
    """Projected form requested but [H, Sigma] is not negligible."""


class NonHermitianInputError(NHGeoError):
    """Matrix expected to be Hermitian is not (beyond tolerance)."""


class NonHermitianTargetError(NHGeoError):
    """Jump decomposition target is not Hermitian."""
