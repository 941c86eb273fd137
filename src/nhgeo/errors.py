"""Exception types shared across the package."""


class NHGeoError(Exception):
    """Base class for all nhgeo errors."""


class ConfigError(NHGeoError):
    """Invalid or missing run configuration."""


class DegeneratePointError(NHGeoError):
    """Gapless point of a pseudospin model (d.d below tolerance)."""


class ExceptionalPointError(NHGeoError):
    """Eigenvalue gap below tolerance; 1/(e_n - e_m) formulas are invalid.

    ``points`` holds the batch indices of a batched eigensolve; mesh and
    stencil callers re-raise it with the sorted (kx, ky) pairs.
    """

    def __init__(self, msg, points=None):
        super().__init__(msg)
        self.points = points if points is not None else []


class NonConvergenceError(NHGeoError):
    """Dense eigensolver failed to converge."""


class NonFiniteError(NHGeoError):
    """A computed quantity is NaN or infinite."""


class IllConditionedError(NHGeoError):
    """Norm product ||R||^2 ||L||^2 too large (near-exceptional point)."""


class GaugeLockError(NHGeoError):
    """Finite-difference stencil overlap too small to lock the gauge."""


class NonRealCurvatureError(NHGeoError):
    """Imaginary residue of the Berry curvature exceeds tolerance."""


class LinkCollapseError(NHGeoError):
    """A biorthogonal plaquette link has near-zero magnitude."""


class BranchViolationError(NHGeoError):
    """A complex energy difference crossed the chosen logarithm branch."""


class PoleOnAxisError(NHGeoError):
    """Undamped transition evaluated exactly on resonance."""


class NonIntegrableError(NHGeoError):
    """Keldysh integrand not integrable (zero decay on the Keldysh leg)."""


class NonHermitianInputError(NHGeoError):
    """Matrix expected to be Hermitian is not (beyond tolerance)."""


class NonHermitianTargetError(NHGeoError):
    """Jump decomposition target is not Hermitian."""
