"""Exception types shared across the package."""


class BallMapError(Exception):
    """Base class for every error raised by this package."""


class MapFormatError(BallMapError, ValueError):
    """Map JSON or constructor fields are malformed."""


class DimensionMismatch(BallMapError, ValueError):
    """Operands live in different dimensions."""


class DenominatorVanishes(BallMapError, ArithmeticError):
    """The denominator vanishes at the requested point or inside the closed ball."""


class NotASelfMap(BallMapError, ValueError):
    """The map does not send the unit ball into itself."""


class PointNotInterior(BallMapError, ValueError):
    """A point expected in the open unit ball is not."""


class NotAFixedPoint(BallMapError, ValueError):
    """A point supplied as fixed is not fixed by the map."""


class NoBoundaryFixedPoint(BallMapError):
    """The map fixes no point of the unit sphere."""


class NoQualifyingBoundaryPoint(BallMapError):
    """No boundary fixed point has dilation at most one."""


class GapEigenvalue(BallMapError):
    """A differential eigenvalue falls in the ambiguous band between
    contractive and unimodular; the unitary index is not decidable at the
    configured tolerances."""


class MultipleBoundaryFixedPoints(BallMapError):
    """More boundary fixed points were found than the theory admits here."""


class NumericalInconsistency(BallMapError):
    """An internal cross-check failed beyond tolerance."""


class ZeroConstantTerm(BallMapError, ZeroDivisionError):
    """Division by an affine series vanishing at the origin."""


class ZeroFunction(BallMapError, ValueError):
    """An operation that normalizes by a norm received the zero series."""


class SizeCapExceeded(BallMapError):
    """A truncation degree or basis size exceeds the configured cap."""


class ParameterConstraintViolated(BallMapError, ValueError):
    """Norm-scale parameters violate their admissibility constraints."""


class UnsupportedMapClass(BallMapError):
    """Base for spectrum requests outside the supported classes.

    Instances carry the classification kind and the spectral radius, which
    is available for every class even when the full spectrum is not.
    """

    def __init__(self, message: str, kind: str = "", spectral_radius: float | None = None):
        super().__init__(message)
        self.kind = kind
        self.spectral_radius = spectral_radius


class UnsupportedParabolic(UnsupportedMapClass):
    """Spectra of parabolic maps are out of scope; the spectral radius is 1."""


class UnsupportedAutomorphism(UnsupportedMapClass):
    """Spectra of non-elliptic automorphisms are out of scope."""
