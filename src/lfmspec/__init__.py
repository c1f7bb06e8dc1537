"""Spectra of composition operators induced by linear fractional self-maps
of the complex unit ball, with classification, normal forms, and a
truncated-power-series numerical oracle."""

from .errors import (
    BallMapError,
    DenominatorVanishes,
    DimensionMismatch,
    GapEigenvalue,
    MapFormatError,
    MultipleBoundaryFixedPoints,
    NoBoundaryFixedPoint,
    NoQualifyingBoundaryPoint,
    NotAFixedPoint,
    NotASelfMap,
    NumericalInconsistency,
    ParameterConstraintViolated,
    PointNotInterior,
    SizeCapExceeded,
    UnsupportedAutomorphism,
    UnsupportedMapClass,
    UnsupportedParabolic,
    ZeroConstantTerm,
    ZeroFunction,
)
from .maps import (
    FixedPoint,
    FixedPointSet,
    HalfPlaneMap,
    LinearFractionalMap,
    ValidationReport,
    ball_automorphism_to_origin,
    compose,
    conjugate_to_halfplane,
    conjugated,
    evaluate,
    fixed_points,
    inverse,
    is_automorphism,
    iterate_matrix,
    map_from_json_dict,
    map_to_json_dict,
    unitary_map,
    validate_self_map,
)
from .classify import (
    Classification,
    EllipticP0Form,
    EllipticSpectralData,
    HyperbolicNormalForm,
    MapClass,
    classify,
)
from .spectra import (
    Annulus,
    Circle,
    ClosedDisk,
    EssentialRadiusEstimate,
    Point,
    PointFamily,
    SpectralSet,
    essential_radius_closed_form,
    essential_radius_estimate,
    spectral_radius,
    spectrum,
)
from .series import (
    Compression,
    TruncatedSeries,
    basis_multi_indices,
    binomial_series,
    build_compression,
    compression_spectrum,
    eigenfunction_residual,
    monomial_norm_sq,
    norm_equivalence_interval,
    series_from_vector,
    sobolev_norm_sq,
    weighted_norm_sq,
)

__version__ = "0.1.0"
