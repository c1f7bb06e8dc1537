"""Linear fractional self-maps of the complex unit ball.

A map acts as ``phi(z) = (A z + B) / (<z, C> + d)`` on column vectors
``z`` in C^N, where ``<z, C> = sum_j z_j * conj(C_j)``.  Every map is
identified with its associated (N+1) x (N+1) matrix

    [ A      B ]
    [ C^*    d ]

acting projectively on (z, 1); composition of maps is the matrix product.
Maps are normalized at construction so the associated matrix has unit
Frobenius norm and ``d`` is real and positive, which makes equality of
maps testable and keeps iterate matrices well scaled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DenominatorVanishes,
    DimensionMismatch,
    MapFormatError,
    MultipleBoundaryFixedPoints,
    NoBoundaryFixedPoint,
    NoQualifyingBoundaryPoint,
    NumericalInconsistency,
    ParameterConstraintViolated,
    PointNotInterior,
)

__all__ = [
    "TOLERANCES",
    "LinearFractionalMap",
    "HalfPlaneMap",
    "evaluate",
    "compose",
    "fixed_points",
    "is_automorphism",
    "validate_self_map",
    "ball_automorphism_to_origin",
    "unitary_map",
    "inverse",
    "conjugated",
    "map_to_json_dict",
    "map_from_json_dict",
]


@dataclass(frozen=True)
class Tolerances:
    """The decision thresholds, each named by the question it decides; every
    module reads the one instance ``TOLERANCES``.  Self-map validation is
    tighter than the 1e-8 bands because its J-form certificate gives sup |phi|
    to about 1e-13 relative (eps / (d - |C|) when the denominator nearly
    vanishes on the ball).  An algorithm's own precision constants, such as
    the error-bound factors of ``fixed_points``, stay local with a comment."""

    denominator_margin: float = 1e-12  # d - |C| at most this: the denominator vanishes on the closed ball
    on_sphere: float = 1e-8  # ||z| - 1| at most this: a fixed point lies on the sphere
    fixed_point: float = 1e-8  # |phi(z) - z| above this: a point given as fixed is not
    parabolic_band: float = 1e-8  # a boundary dilation within this of 1 counts as 1
    automorphism: float = 1e-9  # |m* J m - lambda J| / |m* J m| at most this: an automorphism
    self_map: float = 1e-9  # sup |phi| at most 1 + this: a self-map
    conjugacy: float = 1e-10  # |K M - c T K| / |K M| above this: a normal form's chain K fails to conjugate
    unimodular: float = 1e-8  # ||lambda| - 1| at most this: lambda (or delta) is unimodular
    contractive_gap: float = 1e-6  # |lambda| below 1 - this: lambda is contractive
    root_of_unity_order: int = 64  # largest q tried for lambda^q = 1
    root_of_unity_angle: float = 1e-9  # |arg(lambda) / 2pi - p/q| at most this: lambda^q = 1
    membership: float = 1e-8  # default distance at which a point lies in a spectral set
    spectrum_tail: float = 1e-12  # default modulus below which eigenvalue products are left out
    eigen_residual: float = 1e-8  # default residual up to which verify-eigen passes an eigenpair
    eigenvalue_resonance: float = 1e-8  # |mu - lambda| at most this times max(|mu|, |lambda|): two degrees resonate
    block_eigenpair_residual: float = 1e-12  # some unit block eigenpair has ||M v - lambda v|| above this: solve M whole


TOLERANCES = Tolerances()


def _inner(u: np.ndarray, v: np.ndarray) -> complex:
    """Hermitian inner product <u, v> = sum u_j conj(v_j)."""
    return complex(np.vdot(v, u))


def _spectral_order(eigs: np.ndarray) -> np.ndarray:
    """Decreasing modulus (hypot, as abs() of one entry), ties by real then imaginary part.
    When the sorted moduli strictly decrease the other keys never count, so one stable
    argsort gives the three-key lexsort's order; ties and NaN take that lexsort."""
    key = -np.hypot(eigs.real, eigs.imag)
    order = np.argsort(key, kind="stable")
    ranked = key[order]
    return order if (ranked[1:] > ranked[:-1]).all() else np.lexsort((eigs.imag, eigs.real, key))


class LinearFractionalMap:
    """Immutable linear fractional map of the unit ball of C^N.

    Parameters are coerced to complex arrays: ``a`` is N x N, ``b`` and
    ``c`` are length-N vectors, ``d`` a scalar.  The denominator
    ``<z, C> + d`` must be nonvanishing on the closed ball, which after
    normalization is exactly ``d > |C|``; constructors reject inputs that
    violate it, and non-finite entries.  ``matrix`` is the normalized
    associated matrix; it and ``c`` are read-only, and ``a`` and ``b`` are
    read-only views of it.
    """

    __slots__ = ("n", "matrix", "a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        a = np.asarray(a, dtype=complex)
        b = np.asarray(b, dtype=complex).reshape(-1)
        c = np.asarray(c, dtype=complex).reshape(-1)
        d = complex(d)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise MapFormatError("matrix block must be square, got shape %r" % (a.shape,))
        n = a.shape[0]
        if b.shape != (n,) or c.shape != (n,):
            raise MapFormatError("vector blocks must have length %d" % n)
        m = np.zeros((n + 1, n + 1), dtype=complex)
        m[:n, :n] = a
        m[:n, n] = b
        m[n, :n] = np.conj(c)
        m[n, n] = d
        if not np.all(np.isfinite(m)):
            raise MapFormatError("map entries must be finite numbers")
        # scale by the power of two nearest the largest entry first: exact, and
        # the norm neither overflows nor underflows at the ends of the float range
        parts = m.view(float)
        _, exp = np.frexp(np.max(np.abs(parts)))
        np.ldexp(parts, -exp, out=parts)
        if not np.any(parts):
            raise MapFormatError("all blocks are zero")
        if abs(m[n, n]) > 0:
            m *= np.conj(m[n, n]) / abs(m[n, n])
        m /= np.linalg.norm(m)
        dn = m[n, n].real
        if dn - np.linalg.norm(m[n, :n]) <= TOLERANCES.denominator_margin:
            raise DenominatorVanishes(
                "denominator vanishes on the closed ball (need d > |C| after normalization)"
            )
        m[n, n] = dn
        m.flags.writeable = False
        c = np.conj(m[n, :n])
        c.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "a", m[:n, :n])
        object.__setattr__(self, "b", m[:n, n])
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", float(dn))

    def __setattr__(self, name, value):
        raise AttributeError("LinearFractionalMap is immutable")

    @classmethod
    def from_matrix(cls, m) -> "LinearFractionalMap":
        """Build a map from an (N+1) x (N+1) associated matrix."""
        m = np.asarray(m, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
            raise MapFormatError("associated matrix must be square of size >= 2")
        n = m.shape[0] - 1
        return cls(m[:n, :n], m[:n, n], np.conj(m[n, :n]), m[n, n])

    @property
    def denominator_margin(self) -> float:
        """min over the closed ball of |<z,C> + d|, equal to d - |C|."""
        return float(self.d - np.linalg.norm(self.c))

    def __call__(self, z) -> np.ndarray:
        return evaluate(self, z)


def unitary_map(u) -> LinearFractionalMap:
    """The rotation z -> U z for a unitary U."""
    u = np.asarray(u, dtype=complex)
    n = u.shape[0]
    if not np.allclose(u.conj().T @ u, np.eye(n), atol=1e-10):
        raise MapFormatError("matrix is not unitary")
    return LinearFractionalMap(u, np.zeros(n), np.zeros(n), 1.0)


def _point(f: LinearFractionalMap, z) -> tuple[np.ndarray, complex]:
    """z as a point of C^N and the denominator <z, C> + d there, refused
    when z has another dimension or the denominator is about 0."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    if z.shape != (f.n,):
        raise DimensionMismatch("point has dimension %d, map has %d" % (z.size, f.n))
    den = _inner(z, f.c) + f.d
    if abs(den) < 1e-13:
        raise DenominatorVanishes("denominator ~ 0 at the requested point")
    return z, den


def evaluate(f: LinearFractionalMap, z) -> np.ndarray:
    """Apply the map at a point of C^N (not restricted to the ball)."""
    z, den = _point(f, z)
    return (f.a @ z + f.b) / den


def compose(f: LinearFractionalMap, g: LinearFractionalMap) -> LinearFractionalMap:
    """The composition f o g, computed as the associated matrix product."""
    if f.n != g.n:
        raise DimensionMismatch("cannot compose maps of dimensions %d and %d" % (f.n, g.n))
    return LinearFractionalMap.from_matrix(f.matrix @ g.matrix)


def inverse(f: LinearFractionalMap) -> LinearFractionalMap:
    """Projective inverse (a ball self-map only when f is an automorphism)."""
    return LinearFractionalMap.from_matrix(np.linalg.inv(f.matrix))


def conjugated(f: LinearFractionalMap, s: LinearFractionalMap) -> LinearFractionalMap:
    """The conjugate s^(-1) o f o s."""
    if f.n != s.n:
        raise DimensionMismatch("conjugating map has the wrong dimension")
    sm = s.matrix
    return LinearFractionalMap.from_matrix(np.linalg.inv(sm) @ f.matrix @ sm)


def _jacobian(f: LinearFractionalMap, z) -> np.ndarray:
    """Holomorphic Jacobian matrix (d phi_i / d z_j) at z."""
    z, den = _point(f, z)
    num = f.a @ z + f.b
    return f.a / den - np.outer(num, np.conj(f.c)) / (den * den)


# ---------------------------------------------------------------------------
# fixed points


@dataclass(frozen=True)
class FixedPoint:
    """An affine fixed point with its location class.

    ``dilation`` is the boundary dilation coefficient
    Re <dphi_tau(tau), tau>; it is populated for boundary points only and
    equals the Denjoy-Wolff alpha when the point is attracting.
    """

    location: np.ndarray
    kind: str  # "interior" | "boundary" | "exterior"
    dilation: float | None = None


@dataclass(frozen=True)
class FixedPointSet:
    """All fixed points of a map, with positive-dimensional sets flagged.

    ``points`` holds isolated affine fixed points, sorted interior first,
    then boundary, then exterior; a boundary point is one within its own
    error bound of the sphere (see ``fixed_points``), scaled onto it.  When
    an eigenvalue group of the associated matrix yields a whole affine slice
    of fixed points that crosses the open ball, the slice is reported via
    ``slice_dim`` / ``slice_point`` (a minimum-norm representative) instead
    of being enumerated; ``whole_ball`` marks the identity-like case.  Projective
    fixed points with vanishing final coordinate are listed in
    ``at_infinity`` as unit direction vectors (diagnostic only).
    """

    points: tuple[FixedPoint, ...]
    at_infinity: tuple[np.ndarray, ...] = ()
    slice_dim: int | None = None
    slice_point: np.ndarray | None = None
    whole_ball: bool = False

    def interior_point(self) -> np.ndarray | None:
        """Some interior fixed point, if one exists (slice representative
        included); None otherwise."""
        if self.slice_point is not None and np.linalg.norm(self.slice_point) < 1.0 - TOLERANCES.on_sphere:
            return self.slice_point
        for p in self.points:
            if p.kind == "interior":
                return p.location
        return None

    def boundary_points(self) -> tuple[FixedPoint, ...]:
        return tuple(p for p in self.points if p.kind == "boundary")


def _boundary_dilation(f: LinearFractionalMap, tau: np.ndarray) -> float:
    jt = _jacobian(f, tau) @ tau
    val = _inner(jt, tau)
    return float(val.real)


def fixed_points(f: LinearFractionalMap) -> FixedPointSet:
    """All fixed points of the map, read off one eigendecomposition of the
    associated matrix m.

    An eigenvector (v, t) of m gives the affine fixed point v / t, or for
    t ~ 0 a fixed point at infinity.  Rounding moves an eigenvalue of m
    (|m| = 1) by about eps * kappa, kappa its condition number from the rows
    of V^-1 (the left eigenvectors).  A simple eigenvalue gives its point from
    its own eigenvector, on the sphere when ||z| - 1| is within that
    eigenvector's error bound.  Eigenvalues whose gap lies within the bound
    of both may be one that rounding split (a Jordan block, or an eigenspace
    of several dimensions): such a group reads the null space of m - lambda I
    at its mean, and its points lie on the sphere within
    ``TOLERANCES.on_sphere``.
    """
    n = f.n
    m = f.matrix
    eps = np.finfo(float).eps
    lams, vecs = np.linalg.eig(m)
    # |row i of V^-1| for the unit columns of V; V's singular values are floored
    # at eps, so a Jordan block, where V is singular, keeps a finite kappa near 1 / eps
    _, sv, vh = np.linalg.svd(vecs)
    kappa = np.linalg.norm(vh.conj().T / np.maximum(sv, eps * sv[0]), axis=1)
    gaps = np.abs(lams[:, None] - lams)
    # 16: a conjugated parabolic map's Jordan pair splits by up to about 6.5 eps * kappa
    reach = gaps <= 16.0 * eps * np.minimum(kappa[:, None], kappa)
    for _ in range(n):  # k squarings join chains of 2^k steps
        reach = reach @ reach
    labels = reach.argmax(axis=1).tolist()  # each eigenvalue's group, named by its lowest member
    np.fill_diagonal(gaps, np.inf)
    t = vecs[n]
    with np.errstate(divide="ignore", invalid="ignore"):  # t = 0 or a zero gap: at infinity, or grouped
        # a simple eigenvector errs by about its residual (at least eps) over its gap, and z = v / t
        # by that over |t|^2; 4 covers the rounding of |z| (true boundary points reach 1.5 times
        # the bound) below the 12 times of the exterior fixed point of the Siegel shift 1 + 150i
        resid = np.maximum(np.linalg.norm(m @ vecs - vecs * lams, axis=0), eps)
        sphere = np.minimum(TOLERANCES.on_sphere, 4.0 * resid / gaps.min(axis=1) / np.abs(t) ** 2).tolist()
        z = vecs[:n] / t
    points, at_inf = [], []
    slice_dim = slice_point = None
    whole_ball = False
    for e in np.lexsort((lams.imag, lams.real)).tolist():  # each group once, at its first eigenvalue
        if labels[e] < 0:  # read with its group
            continue
        members = [k for k in range(n + 1) if labels[k] == labels[e]]
        if len(members) == 1:
            if abs(t[e]) < 1e-10:
                at_inf.append(vecs[:n, e] / np.linalg.norm(vecs[:n, e]))
            else:
                points.append(_classify_point(f, z[:, e], sphere[e]))
            continue
        for k in members:
            labels[k] = -1
        _, s, vhg = np.linalg.svd(m - lams[members].mean() * np.eye(n + 1))
        # the group mean is as accurate as a trace, so each null direction leaves a
        # singular value at roundoff, and a Jordan coupling one far above sqrt(eps)
        null = min(max(int(np.sum(s <= math.sqrt(eps))), 1), len(members))
        basis = np.conj(vhg[n + 1 - null:]).T  # columns span the null space
        j = int(np.argmax(np.abs(basis[n])))
        if abs(basis[n, j]) < 1e-10:
            at_inf += [v / np.linalg.norm(v) for v in basis[:n].T]
            continue
        v0 = basis[:, j] / basis[n, j]
        z0 = v0[:n]
        w = (basis - np.outer(v0, basis[n]))[:n]  # directions: each column less its last entry times v0
        norms = np.linalg.norm(w, axis=0)
        w = w[:, norms > 1e-10] / norms[norms > 1e-10]
        if w.size:
            # an affine slice of fixed points, z0 + span(w): its point nearest 0
            z0 = z0 + w @ np.linalg.lstsq(w, -z0, rcond=None)[0]
            if np.linalg.norm(z0) < 1.0 - TOLERANCES.on_sphere:
                slice_dim, slice_point, whole_ball = w.shape[1], z0, w.shape[1] == n
                continue
        # an isolated point, or the nearest point of a slice that misses the open ball
        points.append(_classify_point(f, z0, TOLERANCES.on_sphere))
    points.sort(key=lambda p: ({"interior": 0, "boundary": 1, "exterior": 2}[p.kind],)
                + tuple(x for xy in zip(p.location.real, p.location.imag) for x in xy))
    return FixedPointSet(tuple(points), tuple(at_inf), slice_dim, slice_point, whole_ball)


def _classify_point(f: LinearFractionalMap, z: np.ndarray, on_sphere: float) -> FixedPoint:
    """The fixed point z, on the sphere when ||z| - 1| <= on_sphere."""
    r = float(np.linalg.norm(z))
    if abs(r - 1.0) <= on_sphere:
        tau = z / r
        return FixedPoint(location=tau, kind="boundary", dilation=_boundary_dilation(f, tau))
    kind = "interior" if r < 1.0 else "exterior"
    return FixedPoint(location=z, kind=kind, dilation=None)


def _denjoy_wolff_of(f: LinearFractionalMap, fps: FixedPointSet) -> FixedPoint:
    """Attracting boundary fixed point of a map with no interior fixed point,
    read off fps = ``fixed_points(f)``.

    It is the boundary fixed point whose dilation lies in (0, 1] (1 up to
    ``TOLERANCES.parabolic_band``); dilation strictly below 1 is the
    hyperbolic case and dilation 1 the parabolic case.  A self-map with no
    interior fixed point has exactly one such point, so none raises
    NoQualifyingBoundaryPoint and two or more raise
    MultipleBoundaryFixedPoints.  Callers check first that fps has no
    interior point.
    """
    cands = [p for p in fps.boundary_points() if p.dilation <= 1.0 + TOLERANCES.parabolic_band]
    if not cands:
        raise NoQualifyingBoundaryPoint("no boundary fixed point with dilation <= 1")
    if len(cands) > 1:
        dilations = ", ".join("%.12g" % d for d in sorted(p.dilation for p in cands))
        raise MultipleBoundaryFixedPoints(
            "%d boundary fixed points have dilation <= 1 (%s); a self-map with no interior fixed "
            "point has one" % (len(cands), dilations)
        )
    best = cands[0]
    # cross-check the derivative-based dilation against the radial quotient
    r = 1.0 - 1e-6
    radial = (1.0 - float(np.linalg.norm(evaluate(f, r * best.location)))) / (1.0 - r)
    if abs(radial - best.dilation) > 1e-4:
        raise NumericalInconsistency(
            "radial quotient %.6g disagrees with dilation %.6g" % (radial, best.dilation)
        )
    return best


def _contact_point(dw: FixedPoint | None, bps: tuple[FixedPoint, ...]) -> np.ndarray:
    """The Denjoy-Wolff point dw of a map with no interior fixed point, else
    the first of its boundary fixed points bps (elliptic diagnostic use)."""
    if dw is not None:
        return dw.location
    if not bps:
        raise NoBoundaryFixedPoint("map has no boundary fixed point")
    return bps[0].location


def _default_boundary_point(f: LinearFractionalMap) -> np.ndarray:
    """``_contact_point`` of f, from one ``fixed_points`` pass."""
    fps = fixed_points(f)
    dw = _denjoy_wolff_of(f, fps) if fps.interior_point() is None else None
    return _contact_point(dw, fps.boundary_points())


def _unit_tau(f: LinearFractionalMap, tau) -> np.ndarray:
    """tau scaled to the unit sphere; refused unless its norm is finite and nonzero in floats."""
    tau = np.asarray(tau, dtype=complex).reshape(-1)
    if tau.shape != (f.n,):
        raise DimensionMismatch("tau has dimension %d, map has %d" % (tau.size, f.n))
    with np.errstate(over="ignore"):  # an overflowing norm is inf, refused below
        norm = np.linalg.norm(tau) if np.isfinite(tau).all() else math.nan
    if not 0.0 < norm < math.inf:
        raise ParameterConstraintViolated("tau must have a finite nonzero norm, got %r" % float(norm))
    return tau / norm


# ---------------------------------------------------------------------------
# automorphisms


def _j_form(n: int) -> np.ndarray:
    """J = diag(I_N, -1), the form whose negative cone projects onto the ball."""
    j = np.eye(n + 1)
    j[n, n] = -1.0
    return j


def is_automorphism(f: LinearFractionalMap) -> bool:
    """Whether the map is a ball automorphism.

    Automorphisms are exactly the maps whose associated matrix satisfies
    m* J m = lambda J with lambda > 0: the equality case of the
    Krein-contraction certificate in ``validate_self_map``.
    """
    m = f.matrix
    n = f.n
    j = _j_form(n)
    k = m.conj().T @ j @ m
    lam = -k[n, n].real
    if lam <= 0:
        return False
    return float(np.linalg.norm(k - lam * j)) <= TOLERANCES.automorphism * float(np.linalg.norm(k))


def ball_automorphism_to_origin(a) -> LinearFractionalMap:
    """The involutive automorphism interchanging the interior point a and 0.

    For a = 0 the convention is z -> -z, the involution with the same
    structure.  The returned map satisfies phi(a) = 0, phi(0) = a and
    phi o phi = id projectively.
    """
    a = np.asarray(a, dtype=complex).reshape(-1)
    n = a.size
    r2 = float(np.vdot(a, a).real)
    if r2 >= 1.0:
        raise PointNotInterior("automorphism center must lie in the open ball")
    if r2 == 0.0:
        return LinearFractionalMap(-np.eye(n), np.zeros(n), np.zeros(n), 1.0)
    proj = np.outer(a, np.conj(a)) / r2
    s = math.sqrt(1.0 - r2)
    block = -(proj + s * (np.eye(n) - proj))
    return LinearFractionalMap(block, a, -a, 1.0)


# ---------------------------------------------------------------------------
# self-map validation


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    max_modulus: float
    witness: np.ndarray
    samples: int
    tol: float
    denominator_margin: float


def _krein_certificate(pp: np.ndarray, j: np.ndarray, rho: float) -> np.ndarray | None:
    """A positive definite lambda J - K with lambda >= 0, or None.

    K = pp - rho^2 e e* (e the last basis vector).  The feasible lambda form
    an interval whose ends are 0 or real eigenvalues of J K, so one of the
    midpoints of adjacent candidate ends lies inside it whenever it has
    interior.  Midpoints rather than ends: an end is singular, and at a
    tangency the computed ends split by about sqrt(eps).  The smallest
    eigenvalue must clear a roundoff bound, so rounding can raise the
    certified rho but never lower it.  All midpoints are tested in one
    stacked eigvalsh, and the first that passes is returned.
    """
    k = pp.copy()
    k[-1, -1] -= rho * rho
    roots = np.linalg.eigvals(j @ k).real
    ends = np.sort(np.concatenate([[0.0], roots[roots > 0.0]]))
    ends = ends[np.concatenate([[True], ends[1:] > ends[:-1]])]  # np.unique would import numpy.ma
    roundoff = 10.0 * j.shape[0] * np.finfo(float).eps
    size = float(np.linalg.norm(pp)) + rho * rho
    lams = 0.5 * (ends[:-1] + ends[1:])
    certs = lams[:, None, None] * j - k
    passed = np.flatnonzero(np.linalg.eigvalsh(certs)[:, 0] >= roundoff * (lams + size))
    return certs[passed[0]] if passed.size else None


def _extremal_point(cert: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Homogeneous coordinates of a point of the closed ball read off the
    null vectors of a tight certificate.

    When the null space has several dimensions (automorphisms, unitary
    parts, constant maps) two of its vectors are combined into one with
    w* J w = 0, i.e. a point of the sphere.
    """
    s, u = np.linalg.eigh(cert)
    v = u[:, s <= s[0] + 1e-9 * max(s[-1], 1.0)]
    g, x = np.linalg.eigh(v.conj().T @ j @ v)
    if g[0] >= 0.0:
        return v @ x[:, 0]
    if g[-1] <= 0.0:
        return v @ x[:, -1]
    return v @ (x[:, 0] + math.sqrt(-g[0] / g[-1]) * x[:, -1])


def _sphere_maximizer(fl: np.ndarray, g: np.ndarray) -> np.ndarray:
    """A unit z maximizing |F z + g| (Gander, Golub & von Matt 1989).

    It solves (mu - F* F) z = F* g with mu >= s_max, the top eigenvalue of
    F* F.  With t = mu - s_max, d_i = s_max - s_i and b = V* F* g that is the
    secular equation sum |b_i|^2 / (t + d_i)^2 = 1 on (0, |b|], solved by
    Newton on the concave 1 / |z(t)| - 1 with a bisection safeguard.  In the
    hard case (b has no component above roundoff on the top eigenvalue and
    the rest of z is shorter than 1) t = 0 and z is completed along the top
    eigenvector.
    """
    s, v = np.linalg.eigh(fl.conj().T @ fl)
    b = v.conj().T @ (fl.conj().T @ g)
    top = float(s[-1])
    floor = 1e-24 * max(top, 1.0) * (float(np.vdot(g, g).real) + top)
    # (|b_i|^2, d_i, i) for the components of b above roundoff
    terms = [(abs(b[i]) ** 2, top - float(s[i]), i) for i in range(len(s)) if abs(b[i]) ** 2 > floor]
    hard = all(d > 0.0 for _, d, _ in terms) and sum(w / d ** 2 for w, d, _ in terms) <= 1.0
    t = t_lo = 0.0
    if not hard:
        t = math.sqrt(sum(w for w, _, _ in terms))
        for _ in range(100):
            size = sum(w / (t + d) ** 2 for w, d, _ in terms)
            if size > 1.0:
                t_lo = t
            step = size * (1.0 - math.sqrt(size)) / sum(w / (t + d) ** 3 for w, d, _ in terms)
            t, t_old = (t - step if t - step > t_lo else 0.5 * (t_lo + t)), t
            if abs(t - t_old) <= 4.0 * np.finfo(float).eps * t_old:
                break
    y = np.zeros(len(s), dtype=complex)
    for _, d, i in terms:
        y[i] = b[i] / (t + d)
    if hard:
        y[-1] = math.sqrt(max(1.0 - float(np.vdot(y, y).real), 0.0))
    z = v @ y
    return z / np.linalg.norm(z)


def validate_self_map(f: LinearFractionalMap, tol: float = TOLERANCES.self_map) -> ValidationReport:
    """Compute sup over the closed ball of |phi| and check it against 1 + tol.

    The ball involution psi swapping 0 and a = -C/d makes the denominator of
    phi o psi constant, so phi o psi (z) = F z + g with the same supremum.
    With J = diag(I_N, -1), |F z + g| <= rho on the closed ball exactly when
    lambda J - [F g]* [F g] + rho^2 e e* is positive semidefinite for some
    lambda >= 0 (the complex S-lemma, with Slater point (0, 1); rho = 1 is
    the Krein-contraction characterisation of self-maps).  The best such
    certificate has smallest eigenvalue at least (rho^2 - sup^2) / 2, which
    the J-form of phi itself, carrying only (d - |C|)^2, does not have.

    ``max_modulus`` is the smallest certified rho to about 1e-13, bisected
    from lo = |F z* + g| at the sphere maximizer z* and the first of
    lo + 1e-13 max(lo, 1) 16^k (capped at a norm bound) that the certificate
    accepts, not bisected further when it is the first.  lo is attained and
    every reported rho certified, so soundness rests on the certificate alone;
    it is never below the sup of the computed F z + g, whose forming costs
    eps / (d - |C|) relative.  ``samples`` counts the certificate tests (mostly
    1); ``witness`` attains ``max_modulus`` in the closed ball up to roundoff.

    A constant (F = 0 within tol |g|, m of rank 1) sends the open ball to g,
    so it passes only when |g| < 1 - tol: by the maximum principle, only
    constants send the open ball into the closed one and touch the sphere.
    """
    n = f.n
    cn = float(np.linalg.norm(f.c))
    u = f.c / cn if cn > 0.0 else np.zeros(n, dtype=complex)
    a = -f.c / f.d
    # ball_automorphism_to_origin(a), without its cancellation in 1 - |a|^2
    s2 = f.denominator_margin * (f.d + cn) / (f.d * f.d)
    q = math.sqrt(s2) * np.eye(n) + (1.0 - math.sqrt(s2)) * np.outer(u, np.conj(u))
    psi = np.empty((n + 1, n + 1), dtype=complex)
    psi[:n, :n], psi[:n, n], psi[n, :n], psi[n, n] = -q, a, -np.conj(a), 1.0
    fg = f.matrix[:n] @ psi / (f.d * s2)
    pp = fg.conj().T @ fg
    j = _j_form(n)
    lo = float(np.linalg.norm(fg @ np.append(_sphere_maximizer(fg[:, :n], fg[:, n]), 1.0)))
    step, tests = 1e-13 * max(lo, 1.0), 1
    hi, bound = lo + step, None
    while (cert := _krein_certificate(pp, j, hi)) is None:
        if bound is None:
            # |F z + g| <= |F|_2 + |g|, which the first rung lies below; at least 1 for the zero map
            bound = max(1.5 * (float(np.linalg.norm(fg[:, :n], 2)) + float(np.linalg.norm(fg[:, n]))), 1.0)
        if hi == bound:
            raise NumericalInconsistency("no Krein certificate at the norm bound %.6g" % hi)
        lo, step, tests = hi, 16.0 * step, tests + 1
        hi = min(lo + step, bound)
    # absolute below 1, where the decision against 1 + tol is made; an accepted first rung is that narrow
    while tests > 1 and hi - lo > 1e-13 * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        found = _krein_certificate(pp, j, mid)
        tests += 1
        if found is None:
            lo = mid
        else:
            hi, cert = mid, found
    h = psi @ _extremal_point(cert, j)
    w = h[:n] / h[n]
    r = float(np.linalg.norm(w))
    constant = float(np.linalg.norm(fg[:, :n])) <= tol * float(np.linalg.norm(fg[:, n]))
    return ValidationReport(
        ok=hi < 1.0 - tol if constant else hi <= 1.0 + tol,
        max_modulus=hi,
        witness=w / r if r > 1.0 else w,
        samples=tests,
        tol=tol,
        denominator_margin=f.denominator_margin,
    )


# ---------------------------------------------------------------------------
# half-plane model


def _unitary_with_first_column(u: np.ndarray) -> np.ndarray:
    """The unitary [[a, -s w*], [w, I - w w* / (1 + |a|)]] whose first column
    is the unit vector u = (a, w), with s = a / |a| (1 at a = 0): the identity
    at u = e_1, and continuous in u away from a = 0."""
    u = np.asarray(u, dtype=complex).reshape(-1)
    u = u / np.linalg.norm(u)
    a, w = u[0], u[1:]
    s = a / abs(a) if a != 0 else 1.0
    q = np.eye(u.size, dtype=complex)
    q[:, 0] = u
    q[0, 1:] -= s * np.conj(w)
    q[1:, 1:] -= np.outer(w, np.conj(w)) / (1.0 + abs(a))
    return q


def _cayley_matrix(n: int) -> np.ndarray:
    """Projective matrix of the Cayley map from the ball onto the Siegel
    half-plane { (z, w) : Re z > |w|^2 }, sending e_1 to infinity."""
    s = np.eye(n + 1, dtype=complex)
    s[0, 0] = 1.0
    s[0, n] = 1.0
    s[n, 0] = -1.0
    s[n, n] = 1.0
    return s


def _rotation_block(u: np.ndarray) -> np.ndarray:
    """Projective matrix block-diag(u, 1) of the rotation z -> u z."""
    n = u.shape[0]
    v = np.eye(n + 1, dtype=complex)
    v[:n, :n] = u
    return v


def _ball_map_from_halfplane(m: np.ndarray) -> LinearFractionalMap:
    """The ball map whose Cayley transport is the half-plane matrix m."""
    n = len(m) - 1
    return LinearFractionalMap.from_matrix(np.linalg.inv(_cayley_matrix(n)) @ m @ _cayley_matrix(n))


@dataclass(frozen=True)
class HalfPlaneMap:
    """Affine self-map of the Siegel half-plane in the scaling-normal form

        psi(z, w) = (1/alpha) * (z + <w, b> + c,  A w + d)

    the Cayley transport of a ball map with boundary fixed point e_1
    (``classify`` rotates the Denjoy-Wolff point there first).  For non-elliptic ball maps
    alpha is the Denjoy-Wolff dilation in (0, 1], where the self-map constraints
    are tested; no code here pulls back an elliptic map, and alpha > 1, at a
    repelling boundary fixed point, only plants one.
    """

    n: int
    alpha: float
    b: np.ndarray
    c: complex
    a_block: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        n = self.n
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise MapFormatError("half-plane dimension must be a positive integer, got %r" % (n,))
        if (np.shape(self.b), np.shape(self.a_block), np.shape(self.d)) != ((n - 1,), (n - 1, n - 1), (n - 1,)):
            raise DimensionMismatch("half-plane blocks b, A, d must be %d, %d x %d and %d long" % ((n - 1,) * 4))
        parts = (self.alpha, self.c, self.b, self.a_block, self.d)
        if np.iscomplexobj(self.alpha) or not all(np.isfinite(np.asarray(x, dtype=complex)).all() for x in parts):
            raise MapFormatError("half-plane entries must be finite numbers, alpha real")
        if self.alpha <= 0:
            raise NumericalInconsistency("half-plane scaling must be positive")
        if self.alpha <= 1.0 + 1e-12:
            # self-map constraints from the half-plane geometry
            if self.alpha * self.c.real < float(np.vdot(self.d, self.d).real) - 1e-9:
                raise NumericalInconsistency("half-plane constraint alpha Re c >= |d|^2 fails")
            a_norm = float(np.linalg.norm(self.a_block, 2)) if n > 1 else 0.0
            if a_norm > math.sqrt(self.alpha) * (1.0 + 1e-8):
                raise NumericalInconsistency("half-plane constraint |A| <= sqrt(alpha) fails")

    @property
    def matrix(self) -> np.ndarray:
        """Projective matrix acting on (z, w, 1) in half-plane coordinates."""
        n = self.n
        m = np.zeros((n + 1, n + 1), dtype=complex)
        m[0, 0] = 1.0 / self.alpha
        m[0, 1:n] = np.conj(self.b) / self.alpha
        m[0, n] = self.c / self.alpha
        m[1:n, 1:n] = self.a_block / self.alpha
        m[1:n, n] = self.d / self.alpha
        m[n, n] = 1.0
        return m

    def pulled_back_to_ball(self) -> LinearFractionalMap:
        """The ball map fixing e_1 whose Cayley transport this form is."""
        return _ball_map_from_halfplane(self.matrix)


# ---------------------------------------------------------------------------
# JSON form


def _c2pair(x) -> list:
    """A complex number as [re, im], or an array of them as nested lists of
    such pairs; the sign of a zero is kept."""
    x = np.asarray(x, dtype=complex)
    return np.stack((x.real, x.imag), -1).tolist()


def map_to_json_dict(f: LinearFractionalMap) -> dict:
    """Normalized map as a JSON-ready dict with complex entries as [re, im]."""
    return {"N": f.n, "A": _c2pair(f.a), "B": _c2pair(f.b), "C": _c2pair(f.c), "d": _c2pair(f.d)}


def _pair2c(v, where: str) -> complex:
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise MapFormatError("%s: expected [re, im] pair, got %r" % (where, v))
    re, im = v
    if isinstance(re, bool) or isinstance(im, bool) or not isinstance(re, (int, float)) or not isinstance(im, (int, float)):
        raise MapFormatError("%s: entries must be numbers" % where)
    return complex(re, im)


def map_from_json_dict(obj: dict) -> LinearFractionalMap:
    """Parse the canonical map JSON object; raises MapFormatError with the
    offending field on malformed input."""
    if not isinstance(obj, dict):
        raise MapFormatError("map JSON must be an object")
    for key in ("N", "A", "B", "C", "d"):
        if key not in obj:
            raise MapFormatError("missing field %r" % key)
    n = obj["N"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise MapFormatError("N must be a positive integer")
    a_rows = obj["A"]
    if not isinstance(a_rows, list) or len(a_rows) != n:
        raise MapFormatError("A must be an N x N array")
    a = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(a_rows):
        if not isinstance(row, list) or len(row) != n:
            raise MapFormatError("A row %d must have length %d" % (i, n))
        for j, v in enumerate(row):
            a[i, j] = _pair2c(v, "A[%d][%d]" % (i, j))
    for key in ("B", "C"):
        if not isinstance(obj[key], list) or len(obj[key]) != n:
            raise MapFormatError("%s must have length %d" % (key, n))
    b = np.array([_pair2c(v, "B[%d]" % i) for i, v in enumerate(obj["B"])])
    c = np.array([_pair2c(v, "C[%d]" % i) for i, v in enumerate(obj["C"])])
    d = _pair2c(obj["d"], "d")
    return LinearFractionalMap(a, b, c, d)
