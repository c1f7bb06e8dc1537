"""Exact spectra of composition operators for the supported map classes,
plus the contact-point estimator for the essential spectral radius: the
angular derivative d of the map at its boundary fixed point, as a J-form
pairing on the associated matrix, gives d^(-N/2).

A spectrum is assembled symbolically as a union of primitive regions
(points, truncated point families, circles, closed disks, annuli) with a
provenance string naming the case that produced it.  Membership testing
and deterministic discretization operate on that symbolic form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .classify import (
    Classification,
    EllipticSpectralData,
    MapClass,
    _split_eigenvalues,
    classify,
)
from .errors import (
    NumericalInconsistency,
    ParameterConstraintViolated,
    SizeCapExceeded,
    UnsupportedAutomorphism,
    UnsupportedParabolic,
)
from .maps import (
    TOLERANCES,
    LinearFractionalMap,
    _c2pair,
    _dominant_boundary_point,
    _j_form,
    _spectral_order,
    _unit_tau,
    fixed_points,
)

__all__ = [
    "Point",
    "PointFamily",
    "Circle",
    "ClosedDisk",
    "Annulus",
    "SpectralSet",
    "spectral_radius",
    "spectrum",
    "essential_radius_estimate",
    "essential_radius_closed_form",
]

MAX_FAMILY_POINTS = 100_000
MAX_CLOUD_POINTS = 10_000_000


# ---------------------------------------------------------------------------
# primitive regions


@dataclass(frozen=True)
class Point:
    value: complex


@dataclass(frozen=True)
class PointFamily:
    """Truncated enumeration of eigenvalue products.

    ``generators`` are the eigenvalues whose monomial products the family
    represents; ``points`` enumerates every product of modulus at least
    ``truncated_at`` (with ``min_total_exponent`` 0 or 1 recording whether
    the empty product is included).  ``_contractive_products`` walks each
    row's chain in Python complex arithmetic, rows in order, and keeps the
    last value on each point of the 1e-13 grid, in the order of the first;
    boundary-fixed families, outside the disk of the essential radius rho,
    are enumerated down to rho.  Families of contractions accumulate only at
    0, so the truncation plus an explicit 0 point captures the closure.
    """

    generators: tuple[complex, ...]
    points: tuple[complex, ...]
    min_total_exponent: int
    truncated_at: float
    accumulates_at_zero: bool


@dataclass(frozen=True)
class Circle:
    radius: float


@dataclass(frozen=True)
class ClosedDisk:
    radius: float


@dataclass(frozen=True)
class Annulus:
    r_inner: float
    r_outer: float
    open_inner: bool = True
    open_outer: bool = True


Component = Point | PointFamily | Circle | ClosedDisk | Annulus


def _component_contains(comp: Component, lam: complex, tol: float) -> bool:
    r = abs(lam)
    if isinstance(comp, Point):
        return abs(lam - comp.value) <= tol
    if isinstance(comp, PointFamily):
        return any(abs(lam - p) <= tol for p in comp.points)
    if isinstance(comp, Circle):
        return abs(r - comp.radius) <= tol
    if isinstance(comp, ClosedDisk):
        return r <= comp.radius + tol
    return comp.r_inner - tol <= r <= comp.r_outer + tol


def _component_max_modulus(comp: Component) -> float:
    if isinstance(comp, Point):
        return abs(comp.value)
    if isinstance(comp, PointFamily):
        return max((abs(p) for p in comp.points), default=0.0)
    if isinstance(comp, (Circle, ClosedDisk)):
        return comp.radius
    return comp.r_outer


def _cloud_size(comp: Component, resolution: int) -> int:
    """Number of points _run_clouds gives comp at this resolution."""
    if isinstance(comp, (Point, PointFamily)):
        return len(comp.points) if isinstance(comp, PointFamily) else 1
    rings = 1 if isinstance(comp, Circle) else max(2, resolution // 8) + isinstance(comp, Annulus)
    return rings * resolution + isinstance(comp, ClosedDisk)


def _run_clouds(kind: type, comps: tuple, resolution: int, out: np.ndarray) -> None:
    """Write the clouds of a run of components of one type into out: points
    as they are, else every ring radius times the angles, a disk's centre 0
    in place of its ring 0."""
    if kind is Point or kind is PointFamily:
        start = 0
        for c in comps:
            pts = c.points if kind is PointFamily else (c.value,)
            out[start:start + len(pts)] = pts
            start += len(pts)
        return
    angles = np.exp(2j * math.pi * np.arange(resolution) / resolution)
    steps = np.arange(max(2, resolution // 8) + 1)
    if kind is Annulus:
        inner = np.array([c.r_inner for c in comps])[:, None]
        outer = np.array([c.r_outer for c in comps])[:, None]
        rings = inner + (outer - inner) * steps / steps[-1]
    else:
        rings = np.array([c.radius for c in comps])[:, None]
        rings = rings * steps[1:] / steps[-1] if kind is ClosedDisk else rings
    cloud = out.reshape(len(comps), -1)
    if kind is ClosedDisk:
        cloud[:, 0] = 0.0
        cloud = cloud[:, 1:]
    # splitting the contiguous last axis into rings x angles is a view, so out is written in place
    np.multiply(rings[:, :, None], angles, out=cloud.reshape(rings.shape + (resolution,)))


def _component_json(comp: Component) -> dict:
    if isinstance(comp, Point):
        return {"type": "points", "values": [_c2pair(comp.value)], "generators": []}
    if isinstance(comp, PointFamily):
        return {
            "type": "points",
            "values": _c2pair(comp.points),
            "generators": _c2pair(comp.generators),
            "min_total_exponent": comp.min_total_exponent,
            "truncated_at": comp.truncated_at,
            "accumulates_at_zero": comp.accumulates_at_zero,
        }
    if isinstance(comp, Circle):
        return {"type": "circle", "radius": comp.radius}
    if isinstance(comp, ClosedDisk):
        return {"type": "disk", "radius": comp.radius}
    return {
        "type": "annulus",
        "r_in": comp.r_inner,
        "r_out": comp.r_outer,
        "open_inner": comp.open_inner,
        "open_outer": comp.open_outer,
    }


@dataclass(frozen=True)
class SpectralSet:
    """Union of primitive regions representing a spectrum.

    ``is_closure`` marks sets whose stored open pieces stand for their
    closure (union-of-annuli case); membership at positive tolerance makes
    the distinction immaterial.
    """

    components: tuple[Component, ...]
    kind: str
    provenance: str
    spectral_radius: float
    is_closure: bool = False

    def contains(self, lam: complex, tol: float = TOLERANCES.membership) -> bool:
        return any(_component_contains(c, complex(lam), tol) for c in self.components)

    def max_modulus(self) -> float:
        return max((_component_max_modulus(c) for c in self.components), default=0.0)

    def discretize(self, resolution: int = 128) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic point cloud: (values, component_index) arrays;
        SizeCapExceeded beyond MAX_CLOUD_POINTS points, counted first.  Each
        run of components of one type writes its points into its slice of
        the one values array that count sizes."""
        if resolution < 1:
            raise ParameterConstraintViolated("resolution must be at least 1, got %d" % resolution)
        sizes = [_cloud_size(c, resolution) for c in self.components]
        size = sum(sizes)
        if size > MAX_CLOUD_POINTS:
            raise SizeCapExceeded("point cloud of %d points exceeds %d; lower the resolution"
                                  % (size, MAX_CLOUD_POINTS))
        values, start = np.empty(size, dtype=complex), 0
        for kind, run in itertools.groupby(zip(self.components, sizes), lambda cs: type(cs[0])):
            comps, counts = zip(*run)
            stop = start + sum(counts)
            _run_clouds(kind, comps, resolution, values[start:stop])
            start = stop
        return values, np.repeat(np.arange(len(sizes)), sizes)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "provenance": self.provenance,
            "spectral_radius": self.spectral_radius,
            "is_closure": self.is_closure,
            "components": [_component_json(c) for c in self.components],
        }


# ---------------------------------------------------------------------------
# eigenvalue-product enumeration


def _last_on_grid(vals: np.ndarray) -> np.ndarray:
    """The last value on each point of the 1e-13 grid, in order of the first;
    rint rounds half to even as round() does, and == merges +0 and -0."""
    keys = np.rint(vals * 1e13)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    edge = np.concatenate(([vals.size > 0], keys[1:] != keys[:-1], [vals.size > 0]))  # [:-1] starts, [1:] ends
    first, last = order[np.flatnonzero(edge[:-1])], order[np.flatnonzero(edge[1:])]
    if first.size > MAX_FAMILY_POINTS:
        raise SizeCapExceeded("eigenvalue-product family exceeds %d points; raise tail_tol" % MAX_FAMILY_POINTS)
    return vals[last[np.argsort(first)]]


def _product_stage(rows: np.ndarray, g: complex, tail_tol: float) -> np.ndarray:
    """One stage of _contractive_products: each row w in order walks w, w g,
    (w g) g, ... down to tail_tol in Python complex arithmetic, whose product
    and abs() round as the real form and hypot do; the grid points are
    counted at MAX_FAMILY_POINTS + 1 values and at each doubling after."""
    out, check_at = [], MAX_FAMILY_POINTS + 1
    for w in rows.tolist():
        while abs(w) >= tail_tol:
            out.append(w)
            if len(out) == check_at:
                _last_on_grid(np.array(out))
                check_at *= 2
            w = w * g
    return _last_on_grid(np.array(out, dtype=complex))


def _contractive_products(generators: tuple[complex, ...], tail_tol: float) -> np.ndarray:
    """All products g^gamma over multi-exponents gamma >= 0 with modulus at
    least tail_tol, including the empty product 1, by decreasing modulus.

    Per generator g, each value v kept so far, in order, walks v, v g,
    (v g) g, ... in Python complex arithmetic until the first product below
    tail_tol; _last_on_grid keeps the last value on each point of the 1e-13
    grid, in the order of the first, and raises SizeCapExceeded beyond
    MAX_FAMILY_POINTS of them in a stage.  A unimodular generator would keep
    its chain on the circle (for ever at a root of unity) and a larger one
    would run to inf, so generators must be strictly contractive.
    Boundary-fixed spectra pass their essential radius."""
    if not tail_tol > 0.0:  # every chain then ends, a zero generator's at v 0 = 0
        raise ParameterConstraintViolated("tail_tol must be positive, got %r" % tail_tol)
    if any(abs(g) >= 1.0 for g in generators):
        raise NumericalInconsistency("product enumeration needs strictly contractive generators")
    vals = np.ones(1, dtype=complex)
    for g in generators:
        vals = _product_stage(vals, complex(g), tail_tol)
    return vals[_spectral_order(vals)]


def _rotation_fraction(lam: complex) -> tuple[int, int] | None:
    """theta = arg(lam) / 2pi in [0, 1) as (p, q), p = round(theta q), for the
    least q <= ``TOLERANCES.root_of_unity_order`` with |theta - p/q| <=
    ``TOLERANCES.root_of_unity_angle``, or None.  Fractions with q <= 64 are
    >= 1/4096 apart: at most one is that close, and least q is lowest terms."""
    theta = math.atan2(complex(lam).imag, complex(lam).real) / (2.0 * math.pi) % 1.0
    for q in range(1, TOLERANCES.root_of_unity_order + 1):
        p = round(theta * q)
        if abs(theta - p / q) <= TOLERANCES.root_of_unity_angle:
            return p, q
    return None


def _unimodular_closure_points(unimodular: tuple[complex, ...]) -> list[complex] | None:
    """Closure of the multiplicative semigroup of unimodular eigenvalues.

    Returns the finite subgroup of the circle they generate when every
    angle is rational (the semigroup of roots of unity is a group), or
    None when an irrational rotation makes the closure the full circle.
    """
    fracs = [_rotation_fraction(lam) for lam in unimodular]
    if any(fr is None for fr in fracs):
        return None
    lcm = 1
    for _, q in fracs:
        lcm = lcm * q // math.gcd(lcm, q)
    residues = [p * (lcm // q) for p, q in fracs]
    g = lcm
    for r in residues:
        g = math.gcd(g, r)
    size = lcm // g
    if size > MAX_FAMILY_POINTS:
        raise SizeCapExceeded("unimodular subgroup has %d elements" % size)
    return [complex(np.exp(2j * math.pi * g * t / lcm)) for t in range(size)]


# ---------------------------------------------------------------------------
# spectral radius and spectrum


def spectral_radius(f: LinearFractionalMap, cl: Classification | None = None) -> float:
    """Spectral radius of the composition operator on the Hardy space.

    1 for elliptic maps; alpha^(-N/2) in terms of the Denjoy-Wolff
    dilation otherwise (so parabolic maps also give 1).
    """
    if cl is None:
        cl = classify(f)
    if cl.alpha is None:
        return 1.0
    return float(cl.alpha ** (-cl.n / 2.0))


def _sorted_points(points: list[complex]) -> tuple[complex, ...]:
    pts = np.array(points, dtype=complex)
    return tuple(pts[_spectral_order(pts)].tolist())


def _product_family(data: EllipticSpectralData, tail_tol: float, rotations: list[complex] | None = None,
                    rho: float | None = None) -> PointFamily:
    """The products of an elliptic map's contractive eigenvalues down to
    tail_tol, as a family over all its eigenvalues.  With the finite
    rotation group of a unitary part: every rotation times every product,
    the empty one included, in spectral order.  Else every product but the
    empty one, which the spectrum carries as the point 1; given the essential
    radius rho of a boundary fixed point, only those outside the closed disk
    of radius rho, so that the family does not accumulate at 0."""
    prods = _contractive_products(data.contractive, tail_tol if rho is None else max(tail_tol, rho))
    if rotations is not None:
        if len(rotations) * prods.size > MAX_FAMILY_POINTS:
            raise SizeCapExceeded("point family exceeds %d points" % MAX_FAMILY_POINTS)
        points = _sorted_points([u * a for u in rotations for a in prods.tolist()])
    else:
        keep = np.rint(prods * 1e13) != 1e13
        if rho is not None:  # a product on the rim lands a few ulps either side of it; within membership it is in the disk
            keep &= np.hypot(prods.real, prods.imag) > rho + TOLERANCES.membership
        points = tuple(prods[keep].tolist())
    return PointFamily(generators=tuple(data.eigenvalues), points=points,
                       min_total_exponent=int(rotations is None), truncated_at=tail_tol,
                       accumulates_at_zero=bool(data.contractive) and rho is None)


# the classes out of scope; the parabolic message states its radius 1, so format() fills nothing in
_UNSUPPORTED = {
    MapClass.PARABOLIC: (UnsupportedParabolic, "spectrum of a parabolic map is out of scope; spectral radius is 1"),
    MapClass.OTHER_AUTOMORPHISM: (
        UnsupportedAutomorphism, "spectrum of a non-elliptic automorphism is out of scope; spectral radius is {:g}"),
}


def spectrum(
    f: LinearFractionalMap,
    cl: Classification | None = None,
    tail_tol: float = TOLERANCES.spectrum_tail,
) -> SpectralSet:
    """Exact spectrum for the supported classes.

    Raises UnsupportedParabolic / UnsupportedAutomorphism (each carrying
    the spectral radius) for the two out-of-scope classes.  The eigenvalues
    of a two-fixed map's normalized block are split by the classification's
    rule for the differential: unimodular ones add nothing beyond the empty
    product, and one in the gap band between them and the contractive ones
    raises GapEigenvalue.
    """
    if cl is None:
        cl = classify(f)
    radius = spectral_radius(f, cl)
    kind = cl.kind
    data = cl.spectral_data

    if kind in _UNSUPPORTED:
        error, message = _UNSUPPORTED[kind]
        raise error(message.format(radius), kind=kind.value, spectral_radius=radius)

    if kind == MapClass.ELLIPTIC_AUTOMORPHISM:
        subgroup = _unimodular_closure_points(data.unimodular)
        if subgroup is None:
            comps: tuple = (Circle(1.0),)
            prov = ("elliptic automorphism with an irrational rotation eigenvalue: "
                    "the eigenvalue products are dense in the unit circle")
        else:
            comps = (PointFamily(generators=tuple(data.unimodular), points=_sorted_points(subgroup),
                                 min_total_exponent=0, truncated_at=0.0, accumulates_at_zero=False),)
            prov = ("elliptic automorphism with rational rotation eigenvalues: "
                    "spectrum is the finite subgroup of eigenvalue products")
    elif kind == MapClass.ELLIPTIC_UNITARY_PART:
        subgroup = _unimodular_closure_points(data.unimodular)
        if subgroup is None:
            radii = sorted({float(abs(v)) for v in _contractive_products(data.contractive, tail_tol).tolist()},
                           reverse=True)
            comps = tuple(Circle(r) for r in radii) + (Point(0.0 + 0.0j),)
            prov = ("elliptic, positive unitary index, irrational rotation present: circles "
                    "through every product of contractive eigenvalue moduli, plus 0")
        else:
            comps = (_product_family(data, tail_tol, rotations=subgroup), Point(0.0 + 0.0j))
            prov = ("elliptic, positive unitary index, rational rotations only: closure of the "
                    "eigenvalue products, plus 0")
    elif kind == MapClass.ELLIPTIC_INTERIOR_ONLY:
        comps = (Point(0.0 + 0.0j), Point(1.0 + 0.0j), _product_family(data, tail_tol))
        prov = ("elliptic, unitary index 0, no boundary fixed point: some power of the operator "
                "is compact, so the spectrum is 0, 1, and the eigenvalue products")
    elif kind == MapClass.ELLIPTIC_BOUNDARY_FIXED:
        if cl.boundary_fixed_points[0].dilation <= 1.0:
            raise NumericalInconsistency("boundary dilation should exceed 1 here")
        rho = essential_radius_closed_form(cl)  # dilation^(-N/2) < 1 for every float dilation > 1
        fam = _product_family(data, tail_tol, rho=rho)
        comps = (ClosedDisk(rho), Point(1.0 + 0.0j)) + ((fam,) if fam.points else ())
        prov = ("elliptic, unitary index 0, one boundary fixed point: closed disk of the "
                "essential radius (boundary dilation to the power -N/2), the eigenvalue "
                "products, and 1")
    elif kind == MapClass.HYPERBOLIC_ONE_FIXED:
        comps = (ClosedDisk(radius),)
        prov = ("hyperbolic, one boundary fixed point: spectrum = essential spectrum = closed "
                "disk of radius alpha^(-N/2)")
    else:  # HYPERBOLIC_TWO_FIXED, the last of the eight classes
        lo = float(cl.alpha ** (cl.n / 2.0))
        # distinct moduli of products of the block's contractive eigenvalues;
        # unimodular ones add nothing beyond the empty product, and none lies
        # above the band, as the half-plane form has |A| <= sqrt(alpha) (1 + 1e-8)
        gens = tuple(complex(abs(v)) for v in _split_eigenvalues(cl.normal_form.eigenvalues)[1])
        moduli = sorted({float(abs(p)) for p in _contractive_products(gens, tail_tol / radius).tolist()},
                        reverse=True)
        comps = tuple(Annulus(m * lo, m * radius, open_inner=False, open_outer=False)
                      for m in moduli if m * radius >= tail_tol) + (Point(0.0 + 0.0j),)
        prov = ("hyperbolic, two boundary fixed points: closure of the annuli with radii "
                "|product| * alpha^(+-N/2) over products of the linear-part eigenvalues, "
                "plus 0")
    return SpectralSet(comps, kind.value, prov, radius, is_closure=kind == MapClass.HYPERBOLIC_TWO_FIXED)


# ---------------------------------------------------------------------------
# essential spectral radius estimator


@dataclass(frozen=True)
class EssentialRadiusEstimate:
    """Output of the contact-point estimator.

    ``angular_derivative`` is d, the angular derivative of phi at the
    boundary point ``tau``, and ``limit`` is d^(-N/2).  By the chain rule
    phi^n has angular derivative d^n at tau, so no iterate adds more than
    rounding to the order-1 value.
    """

    limit: float
    angular_derivative: float
    tau: tuple[complex, ...]


def essential_radius_estimate(f: LinearFractionalMap, tau: np.ndarray | None = None) -> EssentialRadiusEstimate:
    """Essential spectral radius d^(-N/2) from the angular derivative d at tau.

    tau defaults to ``maps._dominant_boundary_point``: the boundary fixed
    point of largest eigenvalue modulus, which is the Denjoy-Wolff point of a
    map with no interior fixed point.  With M the associated matrix,
    u = (tau, 0) and v = (tau, 1), the angular derivative at tau is the
    J-form pairing d = Re((M u)* J (M v)) / |(M v)_N|^2
    (Cowen-MacCluer 2000, Bisi-Bracci 2002), the limit of the boundary
    quotient (1-|phi(z)|^2)/(1-|z|^2) as z -> tau; it is a different path
    from the Jacobian that gives the classification's dilation.  The power
    d^(-N/2) is taken in logs, so it does not overflow before it is checked.
    """
    tau = _unit_tau(f, _dominant_boundary_point(fixed_points(f)).location if tau is None else tau)
    m = f.matrix
    mu = m[:, : f.n] @ tau
    mv = mu + m[:, f.n]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = np.vdot(mu, _j_form(f.n) @ mv).real / abs(mv[f.n]) ** 2
        limit = np.exp(-(f.n / 2.0) * np.log(d))
    # a finite positive limit needs a finite positive d, and rules out NaN
    if not (limit > 0.0 and np.isfinite(limit)):
        raise NumericalInconsistency("angular derivative %.3g at tau gives no finite positive estimate" % d)
    return EssentialRadiusEstimate(
        limit=float(limit),
        angular_derivative=float(d),
        tau=tuple(complex(t) for t in tau),
    )


def essential_radius_closed_form(cl: Classification) -> float | None:
    """Exact essential radius when the theory pins it down, else None: the
    dilation at the contact point (``maps._dominant_boundary_point``) to the power -N/2."""
    if cl.kind in (MapClass.ELLIPTIC_BOUNDARY_FIXED, MapClass.HYPERBOLIC_ONE_FIXED):
        return float(_dominant_boundary_point(cl.fixed_set).dilation ** (-cl.n / 2.0))
    return None
