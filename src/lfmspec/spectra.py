"""Exact spectra of composition operators for the supported map classes,
plus the boundary-quotient estimator for the essential spectral radius.

A spectrum is assembled symbolically as a union of primitive regions
(points, truncated point families, circles, closed disks, annuli) with a
provenance string naming the case that produced it.  Membership testing
and deterministic discretization operate on that symbolic form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .classify import (
    Classification,
    MapClass,
    classify,
    rotation_order,
)
from .errors import (
    HasInteriorFixedPoint,
    NoBoundaryFixedPoint,
    NoQualifyingBoundaryPoint,
    NumericalInconsistency,
    SizeCapExceeded,
    UnsupportedAutomorphism,
    UnsupportedParabolic,
)
from .maps import (
    LinearFractionalMap,
    _c2pair,
    denjoy_wolff,
    fixed_points,
    unitary_with_first_column,
)

__all__ = [
    "Point",
    "PointFamily",
    "Circle",
    "ClosedDisk",
    "Annulus",
    "SpectralSet",
    "EssentialRadiusEstimate",
    "spectral_radius",
    "spectrum",
    "essential_radius_estimate",
    "essential_radius_closed_form",
    "cloud_to_csv",
]

DEFAULT_TAIL_TOL = 1e-12
MAX_FAMILY_POINTS = 100_000


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
    the empty product is included).  Families of contractions accumulate
    only at 0, so the truncation plus an explicit 0 point captures the
    closure.
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
    if isinstance(comp, Annulus):
        return comp.r_inner - tol <= r <= comp.r_outer + tol
    raise TypeError("unknown component %r" % (comp,))


def _component_max_modulus(comp: Component) -> float:
    if isinstance(comp, Point):
        return abs(comp.value)
    if isinstance(comp, PointFamily):
        return max((abs(p) for p in comp.points), default=0.0)
    if isinstance(comp, Circle):
        return comp.radius
    if isinstance(comp, ClosedDisk):
        return comp.radius
    if isinstance(comp, Annulus):
        return comp.r_outer
    raise TypeError("unknown component %r" % (comp,))


def _component_cloud(comp: Component, resolution: int) -> np.ndarray:
    if isinstance(comp, Point):
        return np.array([comp.value], dtype=complex)
    if isinstance(comp, PointFamily):
        return np.array(comp.points, dtype=complex)
    angles = np.exp(2j * math.pi * np.arange(resolution) / resolution)
    if isinstance(comp, Circle):
        return comp.radius * angles
    n_rings = max(2, resolution // 8)
    if isinstance(comp, ClosedDisk):
        rings = comp.radius * np.arange(n_rings + 1) / n_rings
        pts = [np.array([0.0 + 0.0j])]
        pts.extend(r * angles for r in rings[1:])
        return np.concatenate(pts)
    if isinstance(comp, Annulus):
        rings = comp.r_inner + (comp.r_outer - comp.r_inner) * np.arange(n_rings + 1) / n_rings
        return np.concatenate([r * angles for r in rings])
    raise TypeError("unknown component %r" % (comp,))


def _component_json(comp: Component) -> dict:
    if isinstance(comp, Point):
        return {"type": "points", "values": [_c2pair(comp.value)], "generators": []}
    if isinstance(comp, PointFamily):
        return {
            "type": "points",
            "values": [_c2pair(p) for p in comp.points],
            "generators": [_c2pair(g) for g in comp.generators],
            "min_total_exponent": comp.min_total_exponent,
            "truncated_at": comp.truncated_at,
            "accumulates_at_zero": comp.accumulates_at_zero,
        }
    if isinstance(comp, Circle):
        return {"type": "circle", "radius": comp.radius}
    if isinstance(comp, ClosedDisk):
        return {"type": "disk", "radius": comp.radius}
    if isinstance(comp, Annulus):
        return {
            "type": "annulus",
            "r_in": comp.r_inner,
            "r_out": comp.r_outer,
            "open_inner": comp.open_inner,
            "open_outer": comp.open_outer,
        }
    raise TypeError("unknown component %r" % (comp,))


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

    def contains(self, lam: complex, tol: float = 1e-8) -> bool:
        return any(_component_contains(c, complex(lam), tol) for c in self.components)

    def max_modulus(self) -> float:
        return max((_component_max_modulus(c) for c in self.components), default=0.0)

    def discretize(self, resolution: int = 128) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic point cloud: (values, component_index) arrays."""
        values: list[np.ndarray] = []
        index: list[np.ndarray] = []
        for i, comp in enumerate(self.components):
            cloud = _component_cloud(comp, resolution)
            values.append(cloud)
            index.append(np.full(cloud.shape[0], i, dtype=int))
        if not values:
            return np.zeros(0, dtype=complex), np.zeros(0, dtype=int)
        return np.concatenate(values), np.concatenate(index)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "provenance": self.provenance,
            "spectral_radius": self.spectral_radius,
            "is_closure": self.is_closure,
            "components": [_component_json(c) for c in self.components],
        }


def cloud_to_csv(s: SpectralSet, resolution: int = 128) -> str:
    """Discretized cloud as CSV text with a `re,im,component_index` header."""
    values, index = s.discretize(resolution)
    lines = ["re,im,component_index"]
    for v, i in zip(values, index):
        lines.append("%s,%s,%d" % (format(v.real, ".17g"), format(v.imag, ".17g"), i))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# eigenvalue-product enumeration


def _dedupe_key(v: complex) -> tuple[int, int]:
    return (int(round(v.real * 1e13)), int(round(v.imag * 1e13)))


def _contractive_products(
    generators: tuple[complex, ...],
    tail_tol: float,
    max_points: int = MAX_FAMILY_POINTS,
) -> list[complex]:
    """All products g^gamma over multi-exponents gamma >= 0 with modulus at
    least tail_tol, deduplicated; includes the empty product 1."""
    for g in generators:
        if abs(g) >= 1.0:
            raise NumericalInconsistency("product enumeration needs strictly contractive generators")
    vals: dict[tuple[int, int], complex] = {_dedupe_key(1.0 + 0.0j): 1.0 + 0.0j}
    for g in generators:
        r = abs(g)
        new: dict[tuple[int, int], complex] = {}
        for v in vals.values():
            w = v
            while abs(w) >= tail_tol:
                new[_dedupe_key(w)] = w
                if len(new) > max_points:
                    raise SizeCapExceeded(
                        "eigenvalue-product family exceeds %d points; raise tail_tol" % max_points
                    )
                if r == 0.0:
                    break
                w = w * g
        vals = new
    return sorted(vals.values(), key=lambda z: (-abs(z), z.real, z.imag))


def _unimodular_closure_points(
    unimodular: tuple[complex, ...],
    max_points: int = MAX_FAMILY_POINTS,
) -> list[complex] | None:
    """Closure of the multiplicative semigroup of unimodular eigenvalues.

    Returns the finite subgroup of the circle they generate when every
    angle is rational (the semigroup of roots of unity is a group), or
    None when an irrational rotation makes the closure the full circle.
    """
    fracs = []
    for lam in unimodular:
        q = rotation_order(lam)
        if q is None:
            return None
        theta = math.atan2(lam.imag, lam.real) / (2.0 * math.pi) % 1.0
        fracs.append(Fraction(theta).limit_denominator(64))
    if not fracs:
        return [1.0 + 0.0j]
    lcm = 1
    for fr in fracs:
        lcm = lcm * fr.denominator // math.gcd(lcm, fr.denominator)
    residues = [fr.numerator * (lcm // fr.denominator) for fr in fracs]
    g = lcm
    for r in residues:
        g = math.gcd(g, r)
    size = lcm // g
    if size > max_points:
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
    return tuple(sorted(points, key=lambda z: (-abs(z), z.real, z.imag)))


def spectrum(
    f: LinearFractionalMap,
    cl: Classification | None = None,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> SpectralSet:
    """Exact spectrum for the supported classes.

    Raises UnsupportedParabolic / UnsupportedAutomorphism (each carrying
    the spectral radius) for the two out-of-scope classes.
    """
    if cl is None:
        cl = classify(f)
    radius = spectral_radius(f, cl)
    kind = cl.kind

    if kind == MapClass.PARABOLIC:
        raise UnsupportedParabolic(
            "spectrum of a parabolic map is out of scope; spectral radius is 1",
            kind=kind.value,
            spectral_radius=radius,
        )
    if kind == MapClass.OTHER_AUTOMORPHISM:
        raise UnsupportedAutomorphism(
            "spectrum of a non-elliptic automorphism is out of scope; spectral radius is %g" % radius,
            kind=kind.value,
            spectral_radius=radius,
        )

    if kind == MapClass.ELLIPTIC_AUTOMORPHISM:
        subgroup = _unimodular_closure_points(cl.spectral_data.unimodular)
        if subgroup is None:
            comps: tuple = (Circle(1.0),)
            prov = ("elliptic automorphism with an irrational rotation eigenvalue: "
                    "the eigenvalue products are dense in the unit circle")
        else:
            comps = (
                PointFamily(
                    generators=tuple(cl.spectral_data.unimodular),
                    points=_sorted_points(subgroup),
                    min_total_exponent=0,
                    truncated_at=0.0,
                    accumulates_at_zero=False,
                ),
            )
            prov = ("elliptic automorphism with rational rotation eigenvalues: "
                    "spectrum is the finite subgroup of eigenvalue products")
        return SpectralSet(comps, kind.value, prov, radius)

    if kind == MapClass.ELLIPTIC_UNITARY_PART:
        data = cl.spectral_data
        subgroup = _unimodular_closure_points(data.unimodular)
        moduli_products = _contractive_products(data.contractive, tail_tol)
        if subgroup is None:
            radii = sorted({float(abs(v)) for v in moduli_products}, reverse=True)
            comps = tuple(Circle(r) for r in radii) + (Point(0.0 + 0.0j),)
            prov = ("elliptic, positive unitary index, irrational rotation present: circles "
                    "through every product of contractive eigenvalue moduli, plus 0")
        else:
            pts = []
            for u in subgroup:
                for a in moduli_products:
                    pts.append(u * a)
                    if len(pts) > MAX_FAMILY_POINTS:
                        raise SizeCapExceeded("point family exceeds %d points" % MAX_FAMILY_POINTS)
            fam = PointFamily(
                generators=tuple(data.eigenvalues),
                points=_sorted_points(pts),
                min_total_exponent=0,
                truncated_at=tail_tol,
                accumulates_at_zero=bool(data.contractive),
            )
            comps = (fam, Point(0.0 + 0.0j))
            prov = ("elliptic, positive unitary index, rational rotations only: closure of the "
                    "eigenvalue products, plus 0")
        return SpectralSet(comps, kind.value, prov, radius)

    if kind == MapClass.ELLIPTIC_INTERIOR_ONLY:
        data = cl.spectral_data
        # drop the empty product; 0 and 1 are emitted explicitly
        prods = [
            p
            for p in _contractive_products(data.contractive, tail_tol)
            if _dedupe_key(p) != _dedupe_key(1.0 + 0.0j)
        ]
        fam = PointFamily(
            generators=tuple(data.eigenvalues),
            points=_sorted_points(prods),
            min_total_exponent=1,
            truncated_at=tail_tol,
            accumulates_at_zero=True,
        )
        prov = ("elliptic, unitary index 0, no boundary fixed point: some power of the operator "
                "is compact, so the spectrum is 0, 1, and the eigenvalue products")
        return SpectralSet((Point(0.0 + 0.0j), Point(1.0 + 0.0j), fam), kind.value, prov, radius)

    if kind == MapClass.ELLIPTIC_BOUNDARY_FIXED:
        data = cl.spectral_data
        bp = cl.boundary_fixed_points[0]
        if bp.dilation is None or bp.dilation <= 1.0:
            raise NumericalInconsistency("boundary dilation should exceed 1 here")
        rho = float(bp.dilation ** (-cl.n / 2.0))
        if rho >= 1.0:
            raise NumericalInconsistency("essential radius bound %.6g should be below 1" % rho)
        prods = [
            p
            for p in _contractive_products(data.contractive, tail_tol)
            if _dedupe_key(p) != _dedupe_key(1.0 + 0.0j) and abs(p) > rho
        ]
        comps = (ClosedDisk(rho), Point(1.0 + 0.0j))
        if prods:
            comps = comps + (
                PointFamily(
                    generators=tuple(data.eigenvalues),
                    points=_sorted_points(prods),
                    min_total_exponent=1,
                    truncated_at=tail_tol,
                    accumulates_at_zero=False,
                ),
            )
        prov = ("elliptic, unitary index 0, one boundary fixed point: closed disk of the "
                "essential radius (boundary dilation to the power -N/2), the eigenvalue "
                "products, and 1")
        return SpectralSet(comps, kind.value, prov, radius)

    if kind == MapClass.HYPERBOLIC_ONE_FIXED:
        comps = (ClosedDisk(radius),)
        prov = ("hyperbolic, one boundary fixed point: spectrum = essential spectrum = closed "
                "disk of radius alpha^(-N/2)")
        return SpectralSet(comps, kind.value, prov, radius)

    if kind == MapClass.HYPERBOLIC_TWO_FIXED:
        nf = cl.normal_form
        lo = float(cl.alpha ** (cl.n / 2.0))
        hi = radius
        # distinct moduli of products of the linear-part eigenvalues; moduli
        # at 1 add nothing beyond the empty product
        gens = tuple(
            complex(abs(v)) for v in nf.eigenvalues if abs(v) < 1.0 - 1e-12
        )
        moduli = sorted(
            {float(abs(p)) for p in _contractive_products(gens, tail_tol / hi)},
            reverse=True,
        )
        annuli = tuple(
            Annulus(m * lo, m * hi, open_inner=False, open_outer=False)
            for m in moduli
            if m * hi >= tail_tol
        )
        comps = annuli + (Point(0.0 + 0.0j),)
        prov = ("hyperbolic, two boundary fixed points: closure of the annuli with radii "
                "|product| * alpha^(+-N/2) over products of the linear-part eigenvalues, "
                "plus 0")
        return SpectralSet(comps, kind.value, prov, radius, is_closure=True)
    raise NumericalInconsistency("unhandled classification %r" % kind)


# ---------------------------------------------------------------------------
# essential spectral radius estimator


@dataclass(frozen=True)
class EssentialRadiusEstimate:
    """Output of the boundary-quotient estimator.

    ``g_values[k]`` approximates the sup over the ball of the iterate
    quotient ((1-|z|^2)/(1-|phi^n(z)|^2))^(N/2) at n = k+1; ``roots`` are
    the n-th roots g_n^(1/n); ``limit`` is exp of the slope of a linear
    fit to log g_n over n in ``fit_window`` (inclusive), which strips the
    constant prefactor that biases the raw roots.
    """

    limit: float
    g_values: tuple[float, ...]
    roots: tuple[float, ...]
    fit_window: tuple[int, int]
    tau: tuple[complex, ...]
    n_max: int
    r_schedule: tuple[float, ...]
    n_directions: int


def _estimator_directions(tau: np.ndarray, n_directions: int, spread: float) -> list[np.ndarray]:
    """tau itself plus small unit-sphere perturbations around it."""
    n = tau.shape[0]
    dirs = [tau]
    if n == 1:
        k = 1
        while len(dirs) < n_directions:
            for sgn in (1.0, -1.0):
                dirs.append(tau * np.exp(1j * sgn * spread / k))
                if len(dirs) >= n_directions:
                    break
            k *= 10
        return dirs
    basis = unitary_with_first_column(tau)
    phases = (1.0, -1.0, 1.0j, -1.0j)
    for j in range(1, n):
        for ph in phases:
            if len(dirs) >= n_directions:
                return dirs
            v = tau + spread * ph * basis[:, j]
            dirs.append(v / np.linalg.norm(v))
    return dirs


def _iterate_quotient(mats: list[np.ndarray], z: np.ndarray) -> list[float]:
    """(1-|z|^2)/(1-|phi^n(z)|^2) for each accumulated iterate matrix."""
    n = z.shape[0]
    top = 1.0 - float(np.vdot(z, z).real)
    out = []
    for m in mats:
        den = m[n, :n].conj() @ z + m[n, n]
        w = (m[:n, :n] @ z + m[:n, n]) / den
        bottom = 1.0 - float(np.vdot(w, w).real)
        out.append(top / max(bottom, 1e-300))
    return out


def essential_radius_estimate(
    f: LinearFractionalMap,
    tau: np.ndarray | None = None,
    n_max: int = 20,
    r_schedule: tuple[float, ...] | None = None,
    n_directions: int = 8,
    direction_spread: float = 1e-3,
) -> EssentialRadiusEstimate:
    """Estimate the essential spectral radius from iterate boundary quotients.

    For each iterate order n the quotient ((1-|z|^2)/(1-|phi^n(z)|^2))^(N/2)
    is sampled along rays toward the distinguished boundary fixed point and
    nearby directions, Richardson-extrapolated in 1-r over the two tightest
    radii of ``r_schedule``, and maximized over directions.  The returned
    limit is exp(slope) of a least-squares line through log g_n on the last
    half of the n range; the raw n-th roots are also reported.
    """
    if tau is None:
        try:
            dw = denjoy_wolff(f)
            tau = dw.location
        except (HasInteriorFixedPoint, NoQualifyingBoundaryPoint):
            fs = fixed_points(f)
            bps = fs.boundary_points()
            if not bps:
                raise NoBoundaryFixedPoint(
                    "estimator needs a boundary fixed point or an explicit tau"
                )
            tau = bps[0].location
    tau = np.asarray(tau, dtype=complex).reshape(-1)
    tau = tau / np.linalg.norm(tau)
    if r_schedule is None:
        r_schedule = tuple(1.0 - 10.0 ** (-k) for k in range(2, 9))
    r_schedule = tuple(sorted(r_schedule))
    if len(r_schedule) < 2:
        raise ValueError("r_schedule needs at least two radii")
    eps1 = 1.0 - r_schedule[-2]
    eps2 = 1.0 - r_schedule[-1]

    dirs = _estimator_directions(tau, n_directions, direction_spread)
    half_n = f.n / 2.0

    mats: list[np.ndarray] = []
    acc = np.eye(f.n + 1, dtype=complex)
    base = f.matrix
    for _ in range(n_max):
        acc = acc @ base
        acc = acc / np.linalg.norm(acc)
        mats.append(acc.copy())

    g_values = []
    for i in range(n_max):
        best = 0.0
        for d in dirs:
            q1 = _iterate_quotient([mats[i]], r_schedule[-2] * d)[0]
            q2 = _iterate_quotient([mats[i]], r_schedule[-1] * d)[0]
            # linear extrapolation of the plain quotient to the boundary
            qstar = (eps1 * q2 - eps2 * q1) / (eps1 - eps2)
            if qstar <= 0.0:
                qstar = max(q1, q2)
            try:
                best = max(best, qstar ** half_n)
            except OverflowError:
                raise NumericalInconsistency("iterate quotient %.3g overflows at order %d" % (qstar, i + 1)) from None
        g_values.append(best)

    roots = [g ** (1.0 / (i + 1)) for i, g in enumerate(g_values)]
    lo = max(1, n_max // 2)
    ns = np.arange(lo, n_max + 1, dtype=float)
    logs = np.log(np.maximum(g_values[lo - 1:], 1e-300))
    slope = float(np.polyfit(ns, logs, 1)[0])
    return EssentialRadiusEstimate(
        limit=float(math.exp(slope)),
        g_values=tuple(float(g) for g in g_values),
        roots=tuple(float(r) for r in roots),
        fit_window=(lo, n_max),
        tau=tuple(complex(t) for t in tau),
        n_max=n_max,
        r_schedule=r_schedule,
        n_directions=len(dirs),
    )


def essential_radius_closed_form(cl: Classification) -> float | None:
    """Exact essential radius when the theory pins it down, else None."""
    if cl.kind == MapClass.ELLIPTIC_BOUNDARY_FIXED:
        bp = cl.boundary_fixed_points[0]
        return float(bp.dilation ** (-cl.n / 2.0))
    if cl.kind == MapClass.HYPERBOLIC_ONE_FIXED:
        return float(cl.alpha ** (-cl.n / 2.0))
    return None
