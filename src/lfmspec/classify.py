"""Classification of ball self-maps by fixed-point geometry.

The classes are decided by (i) existence of an interior fixed point,
(ii) the automorphism test, (iii) the unitary index p = number of
unimodular eigenvalues of the differential at an interior fixed point,
and (iv) the count of boundary fixed points.  Maps without interior
fixed points carry the Denjoy-Wolff dilation alpha; alpha = 1 is the
parabolic band and alpha < 1 the hyperbolic one.

``classify`` makes this case split once, from one ``fixed_points`` pass, and
is the only place it is made: the interior fixed point, the Denjoy-Wolff
point and alpha, the elliptic spectral data with p, and the normal form the
spectral assembly consumes are all read off the ``Classification`` it
returns.  The spectral-data and normal-form constructions are private
helpers that take what ``classify`` has already found.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    GapEigenvalue,
    MultipleBoundaryFixedPoints,
    NotAFixedPoint,
    NumericalInconsistency,
)
from .maps import (
    TOLERANCES,
    FixedPoint,
    FixedPointSet,
    HalfPlaneMap,
    LinearFractionalMap,
    _ball_map_from_halfplane,
    _c2pair,
    _cayley_matrix,
    _jacobian,
    _rotation_block,
    _unitary_with_first_column,
    ball_automorphism_to_origin,
    conjugate_to_halfplane,
    conjugated,
    _denjoy_wolff_of,
    evaluate,
    fixed_points,
    is_automorphism,
    unitary_map,
)

__all__ = [
    "MapClass",
    "EllipticSpectralData",
    "EllipticP0Form",
    "HyperbolicNormalForm",
    "Classification",
    "classify",
    "classification_to_json_dict",
]


class MapClass(str, enum.Enum):
    ELLIPTIC_AUTOMORPHISM = "elliptic_automorphism"
    ELLIPTIC_UNITARY_PART = "elliptic_unitary_part"
    ELLIPTIC_INTERIOR_ONLY = "elliptic_interior_only"
    ELLIPTIC_BOUNDARY_FIXED = "elliptic_boundary_fixed"
    PARABOLIC = "parabolic"
    HYPERBOLIC_ONE_FIXED = "hyperbolic_one_fixed"
    HYPERBOLIC_TWO_FIXED = "hyperbolic_two_fixed"
    OTHER_AUTOMORPHISM = "other_automorphism"


def _split_eigenvalues(eigvals: np.ndarray) -> tuple[list[complex], list[complex]]:
    tol_unimodular, gap_edge = TOLERANCES.unimodular, TOLERANCES.contractive_gap
    unimodular: list[complex] = []
    contractive: list[complex] = []
    for lam in eigvals:
        r = abs(lam)
        if abs(r - 1.0) <= tol_unimodular:
            unimodular.append(complex(lam))
        elif r < 1.0 - gap_edge:
            contractive.append(complex(lam))
        elif r > 1.0 + tol_unimodular:
            raise NumericalInconsistency(
                "differential eigenvalue %r exceeds modulus 1 at an interior fixed point" % complex(lam)
            )
        else:
            raise GapEigenvalue(
                "eigenvalue modulus %.12g falls between the contractive bound %g and the "
                "unimodular band %g; reconsider the input" % (r, 1.0 - gap_edge, tol_unimodular)
            )
    return unimodular, contractive


@dataclass(frozen=True)
class EllipticSpectralData:
    """Differential eigenvalues at an interior fixed point, split by modulus."""

    fixed_point: np.ndarray
    eigenvalues: tuple[complex, ...]
    unimodular: tuple[complex, ...]
    contractive: tuple[complex, ...]

    @property
    def p(self) -> int:
        return len(self.unimodular)


def _elliptic_spectral_data(f: LinearFractionalMap, z0: np.ndarray) -> EllipticSpectralData:
    """Eigenvalue data of dphi at the interior fixed point z0.

    Eigenvalues are sorted into a unimodular list (within
    ``TOLERANCES.unimodular`` of the circle) and a contractive list (modulus
    below 1 - ``TOLERANCES.contractive_gap``); anything in between raises
    GapEigenvalue rather than silently picking a side.
    """
    if np.linalg.norm(evaluate(f, z0) - z0) > TOLERANCES.fixed_point:
        raise NotAFixedPoint("z0 is not fixed by the map")
    eigvals = np.linalg.eigvals(_jacobian(f, z0))
    order = np.lexsort((eigvals.imag, eigvals.real, -np.abs(eigvals)))
    eigvals = eigvals[order]
    unimodular, contractive = _split_eigenvalues(eigvals)
    return EllipticSpectralData(
        fixed_point=z0,
        eigenvalues=tuple(complex(v) for v in eigvals),
        unimodular=tuple(unimodular),
        contractive=tuple(contractive),
    )


# ---------------------------------------------------------------------------
# zero-unitary-index normal form


@dataclass(frozen=True)
class EllipticP0Form:
    """Normal form for elliptic maps whose differential has no unimodular
    eigenvalue.

    After moving the fixed point to the origin and rotating, the map is
    conjugate (by sigma(z) = z / (1 - delta z_1)) to the linear map A1 on
    an ellipsoid-like domain: delta < 1 gives the ellipsoid with half-axis
    r = (1 - delta^2)^(-1/2), and delta = 1 the half-plane-like domain
    whose closure meets the sphere at the boundary fixed point e_1.
    """

    fixed_point: np.ndarray
    delta: float
    a1: np.ndarray
    domain: str  # "ellipsoid" | "halfplane_like"
    r: float | None
    to_origin: LinearFractionalMap
    rotation: np.ndarray
    conjugacy_residual: float


def _elliptic_p0_form(f: LinearFractionalMap, data: EllipticSpectralData) -> EllipticP0Form:
    """Linear model of an elliptic map with unitary index 0, at the interior
    fixed point of data.

    Steps: conjugate the fixed point to the origin by the standard
    involution, scale the associated matrix to denominator constant 1,
    solve (A* - I) V = C, and rotate V to |V| e_1.  The conjugacy
    sigma o phi = A1 o sigma is then checked on 40 seeded interior points
    in one batch and the max residual recorded.
    """
    z0 = data.fixed_point
    aut = ball_automorphism_to_origin(z0)
    g = conjugated(f, aut)  # fixes the origin
    if np.linalg.norm(g.b) > 1e-9:
        raise NumericalInconsistency("conjugated map does not fix the origin")
    a = g.a / g.d
    cvec = g.c / g.d
    v = np.linalg.solve(a.conj().T - np.eye(f.n), cvec)
    delta = float(np.linalg.norm(v))
    if delta > 1.0 + 1e-8:
        raise NumericalInconsistency("|V| = %.12g exceeds 1; input is not a valid self-map" % delta)
    delta = min(delta, 1.0)
    if delta < 1e-12:
        u = np.eye(f.n, dtype=complex)
    else:
        u = _unitary_with_first_column(v / delta)
    a1 = u.conj().T @ a @ u

    # residual of sigma o phi_tilde = A1 o sigma on interior samples
    rng, samples = np.random.default_rng(11), 40
    pts = rng.standard_normal((samples, f.n)) + 1j * rng.standard_normal((samples, f.n))
    pts *= (rng.uniform(0.05, 0.9, size=samples) / np.linalg.norm(pts, axis=1))[:, None]
    h = np.concatenate([pts, np.ones((samples, 1))], axis=1) @ conjugated(g, unitary_map(u)).matrix.T

    def sigma(z: np.ndarray) -> np.ndarray:
        return z / (1.0 - delta * z[:, :1])

    lhs = sigma(h[:, : f.n] / h[:, f.n :])
    resid = float(np.max(np.linalg.norm(lhs - sigma(pts) @ a1.T, axis=1), initial=0.0))
    if not resid <= 1e-10:  # a NaN residual fails too
        raise NumericalInconsistency("linear-model conjugacy residual %.3g too large" % resid)

    if delta < 1.0 - TOLERANCES.unimodular:
        domain, r = "ellipsoid", 1.0 / math.sqrt(1.0 - delta * delta)
    else:
        domain, r = "halfplane_like", None
    return EllipticP0Form(
        fixed_point=z0,
        delta=delta,
        a1=a1,
        domain=domain,
        r=r,
        to_origin=aut,
        rotation=u,
        conjugacy_residual=resid,
    )


# ---------------------------------------------------------------------------
# hyperbolic normal form


def _eta_matrix(n: int, k1: np.ndarray, k2: float, inverse: bool = False) -> np.ndarray:
    """Heisenberg translation (z, w) -> (z + 2<w, k1> + k2, w + k1) of the
    half-plane as a projective matrix, or its inverse."""
    if inverse:
        k1, k2 = -k1, 2.0 * float(np.vdot(k1, k1).real) - k2
    m = np.eye(n + 1, dtype=complex)
    m[0, 1:n] = 2.0 * np.conj(k1)
    m[0, n] = k2
    m[1:n, n] = k1
    return m


def _nu_matrix(n: int, shift: complex, inverse: bool = False) -> np.ndarray:
    """Vertical translation z -> z + shift of the half-plane, or its inverse."""
    m = np.eye(n + 1, dtype=complex)
    m[0, n] = -shift if inverse else shift
    return m


@dataclass(frozen=True)
class HyperbolicNormalForm:
    """Half-plane normal form of a hyperbolic non-automorphism.

    ``case`` is "one_fixed" (form (1/alpha)(z + c, A w + d) with c real
    positive, alpha c >= |d|^2) or "two_fixed" (c = d = 0; the contraction
    block is reported as a_prime = A / sqrt(alpha) of norm at most 1).
    ``k1``/``k2`` give the Heisenberg translation that removed the linear
    term b, and ``vertical_shift`` the pure-imaginary translation that made
    c real.  ``halfplane`` is the form before those two conjugations.
    """

    case: str
    alpha: float
    c: float
    d: np.ndarray
    a_block: np.ndarray
    a_prime: np.ndarray | None
    k1: np.ndarray
    k2: float
    vertical_shift: complex
    halfplane: HalfPlaneMap
    tau: np.ndarray

    @property
    def eigenvalues(self) -> tuple[complex, ...]:
        """Eigenvalues of the normalized contraction block (two-fixed case)."""
        if self.a_prime is None:
            return ()
        vals = np.linalg.eigvals(self.a_prime)
        order = np.lexsort((vals.imag, vals.real, -np.abs(vals)))
        return tuple(complex(v) for v in vals[order])

    def normal_matrix(self) -> np.ndarray:
        n = self.halfplane.n
        m = np.zeros((n + 1, n + 1), dtype=complex)
        m[0, 0] = 1.0 / self.alpha
        m[0, n] = self.c / self.alpha
        m[1:n, 1:n] = self.a_block / self.alpha
        m[1:n, n] = self.d / self.alpha
        m[n, n] = 1.0
        return m

    def reconstructed_ball_map(self) -> LinearFractionalMap:
        """Undo the whole conjugation chain; equals the original map."""
        n = self.halfplane.n
        k1, k2, shift = self.k1, self.k2, self.vertical_shift
        m = _eta_matrix(n, k1, k2) @ _nu_matrix(n, shift) @ self.normal_matrix() \
            @ _nu_matrix(n, shift, inverse=True) @ _eta_matrix(n, k1, k2, inverse=True)
        return _ball_map_from_halfplane(m, self.halfplane.rotation)


def _hyperbolic_form(f: LinearFractionalMap, dw: FixedPoint, n_boundary: int) -> HyperbolicNormalForm:
    """Reduce a hyperbolic map with Denjoy-Wolff point dw and n_boundary
    (1 or 2) boundary fixed points to its translation-free half-plane form.

    The Denjoy-Wolff point goes to infinity under the Cayley conjugation;
    a Heisenberg translation with parameter k1 solving b = 2 (A* - I) k1
    removes the mixed term, and a vertical translation removes the
    imaginary part of the constant.  Maps with two boundary fixed points
    come out with c = d = 0 and are reported through the normalized block
    A' = A / sqrt(alpha).
    """
    hp = conjugate_to_halfplane(f, dw.location)
    alpha = hp.alpha
    if abs(alpha - dw.dilation) > 1e-8:
        raise NumericalInconsistency(
            "half-plane scaling %.12g disagrees with the boundary dilation %.12g" % (alpha, dw.dilation)
        )
    n = f.n
    nm = n - 1  # dimension of the w block
    a = hp.a_block
    k1 = np.linalg.solve(a.conj().T - np.eye(nm), hp.b / 2.0) if nm else np.zeros(0, dtype=complex)
    k2 = float(np.vdot(k1, k1).real)

    mpsi = hp.matrix
    m1 = _eta_matrix(n, k1, k2, inverse=True) @ mpsi @ _eta_matrix(n, k1, k2)
    if float(np.linalg.norm(m1[0, 1:n])) > 1e-9:
        raise NumericalInconsistency("Heisenberg conjugation failed to remove the mixed term")

    c1 = complex(m1[0, n]) * alpha
    shift = -1j * c1.imag / (1.0 - alpha)
    m2 = _nu_matrix(n, shift, inverse=True) @ m1 @ _nu_matrix(n, shift)
    c_final = complex(m2[0, n]) * alpha
    if abs(c_final.imag) > 1e-10:
        raise NumericalInconsistency("vertical translation left Im c = %.3g" % c_final.imag)
    d_final = m2[1:n, n] * alpha

    if n_boundary == 1:
        case = "one_fixed"
        a_prime = None
        if c_final.real <= 0:
            raise NumericalInconsistency("one-fixed form needs c > 0, got %.3g" % c_final.real)
    else:
        case = "two_fixed"
        if abs(c_final) > 1e-8 or float(np.linalg.norm(d_final)) > 1e-6:
            raise NumericalInconsistency("two-fixed form should have c = d = 0")
        c_final = 0.0
        d_final = np.zeros(nm, dtype=complex)
        a_prime = a / math.sqrt(alpha)
        if a_prime.size and float(np.linalg.norm(a_prime, 2)) > 1.0 + 1e-8:
            raise NumericalInconsistency("normalized block exceeds norm 1")
    return HyperbolicNormalForm(
        case=case,
        alpha=alpha,
        c=float(c_final.real),
        d=d_final,
        a_block=a,
        a_prime=a_prime,
        k1=k1,
        k2=k2,
        vertical_shift=complex(shift),
        halfplane=hp,
        tau=dw.location,
    )


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class Classification:
    kind: MapClass
    n: int
    fixed_set: FixedPointSet
    interior_fixed_point: np.ndarray | None
    boundary_fixed_points: tuple[FixedPoint, ...]
    denjoy_wolff_point: FixedPoint | None
    alpha: float | None
    automorphism: bool
    spectral_data: EllipticSpectralData | None
    normal_form: EllipticP0Form | HyperbolicNormalForm | None

    @property
    def p(self) -> int | None:
        return self.spectral_data.p if self.spectral_data is not None else None


def classify(f: LinearFractionalMap) -> Classification:
    """Full case split for a valid self-map.

    Elliptic maps (interior fixed point, possibly through a fixed slice)
    split by the automorphism test, then by unitary index, then by the
    boundary fixed-point count; the remaining maps carry a Denjoy-Wolff
    dilation and split into automorphisms, the parabolic band, and the
    hyperbolic one- and two-fixed cases.  Normal forms are attached where
    the spectral theory consumes them, from the one fixed-point set,
    Denjoy-Wolff point and elliptic spectral data found here.
    """
    fps = fixed_points(f)
    z0 = fps.interior_point()
    aut = is_automorphism(f)
    bps = fps.boundary_points()
    dw = alpha = data = nf = None
    if z0 is not None:
        data = _elliptic_spectral_data(f, z0)
        if aut:
            kind = MapClass.ELLIPTIC_AUTOMORPHISM
        elif data.p > 0:
            kind = MapClass.ELLIPTIC_UNITARY_PART
        elif len(bps) > 1:
            raise MultipleBoundaryFixedPoints(
                "elliptic map with unitary index 0 cannot fix %d boundary points" % len(bps)
            )
        else:
            kind = MapClass.ELLIPTIC_BOUNDARY_FIXED if bps else MapClass.ELLIPTIC_INTERIOR_ONLY
            nf = _elliptic_p0_form(f, data)
    else:
        dw = _denjoy_wolff_of(f, fps)
        # the parabolic band asserts dilation 1; drop the numerical dust
        alpha = 1.0 if dw.dilation >= 1.0 - TOLERANCES.parabolic_band else dw.dilation
        if aut:
            kind = MapClass.OTHER_AUTOMORPHISM
        elif alpha == 1.0:
            kind = MapClass.PARABOLIC
        elif len(bps) not in (1, 2):
            raise MultipleBoundaryFixedPoints("hyperbolic map fixing %d boundary points" % len(bps))
        else:
            kind = MapClass.HYPERBOLIC_ONE_FIXED if len(bps) == 1 else MapClass.HYPERBOLIC_TWO_FIXED
            nf = _hyperbolic_form(f, dw, len(bps))
    return Classification(
        kind=kind,
        n=f.n,
        fixed_set=fps,
        interior_fixed_point=z0,
        boundary_fixed_points=bps,
        denjoy_wolff_point=dw,
        alpha=alpha,
        automorphism=aut,
        spectral_data=data,
        normal_form=nf,
    )


# ---------------------------------------------------------------------------
# serialization


def _chain_steps(nf: EllipticP0Form | HyperbolicNormalForm | None, n: int) -> list[dict]:
    """Conjugation chain as labeled projective matrices, outermost first."""
    if nf is None:
        return []
    if isinstance(nf, EllipticP0Form):
        return [
            {"kind": "involution_to_origin", "matrix": _c2pair(nf.to_origin.matrix)},
            {"kind": "rotation", "matrix": _c2pair(_rotation_block(nf.rotation))},
        ]
    return [
        {"kind": "rotation_to_e1", "matrix": _c2pair(_rotation_block(nf.halfplane.rotation))},
        {"kind": "cayley", "matrix": _c2pair(_cayley_matrix(n))},
        {"kind": "heisenberg_translation", "matrix": _c2pair(_eta_matrix(n, nf.k1, nf.k2, inverse=True))},
        {"kind": "vertical_translation", "matrix": _c2pair(_nu_matrix(n, nf.vertical_shift, inverse=True))},
        {"kind": "normal_form", "matrix": _c2pair(nf.normal_matrix())},
    ]


def classification_to_json_dict(cl: Classification) -> dict:
    out: dict = {"kind": cl.kind.value, "N": cl.n, "automorphism": cl.automorphism}
    out["interior_fixed_point"] = None if cl.interior_fixed_point is None else _c2pair(cl.interior_fixed_point)
    out["boundary_fixed_points"] = [
        {"location": _c2pair(p.location), "dilation": p.dilation} for p in cl.boundary_fixed_points
    ]
    if cl.fixed_set.slice_dim is not None:
        out["fixed_slice"] = {
            "dimension": cl.fixed_set.slice_dim,
            "whole_ball": cl.fixed_set.whole_ball,
            "representative": _c2pair(cl.fixed_set.slice_point),
        }
    out["at_infinity"] = [_c2pair(v) for v in cl.fixed_set.at_infinity]
    out["alpha"] = cl.alpha
    if cl.denjoy_wolff_point is not None:
        out["denjoy_wolff"] = _c2pair(cl.denjoy_wolff_point.location)
    if cl.spectral_data is not None:
        out["p"] = cl.spectral_data.p
        out["eigenvalues"] = _c2pair(cl.spectral_data.eigenvalues)
        out["unimodular_eigenvalues"] = _c2pair(cl.spectral_data.unimodular)
        out["contractive_eigenvalues"] = _c2pair(cl.spectral_data.contractive)
    nf = cl.normal_form
    if isinstance(nf, EllipticP0Form):
        out["normal_form"] = {
            "model": "linear_on_ellipsoid",
            "delta": nf.delta,
            "domain": nf.domain,
            "r": nf.r,
            "linear_part": _c2pair(nf.a1),
            "conjugacy_residual": nf.conjugacy_residual,
        }
    elif isinstance(nf, HyperbolicNormalForm):
        out["normal_form"] = {
            "model": "halfplane_affine",
            "case": nf.case,
            "alpha": nf.alpha,
            "c": nf.c,
            "d": _c2pair(nf.d),
            "a_block": _c2pair(nf.a_block),
        }
        if nf.a_prime is not None:
            out["normal_form"]["a_prime"] = _c2pair(nf.a_prime)
            out["normal_form"]["a_prime_eigenvalues"] = _c2pair(nf.eigenvalues)
    out["conjugation_chain"] = _chain_steps(nf, cl.n)
    return out
