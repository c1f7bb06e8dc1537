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
    _c2pair,
    _cayley_matrix,
    _dominant_boundary_point,
    _jacobian,
    _rotation_block,
    _spectral_order,
    _unit_tau,
    _unitary_with_first_column,
    ball_automorphism_to_origin,
    conjugated,
    evaluate,
    fixed_points,
    is_automorphism,
)

__all__ = [
    "MapClass",
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
    eigvals = eigvals[_spectral_order(eigvals)]
    unimodular, contractive = _split_eigenvalues(eigvals)
    return EllipticSpectralData(
        fixed_point=z0,
        eigenvalues=tuple(complex(v) for v in eigvals),
        unimodular=tuple(unimodular),
        contractive=tuple(contractive),
    )


def _projective_residual(chain, m: np.ndarray, target: np.ndarray) -> float:
    """How far K m is from a multiple of target K, relative to |K m|, for K
    the product of the projective matrices in chain, applied first to last.

    The coordinate change K conjugates the map of m to the map of target
    exactly when K m and target K are proportional; the scalar c minimizing
    |K m - c target K|_F is <target K, K m> / <target K, target K>.
    """
    k = chain[0]
    for step in chain[1:]:
        k = step @ k
    km, tk = k @ m, target @ k
    c = np.vdot(tk, km) / np.vdot(tk, tk)
    return float(np.linalg.norm(km - c * tk) / np.linalg.norm(km))


def _checked_chain(labels, mats, m: np.ndarray):
    """The labelled chain of a normal form and its conjugacy residual.

    mats holds the coordinate changes in the order they apply, then the
    model matrix: the operands of ``_projective_residual`` for the map of m.
    A residual above ``TOLERANCES.conjugacy``, or a NaN one, is refused.
    """
    *steps, model = mats
    resid = _projective_residual(steps, m, model)
    if not resid <= TOLERANCES.conjugacy:
        raise NumericalInconsistency("normal-form conjugacy residual %.3g too large" % resid)
    return tuple(zip(labels, mats)), resid


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
    ``chain`` holds, as labelled projective matrices, the involution to the
    origin, the rotation z -> u* z, sigma and then the model diag(A1, 1);
    ``conjugacy_residual`` is ``_projective_residual`` of that chain.
    """

    delta: float
    a1: np.ndarray
    domain: str  # "ellipsoid" | "halfplane_like"
    r: float | None
    chain: tuple[tuple[str, np.ndarray], ...]
    conjugacy_residual: float


def _elliptic_p0_form(f: LinearFractionalMap, data: EllipticSpectralData) -> EllipticP0Form:
    """Linear model of an elliptic map with unitary index 0, at the interior
    fixed point of data.

    Steps: conjugate the fixed point to the origin by the standard
    involution, scale the associated matrix to denominator constant 1,
    solve (A* - I) V = C, and rotate V to |V| e_1 by u*.  sigma(z) =
    z / (1 - delta z_1) then conjugates the map to the linear map A1.
    """
    z0 = data.fixed_point
    aut = ball_automorphism_to_origin(z0)
    g = conjugated(f, aut)  # fixes the origin
    a = g.a / g.d
    cvec = g.c / g.d
    v = np.linalg.solve(a.conj().T - np.eye(f.n), cvec)
    delta = float(np.linalg.norm(v))
    if delta > 1.0 + TOLERANCES.unimodular:
        raise NumericalInconsistency("|V| = %.12g exceeds 1; input is not a valid self-map" % delta)
    delta = min(delta, 1.0)
    if delta < 1e-12:
        u = np.eye(f.n, dtype=complex)
    else:
        u = _unitary_with_first_column(v / delta)
    a1 = u.conj().T @ a @ u
    sigma = np.eye(f.n + 1, dtype=complex)
    sigma[f.n, 0] = -delta
    chain, resid = _checked_chain(
        ("involution_to_origin", "rotation_to_e1", "sigma", "normal_form"),
        [aut.matrix, _rotation_block(u).conj().T, sigma, _rotation_block(a1)],
        f.matrix,
    )
    if delta < 1.0 - TOLERANCES.unimodular:
        domain, r = "ellipsoid", 1.0 / math.sqrt(1.0 - delta * delta)
    else:
        domain, r = "halfplane_like", None
    return EllipticP0Form(delta=delta, a1=a1, domain=domain, r=r, chain=chain, conjugacy_residual=resid)


# ---------------------------------------------------------------------------
# hyperbolic normal form


def _eta_matrix(n: int, k1: np.ndarray, k2: complex) -> np.ndarray:
    """Heisenberg translation (z, w) -> (z + 2<w, k1> + k2, w + k1) of the
    half-plane as a projective matrix.  With k2 = |k1|^2 its inverse is
    k1 -> -k1.  With k1 real zeros, which conj leaves without a -0, it is
    the vertical translation z -> z + k2."""
    m = np.eye(n + 1, dtype=complex)
    m[0, 1:n] = 2.0 * np.conj(k1)
    m[0, n] = k2
    m[1:n, n] = k1
    return m


@dataclass(frozen=True)
class HyperbolicNormalForm:
    """Half-plane normal form of a hyperbolic non-automorphism.

    ``case`` is "one_fixed" (form (1/alpha)(z + c, A w + d) with c real
    positive, alpha c >= |d|^2) or "two_fixed" (c = d = 0; the contraction
    block is reported as a_prime = A / sqrt(alpha) of norm at most 1).
    ``chain`` holds the coordinate changes V (rotation of tau to e_1), the
    Cayley map C, eta^-1 (the Heisenberg translation that removed the
    linear term b) and nu^-1 (the pure-imaginary translation that made c
    real), then the normal matrix, as labelled projective matrices;
    ``conjugacy_residual`` is ``_projective_residual`` of that chain.
    """

    case: str
    alpha: float
    c: float
    d: np.ndarray
    a_block: np.ndarray
    a_prime: np.ndarray | None
    chain: tuple[tuple[str, np.ndarray], ...]
    conjugacy_residual: float

    @property
    def eigenvalues(self) -> tuple[complex, ...]:
        """Eigenvalues of the normalized contraction block (two-fixed case)."""
        if self.a_prime is None:
            return ()
        vals = np.linalg.eigvals(self.a_prime)
        return tuple(complex(v) for v in vals[_spectral_order(vals)])


def _hyperbolic_form(f: LinearFractionalMap, dw: FixedPoint, n_boundary: int) -> HyperbolicNormalForm:
    """Reduce a hyperbolic map with Denjoy-Wolff point dw and n_boundary
    (1 or 2) boundary fixed points to its translation-free half-plane form.

    A rotation takes the Denjoy-Wolff point to e_1 and the Cayley
    conjugation takes e_1 to infinity, where the transported map is affine;
    the entries it drops are measured by the chain's residual.  A
    Heisenberg translation with parameter k1 solving b = 2 (A* - I) k1
    removes the mixed term, and a vertical translation removes the
    imaginary part of the constant.  Maps with two boundary fixed points
    come out with c = d = 0 and are reported through the normalized block
    A' = A / sqrt(alpha).
    """
    n = f.n
    nm = n - 1  # dimension of the w block
    rotation = _rotation_block(_unitary_with_first_column(_unit_tau(f, dw.location)).conj().T)  # tau -> e_1
    cayley = _cayley_matrix(n)
    mpsi = cayley @ (rotation @ f.matrix @ rotation.conj().T) @ np.linalg.inv(cayley)
    if abs(mpsi[n, n]) < 1e-12:
        raise NumericalInconsistency("degenerate Cayley conjugation")
    mpsi /= mpsi[n, n]
    alpha = 1.0 / mpsi[0, 0].real
    hp = HalfPlaneMap(n=n, alpha=alpha, b=np.conj(mpsi[0, 1:n]) * alpha, c=complex(mpsi[0, n]) * alpha,
                      a_block=mpsi[1:n, 1:n] * alpha, d=mpsi[1:n, n] * alpha)
    if abs(alpha - dw.dilation) > 1e-8:
        raise NumericalInconsistency(
            "half-plane scaling %.12g disagrees with the boundary dilation %.12g" % (alpha, dw.dilation)
        )
    a = hp.a_block
    k1 = np.linalg.solve(a.conj().T - np.eye(nm), hp.b / 2.0) if nm else np.zeros(0, dtype=complex)
    k2 = float(np.vdot(k1, k1).real)

    eta_inv = _eta_matrix(n, -k1, k2)
    m1 = eta_inv @ hp.matrix @ _eta_matrix(n, k1, k2)
    c1 = complex(m1[0, n]) * alpha
    shift = -1j * c1.imag / (1.0 - alpha)
    nu_inv = _eta_matrix(n, np.zeros(nm), -shift)
    m2 = nu_inv @ m1 @ _eta_matrix(n, np.zeros(nm), shift)
    c_final = complex(m2[0, n]) * alpha
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
        a_prime = a / math.sqrt(alpha)  # norm at most 1 + 1e-8: HalfPlaneMap tested |A| <= sqrt(alpha)
    # the residual also measures the mixed term and Im c that the normal matrix leaves out
    normal = np.zeros((n + 1, n + 1), dtype=complex)  # (z, w) -> (1/alpha)(z + c, A w + d)
    normal[0, 0], normal[0, n], normal[n, n] = 1.0 / alpha, float(c_final.real) / alpha, 1.0
    normal[1:n, 1:n] = a / alpha
    normal[1:n, n] = d_final / alpha
    chain, resid = _checked_chain(
        ("rotation_to_e1", "cayley", "heisenberg_translation", "vertical_translation", "normal_form"),
        [rotation, cayley, eta_inv, nu_inv, normal],
        f.matrix,
    )
    return HyperbolicNormalForm(
        case=case,
        alpha=alpha,
        c=float(c_final.real),
        d=d_final,
        a_block=a,
        a_prime=a_prime,
        chain=chain,
        conjugacy_residual=resid,
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
        dw = _dominant_boundary_point(fps)
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


def _chain_steps(nf: EllipticP0Form | HyperbolicNormalForm | None) -> list[dict]:
    """Conjugation chain as labeled projective matrices: the coordinate
    changes in the order they apply, then the model."""
    return [] if nf is None else [{"kind": kind, "matrix": _c2pair(m)} for kind, m in nf.chain]


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
            "conjugacy_residual": nf.conjugacy_residual,
        }
        if nf.a_prime is not None:
            out["normal_form"]["a_prime"] = _c2pair(nf.a_prime)
            out["normal_form"]["a_prime_eigenvalues"] = _c2pair(nf.eigenvalues)
    out["conjugation_chain"] = _chain_steps(nf)
    return out
