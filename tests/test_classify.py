"""Classification dispatch, the two normal-form constructions, and the
classification JSON serialization."""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lfmspec as L
from lfmspec import LinearFractionalMap, MapClass
from lfmspec.classify import (
    _checked_chain,
    _elliptic_spectral_data,
    _projective_residual,
    classification_to_json_dict,
)
from lfmspec.maps import _ball_map_from_halfplane, _spectral_order


def lfm_1d(a, b, c, d):
    return LinearFractionalMap([[a]], [b], [c], d)


def two_fixed_plant(a, *rest):
    """Ball map whose Siegel transport is (2 zeta, sqrt(2) diag(a, *rest) omega)."""
    n = 2 + len(rest)
    hp = L.HalfPlaneMap(
        n=n,
        alpha=0.5,
        b=np.zeros(n - 1, dtype=complex),
        c=0.0 + 0.0j,
        a_block=np.diag(np.array((a,) + rest, dtype=complex)) * math.sqrt(0.5),
        d=np.zeros(n - 1, dtype=complex),
    )
    return hp.pulled_back_to_ball()


# ---------------------------------------------------------------------------
# kind dispatch


KIND_GALLERY = [
    (lambda: lfm_1d(1j, 0, 0, 1), MapClass.ELLIPTIC_AUTOMORPHISM),
    (lambda: LinearFractionalMap([[1j, 0], [0, 0.5]], [0, 0], [0, 0], 1),
     MapClass.ELLIPTIC_UNITARY_PART),
    (lambda: LinearFractionalMap([[0.5, 0], [0, 1 / 3]], [0, 0], [0, 0], 1),
     MapClass.ELLIPTIC_INTERIOR_ONLY),
    (lambda: lfm_1d(1, 0, -1, 2), MapClass.ELLIPTIC_BOUNDARY_FIXED),
    (lambda: lfm_1d(1, 1, -1, 3), MapClass.PARABOLIC),
    (lambda: lfm_1d(0.5, 0.5, 0, 1), MapClass.HYPERBOLIC_ONE_FIXED),
    (lambda: two_fixed_plant(0.6), MapClass.HYPERBOLIC_TWO_FIXED),
    (lambda: lfm_1d(1, 0.5, 0.5, 1), MapClass.OTHER_AUTOMORPHISM),
]


@pytest.mark.parametrize("make,expected", KIND_GALLERY, ids=[k.value for _, k in KIND_GALLERY])
def test_kind_dispatch(make, expected):
    cl = L.classify(make())
    assert cl.kind == expected


def test_parabolic_alpha_snapped():
    cl = L.classify(lfm_1d(1, 1, -1, 3))
    assert cl.alpha == 1.0
    assert cl.normal_form is None


def test_involution_is_elliptic_automorphism():
    # the point-to-origin involution fixes an interior point
    s = L.ball_automorphism_to_origin(np.array([0.3, 0.1j]))
    cl = L.classify(s)
    assert cl.kind == MapClass.ELLIPTIC_AUTOMORPHISM
    assert cl.automorphism


# ---------------------------------------------------------------------------
# elliptic spectral data


def test_spectral_data_splits_eigenvalues():
    f = LinearFractionalMap([[1j, 0], [0, 0.5]], [0, 0], [0, 0], 1)
    data = L.classify(f).spectral_data
    assert data.p == 1
    assert [abs(x) for x in data.unimodular] == pytest.approx([1.0])
    assert list(data.contractive) == pytest.approx([0.5])


def test_unitary_index_of_rotation():
    assert L.classify(lfm_1d(1j, 0, 0, 1)).p == 1
    assert L.classify(lfm_1d(0.5, 0, 0, 1)).p == 0


def test_gap_eigenvalue_raises():
    # modulus in the guard band between contractive and unimodular
    f = lfm_1d(1 - 1e-7, 0, 0, 1)
    with pytest.raises(L.GapEigenvalue):
        L.classify(f)


def test_rotation_order():
    assert L.classify(lfm_1d(1j, 0, 0, 1)).kind == MapClass.ELLIPTIC_AUTOMORPHISM
    from lfmspec.spectra import _rotation_fraction

    assert _rotation_fraction(1j) == (1, 4)
    assert _rotation_fraction(np.exp(2j * math.pi / 7)) == (1, 7)
    assert _rotation_fraction(np.exp(2j * math.pi * (math.sqrt(2) - 1))) is None


# ---------------------------------------------------------------------------
# elliptic p=0 normal form


def test_p0_form_boundary_case():
    nf = L.classify(lfm_1d(1, 0, -1, 2)).normal_form
    assert nf.delta == pytest.approx(1.0, abs=1e-12)
    assert nf.domain == "halfplane_like"
    assert nf.conjugacy_residual < 1e-10


def test_p0_form_ellipsoid_case():
    nf = L.classify(lfm_1d(1, 0, -1, 4)).normal_form
    assert nf.delta == pytest.approx(1 / 3, abs=1e-12)
    assert nf.domain == "ellipsoid"
    assert nf.r == pytest.approx((1 - 1 / 9) ** -0.5, abs=1e-12)
    assert nf.conjugacy_residual < 1e-10


def test_p0_form_off_origin_fixed_point():
    # conjugate the ellipsoid case by an automorphism: same delta
    base = lfm_1d(1, 0, -1, 4)
    s = L.ball_automorphism_to_origin(np.array([0.35 - 0.2j]))
    moved = L.conjugated(base, s)
    nf = L.classify(moved).normal_form
    assert nf.delta == pytest.approx(1 / 3, abs=1e-9)
    assert nf.conjugacy_residual < 1e-10


# ---------------------------------------------------------------------------
# hyperbolic normal form


def test_one_fixed_normal_form():
    f = LinearFractionalMap([[0.5, 0], [0, 0.5]], [0.5, 0], [0, 0], 1)
    nf = L.classify(f).normal_form
    assert nf.case == "one_fixed"
    assert nf.alpha == pytest.approx(0.5, abs=1e-10)
    assert nf.c.real > 0 and abs(nf.c.imag) < 1e-10
    assert np.allclose(nf.d, 0, atol=1e-10)


def _undone_chain(mats):
    """The ball map K^-1 T K, for K the coordinate changes of a chain's
    matrices mats and T its last, the model."""
    *steps, normal = mats
    k = np.eye(len(normal), dtype=complex)
    for step in steps:
        k = step @ k
    return LinearFractionalMap.from_matrix(np.linalg.solve(k, normal @ k))


def test_one_fixed_reconstruction():
    f = LinearFractionalMap([[0.5, 0], [0, 0.5]], [0.5, 0], [0, 0], 1)
    nf = L.classify(f).normal_form
    g = _undone_chain([m for _, m in nf.chain])
    assert np.linalg.norm(g.matrix - f.matrix) < 1e-9  # both normalized: equal maps, equal matrices


def test_two_fixed_normal_form_real():
    f = two_fixed_plant(0.8)
    nf = L.classify(f).normal_form
    assert nf.case == "two_fixed"
    assert nf.alpha == pytest.approx(0.5, abs=1e-9)
    assert nf.eigenvalues[0] == pytest.approx(0.8, abs=1e-9)
    assert abs(nf.c) < 1e-10 and np.allclose(nf.d, 0)


def test_two_fixed_normal_form_complex():
    a = 0.5 * np.exp(1j * math.pi / 3)
    f = two_fixed_plant(a)
    nf = L.classify(f).normal_form
    assert nf.case == "two_fixed"
    assert nf.eigenvalues[0] == pytest.approx(a, abs=1e-9)


def test_two_fixed_reconstruction():
    f = two_fixed_plant(0.8)
    nf = L.classify(f).normal_form
    g = _undone_chain([m for _, m in nf.chain])
    assert np.linalg.norm(g.matrix - f.matrix) < 1e-9  # both normalized: equal maps, equal matrices


def test_conjugated_one_fixed_still_normalizes():
    # moving the Denjoy-Wolff point off e1 forces nontrivial rotation,
    # Heisenberg, and vertical-translation steps
    base = LinearFractionalMap([[0.5, 0], [0, 0.5]], [0.5, 0], [0, 0], 1)
    s = L.ball_automorphism_to_origin(np.array([0.2 + 0.1j, -0.25j]))
    f = L.conjugated(base, s)
    cl = L.classify(f)
    assert cl.kind == MapClass.HYPERBOLIC_ONE_FIXED
    nf = cl.normal_form
    assert nf.alpha == pytest.approx(0.5, abs=1e-9)
    assert nf.case == "one_fixed"
    # the normal form has no linear-in-w numerator term and real c
    assert np.allclose(nf.chain[-1][1][0, 1:-1], 0, atol=1e-9)
    assert abs(nf.c.imag) < 1e-9 and nf.c.real > 0


@pytest.mark.parametrize("c", [1 + 100j, 1 - 100j], ids=["up", "down"])
def test_large_vertical_shift_keeps_its_normal_form(c):
    # ((zeta + c) / 0.9999, 0.5 omega / 0.9999): the vertical translation
    # removes a shift of |Im c| / (1 - alpha) = 1e6, and what it leaves of
    # Im c is rounding relative to that size
    alpha = 0.9999
    f = siegel_plant([[1 / alpha, 0, c / alpha], [0, 0.5 / alpha, 0], [0, 0, 1]])
    assert L.validate_self_map(f).ok
    cl = L.classify(f)
    assert cl.kind == MapClass.HYPERBOLIC_ONE_FIXED
    assert cl.alpha == pytest.approx(alpha, abs=1e-6)
    assert cl.normal_form.c == pytest.approx(1.0, abs=1e-6)


def test_one_fixed_form_has_no_block_eigenvalues():
    nf = L.classify(lfm_1d(0.5, 0.5, 0, 1)).normal_form
    assert nf.case == "one_fixed" and nf.a_prime is None
    assert nf.eigenvalues == ()


# ---------------------------------------------------------------------------
# hyperbolic invariants


def test_alpha_matches_boundary_dilation():
    for make, kind in KIND_GALLERY:
        cl = L.classify(make())
        if cl.kind in (MapClass.HYPERBOLIC_ONE_FIXED, MapClass.HYPERBOLIC_TWO_FIXED):
            assert cl.alpha == pytest.approx(cl.denjoy_wolff_point.dilation, abs=1e-10)


def test_two_fixed_block_is_contraction():
    nf = L.classify(two_fixed_plant(0.95)).normal_form
    assert abs(nf.eigenvalues[0]) <= 1.0 + 1e-9


def test_spectral_data_refuses_a_point_that_is_not_fixed():
    # classify passes only fixed_points' interior point; the check guards that contract
    with pytest.raises(L.NotAFixedPoint, match="z0 is not fixed"):
        _elliptic_spectral_data(lfm_1d(0.5, 0, 0, 1), np.array([0.5]))


@pytest.mark.parametrize("eigenvalues", [
    lambda: L.classify(LinearFractionalMap(
        np.diag(np.exp(2j * np.pi * np.random.default_rng(7).random(2))), [0, 0], [0, 0], 1,
    )).spectral_data.eigenvalues,
    lambda: L.classify(two_fixed_plant(
        *0.9 * np.exp(2j * np.pi * np.random.default_rng(6).random(2)),
    )).normal_form.eigenvalues,
], ids=["elliptic", "two_fixed"])
def test_eigenvalues_in_spectral_order(eigenvalues):
    # two eigenvalues of one modulus, which np.abs and np.hypot round apart
    # in opposite directions: classify orders them as spectra and series do
    eigs = np.array(eigenvalues())
    assert list(_spectral_order(eigs)) == list(range(eigs.size))


# ---------------------------------------------------------------------------
# maps that do not send the open ball into itself


def siegel_plant(m):
    """The ball map whose Cayley transport at e_1 is the projective matrix m
    on the Siegel half-plane, with no self-map constraint checked."""
    m = np.asarray(m, dtype=complex)
    return _ball_map_from_halfplane(m)


def eigenvector_plant(points, eigenvalues):
    """The map whose associated matrix has eigenvector (p, 1) for p in points."""
    p = np.array([list(pt) + [1] for pt in points], dtype=complex).T
    return LinearFractionalMap.from_matrix(p @ np.diag(eigenvalues) @ np.linalg.inv(p))


# each reaches a refusal that a self-map never meets; Siegel plants read
# (zeta, omega) -> ((zeta + c) / alpha, (a omega + d) / alpha)
NOT_SELF_MAPS = {
    "expanding_at_interior_point": (lambda: lfm_1d(2, 0, 0, 1), L.NumericalInconsistency,
                                    "eigenvalue .* exceeds modulus 1"),
    # 0.5 z / (1 - 0.6 z): (A* - I) V = C has |V| = 1.2
    "V_outside_ball": (lambda: lfm_1d(0.5, 0, -0.6, 1), L.NumericalInconsistency, r"\|V\| = 1.2 exceeds 1"),
    "elliptic_two_boundary_points": (
        lambda: eigenvector_plant([(0, 0), (1, 0), (0, 1)], [1, 0.5, 0.6]),
        L.MultipleBoundaryFixedPoints, "unitary index 0 cannot fix 2"),
    # dilations 0.3 at e_1, 1.3 and 10 / 3: one Denjoy-Wolff candidate
    "hyperbolic_three_boundary_points": (
        lambda: eigenvector_plant([(1, 0), (-1, 0), (0, 1)], [0.3, 1, 0.5]),
        L.MultipleBoundaryFixedPoints, "fixing 3 boundary points"),
    # dilations 0.5 at e_1 and 0.9375 at e_2 (2 at -e_1): e_1 has the largest eigenvalue, and
    # the Denjoy-Wolff point is not alone on the sphere
    "two_attracting_boundary_points": (
        lambda: eigenvector_plant([(1, 0), (-1, 0), (0, 1)], [1, 0.5, 0.8]),
        L.MultipleBoundaryFixedPoints, "hyperbolic map fixing 3 boundary points"),
    # dilations 1.1 at e_1, 1.5625 at e_2 and 1.84 at (0.6, 0.8): e_1, of the largest eigenvalue, repels
    "every_boundary_point_repels": (
        lambda: eigenvector_plant([(1, 0), (0, 1), (0.6, 0.8)], [1, 0.8, 0.5]),
        L.NoQualifyingBoundaryPoint, r"largest eigenvalue modulus has dilation 1.1 > 1"),
    # the constant 1, onto the sphere: Denjoy-Wolff dilation 0, no finite Cayley denominator
    "constant_on_sphere": (lambda: lfm_1d(0, 1, 0, 1), L.NumericalInconsistency, "degenerate Cayley"),
    # angular derivative 0.5 + 20i at 1: dilation 0.5, half-plane scaling 1 / Re(1 / (0.5 + 20i))
    "complex_angular_derivative": (lambda: siegel_plant([[1 / (0.5 + 20j), -100j], [0, 1]]),
                                   L.NumericalInconsistency,
                                   "half-plane scaling .* disagrees with the boundary dilation 0.5"),
    # half-plane scaling 1 / Re(2 + i) = 0.5, boundary dilation Re 1 / (2 + i) = 0.4
    "complex_halfplane_scaling": (lambda: siegel_plant([[2 + 1j, 1], [0, 1]]),
                                  L.NumericalInconsistency, "scaling 0.5 disagrees with the boundary dilation 0.4"),
    # alpha 0.5, c 0.1, d 1
    "alpha_c_below_d_squared": (lambda: siegel_plant([[2, 0, 0.2], [0, 1, 2], [0, 0, 1]]),
                                L.NumericalInconsistency, r"alpha Re c >= \|d\|\^2 fails"),
    # alpha 0.5, a 1
    "block_above_sqrt_alpha": (lambda: siegel_plant(np.diag([2, 2, 1])),
                               L.NumericalInconsistency, r"\|A\| <= sqrt\(alpha\) fails"),
    # alpha 1e-4, a 0.01 (1 + 5e-8): 5e-10 above sqrt(alpha), outside its relative 1e-8 band
    "block_above_sqrt_alpha_in_band": (lambda: siegel_plant(np.diag([1e4, 100 * (1 + 5e-8), 1])),
                                       L.NumericalInconsistency, r"\|A\| <= sqrt\(alpha\) fails"),
    # alpha 0.25, c -1e-10, a 0.25, d 1e-5: the finite fixed point leaves for infinity
    "one_fixed_c_negative": (lambda: siegel_plant([[4, 0, -4e-10], [0, 1, 4e-5], [0, 0, 1]]),
                             L.NumericalInconsistency, "one-fixed form needs c > 0"),
    # alpha 0.5, c -2e-10, a 0, d 1e-5: the second fixed point (4e-10, 2e-5) is on the boundary
    "two_fixed_d_nonzero": (lambda: siegel_plant([[2, 0, -4e-10], [0, 0, 2e-5], [0, 0, 1]]),
                            L.NumericalInconsistency, "two-fixed form should have c = d = 0"),
}


@pytest.mark.parametrize("make,error,match", NOT_SELF_MAPS.values(), ids=NOT_SELF_MAPS.keys())
def test_classify_refuses_non_self_map(make, error, match):
    f = make()
    assert L.validate_self_map(f).max_modulus >= 1.0
    with pytest.raises(error, match=match):
        L.classify(f)


@pytest.mark.parametrize("alpha", [1e-4, 0.25, 0.81])
@pytest.mark.parametrize("c", [1, 0], ids=["one_fixed", "two_fixed"])
def test_block_above_sqrt_alpha_is_refused_at_every_scale(c, alpha):
    # |A| = sqrt(alpha) (1 + 5e-8) is judged at one relative scale, whatever alpha
    a = math.sqrt(alpha) * (1 + 5e-8)
    f = siegel_plant(np.array([[1, 0, c], [0, a, 0], [0, 0, alpha]]) / alpha)
    with pytest.raises(L.NumericalInconsistency, match=r"\|A\| <= sqrt\(alpha\) fails"):
        L.classify(f)


# ---------------------------------------------------------------------------
# near-parabolic plants: two boundary fixed points, or one


def _sweep_conjugations():
    """No conjugation, then three ball automorphisms at distance 0.4 from 0."""
    rng = np.random.default_rng(23)
    centres = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
    return [None] + [L.ball_automorphism_to_origin(0.4 * v / np.linalg.norm(v)) for v in centres]


SWEEP_CONJUGATIONS = _sweep_conjugations()
PLANTED = {0: MapClass.HYPERBOLIC_TWO_FIXED, 1j: MapClass.HYPERBOLIC_TWO_FIXED,
           0.5 + 1j: MapClass.HYPERBOLIC_ONE_FIXED}
AT_ZERO = {0: MapClass.ELLIPTIC_UNITARY_PART, 1j: MapClass.PARABOLIC, 0.5 + 1j: MapClass.PARABOLIC}


@pytest.mark.parametrize("conjugation", range(4), ids=["plain", "aut1", "aut2", "aut3"])
@pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 2e-8, 1e-8, 5e-9, 0])
@pytest.mark.parametrize("c", list(PLANTED), ids=["c=0", "c=i", "c=0.5+i"])
def test_near_parabolic_sweep(c, eps, conjugation):
    # ((zeta + c) / alpha, 0.5 omega / alpha) with alpha = 1 - eps: two boundary fixed
    # points when Re c = 0 and one otherwise; at eps = 0 a fixed slice (c = 0) or parabolic
    f = siegel_plant(np.array([[1, 0, c], [0, 0.5, 0], [0, 0, 1 - eps]]) / (1 - eps))
    if SWEEP_CONJUGATIONS[conjugation] is not None:
        f = L.conjugated(f, SWEEP_CONJUGATIONS[conjugation])
    if eps >= 1e-6:
        assert L.classify(f).kind == PLANTED[c]
    elif eps == 0:
        assert L.classify(f).kind == AT_ZERO[c]
    else:
        # the tie band: at eps = 1e-7 the two boundary eigenvalues of the associated
        # matrix are about 5e-8, or 3 eps kappa, apart, and rounding splits the Jordan
        # pair of a conjugated parabolic map by up to 6.5 eps kappa, so the eigenvalues
        # cannot tell the two apart; any of these answers, or a typed refusal, is sound
        try:
            kind = L.classify(f).kind
        except L.BallMapError:
            return
        assert kind in (PLANTED[c], MapClass.PARABOLIC, AT_ZERO[c])


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("make,expected", KIND_GALLERY, ids=[k.value for _, k in KIND_GALLERY])
def test_serialization_all_kinds(make, expected):
    cl = L.classify(make())
    d = classification_to_json_dict(cl)
    assert d["kind"] == expected.value
    assert d["N"] == cl.n
    if cl.alpha is not None:
        assert d["alpha"] == pytest.approx(cl.alpha)
    # chain steps must each carry a matrix
    for step in d.get("conjugation_chain", []):
        assert "matrix" in step and "kind" in step


@pytest.mark.parametrize("f, kind, dim, whole", [
    (LinearFractionalMap(np.diag([1, 0.5]), [0, 0], [0, 0], 1), MapClass.ELLIPTIC_UNITARY_PART, 1, False),
    (LinearFractionalMap(np.eye(3), [0, 0, 0], [0, 0, 0], 1), MapClass.ELLIPTIC_AUTOMORPHISM, 3, True),
], ids=["slice.n2", "identity.n3"])
def test_serialized_fixed_slice(f, kind, dim, whole):
    d = classification_to_json_dict(L.classify(f))
    assert d["kind"] == kind.value
    assert d["fixed_slice"] == {"dimension": dim, "whole_ball": whole, "representative": [[0.0, 0.0]] * f.n}


def test_serialized_chain_reproduces_two_fixed():
    cl = L.classify(two_fixed_plant(0.6))
    d = classification_to_json_dict(cl)
    roles = [s["kind"] for s in d["conjugation_chain"]]
    assert "cayley" in roles and "normal_form" in roles


# ---------------------------------------------------------------------------
# one fixed-point pass per classification, shared with the normal forms


@pytest.mark.parametrize("make,expected", KIND_GALLERY, ids=[k.value for _, k in KIND_GALLERY])
def test_classify_solves_fixed_points_once(make, expected, monkeypatch):
    f = make()
    calls = []
    solve = sys.modules["lfmspec.maps"].fixed_points

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    # lfmspec.classify the attribute is the function; the modules come from sys.modules
    for name in ("lfmspec.maps", "lfmspec.classify"):
        monkeypatch.setattr(sys.modules[name], "fixed_points", counted)
    assert L.classify(f).kind == expected
    assert len(calls) == 1


def _p0_and_hyperbolic_maps():
    """Gallery maps with a normal form, N = 3 analogues, and their conjugates
    by the involutions at seeded centres."""
    base = [make() for make, kind in KIND_GALLERY if kind in (
        MapClass.ELLIPTIC_INTERIOR_ONLY, MapClass.ELLIPTIC_BOUNDARY_FIXED,
        MapClass.HYPERBOLIC_ONE_FIXED, MapClass.HYPERBOLIC_TWO_FIXED)]
    base += [
        LinearFractionalMap(np.diag([0.5, 1 / 3, 0.25]), np.zeros(3), np.zeros(3), 1),
        LinearFractionalMap(np.diag([1, 0.4, 0.4]), np.zeros(3), [-1, 0, 0], 2),
        LinearFractionalMap(0.5 * np.eye(3), [0.5, 0, 0], np.zeros(3), 1),
        two_fixed_plant(0.6, 0.3j),
        lfm_1d(1, 0, -1, 4),
    ]
    rng = np.random.default_rng(3)
    out = []
    for f in base:
        out.append(f)
        for _ in range(2):
            a = rng.standard_normal(f.n) + 1j * rng.standard_normal(f.n)
            a *= rng.uniform(0.1, 0.5) / np.linalg.norm(a)
            out.append(L.conjugated(f, L.ball_automorphism_to_origin(a)))
    return out


def _pointwise_conjugacy_error(nf, f):
    """max over seeded points z of the ball of |K(phi(z)) - T(K(z))| / (1 + |T(K(z))|), one
    ``evaluate`` and matvec each, with K and T acting as maps of points."""
    *steps, model = [m for _, m in nf.chain]
    k = np.linalg.multi_dot(steps[::-1])
    n = f.n

    def act(m, z):
        h = m @ np.append(z, 1.0)
        return h[:n] / h[n]

    rng = np.random.default_rng(11)
    err = 0.0
    for _ in range(40):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z *= rng.uniform(0.05, 0.9) / np.linalg.norm(z)
        rhs = act(model, act(k, z))
        err = max(err, float(np.linalg.norm(act(k, L.evaluate(f, z)) - rhs)) / (1.0 + float(np.linalg.norm(rhs))))
    return err


def test_projective_residual_matches_the_pointwise_conjugacy():
    forms = {L.EllipticP0Form: 0, L.HyperbolicNormalForm: 0}
    for f in _p0_and_hyperbolic_maps():
        cl = L.classify(f)
        nf = cl.normal_form
        forms[type(nf)] += 1
        assert nf.conjugacy_residual <= 1e-14
        assert _pointwise_conjugacy_error(nf, f) <= 1e-13
        # the printed chain, read back from its JSON text, is the one record
        # of the conjugacy: its steps and its last entry, the model, give
        # the reported residual bit for bit, and undo to the map itself
        d = json.loads(json.dumps(classification_to_json_dict(cl)))
        assert d["conjugation_chain"][-1]["kind"] == "normal_form"
        *steps, model = mats = [_pairs_to_matrix(step["matrix"]) for step in d["conjugation_chain"]]
        assert _projective_residual(steps, f.matrix, model) == d["normal_form"]["conjugacy_residual"]
        assert d["normal_form"]["conjugacy_residual"] == nf.conjugacy_residual
        assert np.linalg.norm(_undone_chain(mats).matrix - f.matrix) < 1e-9
        # a model off by 1e-8 in one entry is seen, and the form refused
        bumped = model.copy()
        bumped[0, 0] += 1e-8
        assert _projective_residual(steps, f.matrix, bumped) >= 1e-9
        with pytest.raises(L.NumericalInconsistency, match="conjugacy residual"):
            _checked_chain([label for label, _ in nf.chain], steps + [bumped], f.matrix)
    assert min(forms.values()) >= 10


def _pairs_to_matrix(pairs) -> np.ndarray:
    """The complex matrix of ``_c2pair``'s [re, im] pairs, signs of zeros kept."""
    return np.asarray(pairs, dtype=float).view(complex)[..., 0]


def test_classification_json_reports_the_residual_of_both_forms():
    for make, kind in KIND_GALLERY:
        d = classification_to_json_dict(L.classify(make()))
        has_form = kind in (MapClass.ELLIPTIC_BOUNDARY_FIXED, MapClass.ELLIPTIC_INTERIOR_ONLY,
                            MapClass.HYPERBOLIC_ONE_FIXED, MapClass.HYPERBOLIC_TWO_FIXED)
        assert ("normal_form" in d) == has_form
        if has_form:
            assert 0.0 <= d["normal_form"]["conjugacy_residual"] <= 1e-14


# ---------------------------------------------------------------------------
# hypothesis properties


@st.composite
def hyperbolic_plants_moved(draw):
    """A hyperbolic half-plane plant with a diagonal block, its moduli in
    [0.1, 0.9] sqrt(alpha), one-fixed (c in [0.2, 2]) or two-fixed (c = 0),
    pulled back to the ball and conjugated by the involution s of a point a
    with |a| <= 0.6; returns the map, s, alpha and whether c = 0."""
    n = draw(st.sampled_from([1, 2, 3]))
    alpha = draw(st.floats(0.1, 0.9))
    two_fixed = draw(st.booleans())
    c = 0.0 if two_fixed else draw(st.floats(0.2, 2.0))
    block = [draw(st.floats(0.1, 0.9)) * math.sqrt(alpha) * np.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
             for _ in range(n - 1)]
    hp = L.HalfPlaneMap(n=n, alpha=alpha, b=np.zeros(n - 1, dtype=complex), c=complex(c),
                        a_block=np.diag(np.array(block, dtype=complex)).reshape(n - 1, n - 1),
                        d=np.zeros(n - 1, dtype=complex))
    a = np.array([complex(draw(st.floats(-1, 1)), draw(st.floats(-1, 1))) for _ in range(n)])
    norm = np.linalg.norm(a)
    a = a / norm * draw(st.floats(0.0, 0.6)) if norm > 1e-3 else np.zeros(n, dtype=complex)
    s = L.ball_automorphism_to_origin(a)
    return L.conjugated(hp.pulled_back_to_ball(), s), s, alpha, two_fixed


@given(hyperbolic_plants_moved())
@settings(max_examples=40, deadline=None)
def test_hyperbolic_class_is_invariant_under_ball_automorphisms(plant):
    # the involution s carries the plant's Denjoy-Wolff point e_1 to s(e_1), and
    # keeps its class, its dilation alpha and its angular derivative there
    f, s, alpha, two_fixed = plant
    cl = L.classify(f)
    if not two_fixed:
        assert cl.kind == MapClass.HYPERBOLIC_ONE_FIXED
    else:
        assert cl.kind == (MapClass.OTHER_AUTOMORPHISM if f.n == 1 else MapClass.HYPERBOLIC_TWO_FIXED)
    assert abs(cl.alpha - alpha) <= 1e-8
    tau = L.evaluate(s, np.eye(f.n)[0])
    assert np.linalg.norm(cl.denjoy_wolff_point.location - tau) <= 1e-8
    least = min(cl.boundary_fixed_points, key=lambda p: p.dilation)
    assert np.linalg.norm(least.location - tau) <= 1e-8
    assert abs(L.essential_radius_estimate(f).angular_derivative - alpha) <= 1e-8
