"""Core map algebra: evaluation, composition, fixed points, Denjoy-Wolff,
automorphisms, half-plane transport, validation, JSON round trips, and the
declared public surface."""

import contextlib
import io
import json
import math
import os
import re
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import lfmspec as L
from lfmspec import (
    DenominatorVanishes,
    LinearFractionalMap,
    MapFormatError,
)
from lfmspec.cli import EXIT_VALIDATION, main
from lfmspec.maps import (
    TOLERANCES,
    _ball_map_from_halfplane,
    _c2pair,
    _j_form,
    _jacobian,
    _krein_certificate,
    _spectral_order,
    _unitary_with_first_column,
)


BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def lfm_1d(a, b, c, d):
    return LinearFractionalMap([[a]], [b], [c], d)


@pytest.fixture
def cayley_like():
    # z/(2-z): fixes 0 and 1, boundary derivative 2
    return lfm_1d(1, 0, -1, 2)


# ---------------------------------------------------------------------------
# construction and evaluation


def test_normalization_is_canonical(cayley_like):
    m = cayley_like.matrix
    assert abs(np.linalg.norm(m) - 1.0) < 1e-14
    assert m[1, 1].imag == 0 and m[1, 1].real > 0


def test_same_map_after_scaling():
    f = lfm_1d(1, 0, -1, 2)
    g = LinearFractionalMap([[5]], [0], [-5], 10)
    assert np.allclose(f.matrix, g.matrix)


def test_denominator_must_dominate():
    with pytest.raises(DenominatorVanishes):
        lfm_1d(1, 0, 1, 1)  # |d| = |C|
    with pytest.raises(DenominatorVanishes):
        lfm_1d(1, 0, 2, 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan)])
def test_non_finite_entries_rejected(bad):
    with pytest.raises(MapFormatError, match="finite"):
        lfm_1d(bad, 0, 0, 1)
    with pytest.raises(MapFormatError, match="finite"):
        LinearFractionalMap(np.eye(2), [0, bad], [0, 0], 1)
    with pytest.raises(MapFormatError, match="finite"):
        LinearFractionalMap(np.eye(2), [0, 0], [bad, 0], 1)
    with pytest.raises(MapFormatError, match="finite"):
        lfm_1d(0.5, 0, 0, bad)
    with pytest.raises(MapFormatError, match="finite"):
        L.map_from_json_dict(json.loads('{"N": 1, "A": [[[NaN, 0]]], "B": [[0, 0]], "C": [[0, 0]], "d": [1, 0]}'))


@pytest.mark.parametrize("scale, abcd, code", [
    (1e200, ([[1]], [1], [0], 1), 2),  # z + 1, sup 2
    (1e308, ([[1]], [1], [0], 1), 2),
    (1e308, ([[0.5]], [0.5], [0], 1), 0),  # (z + 1) / 2
    (1e-320, ([[1, 0], [0, 1]], [0, 0], [0, 0], 1), 0),  # identity
], ids=["z+1 at 1e200", "z+1 at 1e308", "(z+1)/2 at 1e308", "identity at 1e-320"])
def test_construction_at_the_ends_of_the_float_range(capsys, tmp_path, scale, abcd, code):
    from lfmspec.cli import main

    a, b, c, d = (np.asarray(x, dtype=float) * scale for x in abcd)
    f = LinearFractionalMap(*abcd)
    assert np.allclose(LinearFractionalMap(a, b, c, d).matrix, f.matrix, rtol=0, atol=1e-15)
    p = tmp_path / "scaled.json"
    p.write_text(json.dumps({"N": f.n, "A": [[[x, 0] for x in row] for row in a.tolist()],
                             "B": [[x, 0] for x in b.tolist()], "C": [[x, 0] for x in c.tolist()],
                             "d": [float(d), 0]}))
    assert main(["validate", str(p)]) == code
    rep = json.loads(capsys.readouterr().out)
    assert rep["result"]["max_modulus"] == pytest.approx(L.validate_self_map(f).max_modulus, abs=1e-12)


def test_immutable():
    f = lfm_1d(1, 0, -1, 2)
    with pytest.raises(AttributeError):
        f.d = 3.0


@pytest.mark.parametrize("block", ["a", "b", "c", "matrix"])
def test_blocks_are_read_only(block):
    # z/(2-z): writing a = 0.9, b = 0.1 would turn it into a map with a
    # unitary part that was never normalized or checked
    f = lfm_1d(1, 0, -1, 2)
    before = f.matrix.copy()
    arr = getattr(f, block)
    with pytest.raises(ValueError):
        arr[(0,) * arr.ndim] = 0.9
    assert np.array_equal(f.matrix, before)
    assert L.classify(f).kind == L.MapClass.ELLIPTIC_BOUNDARY_FIXED


def test_evaluate_known_values(cayley_like):
    f = cayley_like
    assert abs(f([0.0])[0]) < 1e-15
    assert abs(f([0.5])[0] - (0.5 / 1.5)) < 1e-15
    # phi^2 = z/(4-3z)
    f2 = L.compose(f, f)
    z = 0.37 + 0.11j
    assert abs(f2([z])[0] - z / (4 - 3 * z)) < 1e-14


def test_evaluate_matches_projective_matrix(cayley_like):
    rng = np.random.default_rng(0)
    m = cayley_like.matrix
    for _ in range(25):
        z = rng.standard_normal(1) * 0.4 + 0.4j * rng.standard_normal(1)
        if np.linalg.norm(z) >= 1:
            continue
        hom = np.append(z, 1.0)
        out = m @ hom
        assert abs(cayley_like(z)[0] - out[0] / out[1]) < 1e-14


def proportional_residual(m1, m2):
    """Distance of m1 from the complex line through m2, relative to |m1|:
    zero exactly when the two maps agree projectively."""
    t = np.vdot(m2, m1) / np.vdot(m2, m2)
    return float(np.linalg.norm(m1 - t * m2) / np.linalg.norm(m1))


def test_compose_is_matrix_product():
    f = lfm_1d(1, 0, -1, 2)
    g = lfm_1d(0.5, 0.5, 0, 1)
    fg = L.compose(f, g)
    z = 0.2 - 0.3j
    assert abs(fg([z])[0] - f(g([z]))[0]) < 1e-14
    assert proportional_residual(fg.matrix, f.matrix @ g.matrix) < 1e-13


def test_inverse_of_automorphism():
    a = np.array([0.3 + 0.1j, -0.2j])
    s = L.ball_automorphism_to_origin(a)
    sinv = L.inverse(s)
    z = np.array([0.05, 0.4 - 0.2j])
    assert np.allclose(sinv(s(z)), z, atol=1e-12)


@pytest.mark.parametrize("a", [[2e-159j], [3e-155 + 1e-160j, 1e-156]], ids=["n1", "n2"])
def test_involution_of_a_tiny_centre(a):
    # |a|^2 is subnormal, where dividing by it overflowed to a NaN block; the
    # involution is -z + a over 1 - <z, a>, which swaps a and 0
    s = L.ball_automorphism_to_origin(np.array(a))
    assert np.allclose(s.a / s.d, -np.eye(len(a)), rtol=0, atol=1e-15)
    assert np.allclose(s(np.zeros(len(a))), a, rtol=1e-15, atol=0)
    assert L.is_automorphism(s)


def test_jacobian_against_finite_differences():
    f = LinearFractionalMap([[0.4, 0.1], [0.0, 0.3 + 0.2j]], [0.1, 0], [0.2, -0.1], 1.5)
    z0 = np.array([0.1 + 0.05j, -0.2j])
    jac = _jacobian(f, z0)
    h = 1e-6
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        num = (f(z0 + e) - f(z0 - e)) / (2 * h)
        assert np.allclose(jac[:, k], num, atol=1e-7)


# ---------------------------------------------------------------------------
# fixed points and Denjoy-Wolff


def test_fixed_points_interior_and_boundary(cayley_like):
    fs = L.fixed_points(cayley_like)
    kinds = sorted(p.kind for p in fs.points)
    assert kinds == ["boundary", "interior"]
    bp = fs.boundary_points()[0]
    assert abs(bp.location[0] - 1.0) < 1e-9
    assert abs(bp.dilation - 2.0) < 1e-9
    ip = fs.interior_point()
    assert np.linalg.norm(ip) < 1e-9


def test_fixed_point_at_infinity():
    # ((1+z)/2, w/2): the two-dim eigenvalue-1/2 eigenspace lives at infinity
    f = LinearFractionalMap([[0.5, 0], [0, 0.5]], [0.5, 0], [0, 0], 1)
    fs = L.fixed_points(f)
    assert len(fs.at_infinity) == 2
    bps = fs.boundary_points()
    assert len(bps) == 1
    assert np.allclose(bps[0].location, [1, 0], atol=1e-9)
    assert abs(bps[0].dilation - 0.5) < 1e-10


def test_fixed_point_at_infinity_with_a_subnormal_last_coordinate():
    # a two-fixed plant moved by the involution of (0.3, 0, 1e-309): two eigenvectors
    # lie at infinity with a last entry near 1e-309, and dividing by it overflowed
    # with a RuntimeWarning; they are points at infinity, found without one
    alpha = 0.19
    hp = L.HalfPlaneMap(n=3, alpha=alpha, b=np.zeros(2, dtype=complex), c=0j,
                        a_block=np.diag([0.5, 0.5j]) * math.sqrt(alpha), d=np.zeros(2, dtype=complex))
    s = L.ball_automorphism_to_origin(np.array([0.3, 0, 1e-309]))
    fs = L.fixed_points(L.conjugated(hp.pulled_back_to_ball(), s))
    assert len(fs.at_infinity) == 2
    assert min(p.dilation for p in fs.boundary_points()) == pytest.approx(alpha, abs=1e-12)


def test_identity_fixes_whole_ball():
    fs = L.fixed_points(L.unitary_map(np.eye(2)))
    assert fs.whole_ball


def test_fixed_slice():
    f = LinearFractionalMap([[1, 0], [0, 0.5]], [0, 0], [0, 0], 1)
    fs = L.fixed_points(f)
    assert fs.slice_dim == 1
    p = fs.interior_point()
    assert p is not None and np.linalg.norm(p) < 1e-9


def _near_parabolic_plant(c, alpha):
    """The 2-ball map whose Cayley transport at e_1 is ((z + c) / alpha, 0.5 w / alpha)."""
    m = np.array([[1 / alpha, 0, c / alpha], [0, 0.5 / alpha, 0], [0, 0, 1]], dtype=complex)
    return _ball_map_from_halfplane(m)


def test_fixed_points_are_fixed_and_boundary_points_on_the_sphere(monkeypatch):
    # each answer of the one eigendecomposition, checked by evaluating the map
    monkeypatch.syspath_prepend(BENCH)
    import triage

    maps = [lfm_1d(1, 1, -1, 3), lfm_1d(1, 0.5, 0.5, 1), lfm_1d(1, 0, -1, 2)]  # parabolic, automorphism
    maps += [LinearFractionalMap(np.eye(n), np.zeros(n), np.zeros(n), 1) for n in (1, 2, 3)]  # identity
    maps += [LinearFractionalMap(np.diag([1, 0.5]), [0, 0], [0, 0], 1),  # a fixed line through 0
             LinearFractionalMap(np.diag([0.5, 1 / 3]), [0, 0], [0, 0], 1),  # eigenvectors at infinity
             LinearFractionalMap(0.5 * np.eye(2), [0.5, 0], [0, 0], 1)]  # a two-dimensional one at infinity
    maps += [_near_parabolic_plant(c, 1 - eps) for c in (0, 1j, 0.5 + 1j) for eps in (1e-5, 1e-6, 2e-8, 1e-9)]
    maps += [_near_parabolic_plant(c, 0.9999) for c in (1 + 100j, 1 + 150j, 2 + 100j)]
    for seed in (1, 2, 3):
        wl = triage.Triage()
        wl.build(L, seed)
        maps += [f for _, f, _, _ in wl.items]
    rng = np.random.default_rng(23)
    for f in maps[:10]:
        centre = rng.standard_normal(f.n) + 1j * rng.standard_normal(f.n)
        maps.append(L.conjugated(f, L.ball_automorphism_to_origin(0.4 * centre / np.linalg.norm(centre))))
    for f in maps:
        fs = L.fixed_points(f)
        fixed = [p.location for p in fs.points] + ([] if fs.slice_point is None else [fs.slice_point])
        for z in fixed:
            assert np.linalg.norm(L.evaluate(f, z) - z) <= TOLERANCES.fixed_point
        for p in fs.boundary_points():
            assert abs(np.linalg.norm(p.location) - 1.0) <= TOLERANCES.on_sphere
        for v in fs.at_infinity:  # (v, 0) is fixed projectively: A v is a multiple of v, and <v, C> = 0
            av = f.a @ v
            assert np.linalg.norm(av - np.vdot(v, av) * v) <= TOLERANCES.fixed_point
            assert abs(np.vdot(f.c, v)) <= TOLERANCES.fixed_point


def test_denjoy_wolff_hyperbolic():
    f = lfm_1d(0.5, 0.5, 0, 1)
    dw = L.classify(f).denjoy_wolff_point
    assert abs(dw.location[0] - 1.0) < 1e-10
    assert abs(dw.dilation - 0.5) < 1e-10


def test_denjoy_wolff_rejects_elliptic():
    cl = L.classify(lfm_1d(0.5, 0, 0, 1))
    assert cl.denjoy_wolff_point is None and cl.alpha is None


def test_denjoy_wolff_picks_attracting_point():
    # two boundary fixed points: DW is the one with dilation <= 1
    a = 0.6
    m = 0.5 * np.array([[3, 0, 1], [0, 2 * math.sqrt(2) * a, 0], [1, 0, 3]], dtype=complex)
    f = LinearFractionalMap.from_matrix(m)
    dw = L.classify(f).denjoy_wolff_point
    assert np.allclose(dw.location, [1, 0], atol=1e-9)
    assert dw.dilation <= 1.0 + 1e-12


def test_parabolic_dilation_is_one():
    # Cayley pullback of the half-plane shift by 1
    f = lfm_1d(1, 1, -1, 3)
    dw = L.classify(f).denjoy_wolff_point
    assert abs(dw.dilation - 1.0) < 1e-8


# ---------------------------------------------------------------------------
# automorphisms


def test_unitary_is_automorphism():
    q, _ = np.linalg.qr(np.array([[1, 2], [3, 4 + 1j]], dtype=complex))
    assert L.is_automorphism(L.unitary_map(q))


def test_involution_to_origin():
    a = np.array([0.4, 0.1 - 0.2j])
    s = L.ball_automorphism_to_origin(a)
    assert L.is_automorphism(s)
    assert np.allclose(s(a), 0, atol=1e-12)
    assert np.allclose(s(np.zeros(2)), a, atol=1e-12)
    # involutive
    z = np.array([0.2, 0.3j])
    assert np.allclose(s(s(z)), z, atol=1e-12)


def test_non_automorphism_detected(cayley_like):
    assert not L.is_automorphism(cayley_like)


# ---------------------------------------------------------------------------
# validation


def test_tolerance_record_is_frozen():
    import dataclasses

    with pytest.raises(dataclasses.FrozenInstanceError):
        TOLERANCES.on_sphere = 1e-3
    assert L.validate_self_map(L.unitary_map(np.eye(1))).tol == TOLERANCES.self_map


def test_validate_accepts_self_map(cayley_like):
    rep = L.validate_self_map(cayley_like)
    assert rep.ok
    assert rep.max_modulus <= 1.0 + 1e-9


def test_validate_rejects_doubling():
    f = lfm_1d(2, 0, 0, 1)
    rep = L.validate_self_map(f)
    assert not rep.ok
    assert rep.witness is not None
    assert abs(f(rep.witness)[0]) > 1.0 + 1e-6


def test_validate_boundary_automorphism():
    s = L.ball_automorphism_to_origin(np.array([0.5 + 0.3j]))
    rep = L.validate_self_map(s)
    assert rep.ok
    # automorphisms send the sphere to the sphere
    assert rep.max_modulus == pytest.approx(1.0, abs=1e-9)


def _random_lfm(rng, n, scale):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    a *= scale * rng.uniform(0.1, 1.0) / np.linalg.norm(a, 2)
    b *= scale * rng.uniform(0.0, 0.8) / np.linalg.norm(b)
    c *= rng.uniform(0.0, 0.9) / np.linalg.norm(c)
    return L.LinearFractionalMap(a, b, c, 1.0)


def _sphere_sample_max(f, rng, count):
    """Reference oracle: the largest |phi| over seeded sphere points."""
    z = rng.standard_normal((count, f.n)) + 1j * rng.standard_normal((count, f.n))
    z /= np.linalg.norm(z, axis=1)[:, None]
    return max(float(np.linalg.norm(L.evaluate(f, p))) for p in z)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_validate_against_sphere_sampling(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(8):
        f = _random_lfm(rng, n, scale=rng.uniform(0.5, 1.5))
        rep = L.validate_self_map(f)
        assert _sphere_sample_max(f, rng, 1500) <= rep.max_modulus + 1e-12
        assert float(np.linalg.norm(rep.witness)) <= 1.0 + 1e-12
        assert float(np.linalg.norm(f(rep.witness))) >= rep.max_modulus * (1.0 - 1e-8)


@pytest.mark.parametrize("f, sup", [
    (lfm_1d(1, 0, -1, 2), 1.0),  # z / (2 - z)
    (lfm_1d(1, 1, -1, 3), 1.0),  # parabolic
    (lfm_1d(0.5, 0.5, 0, 1), 1.0),  # (1 + z) / 2
    (lfm_1d(2, 0, 0, 1), 2.0),
    (lfm_1d(0, 0.3, 0, 1), 0.3),  # constant
    (L.LinearFractionalMap(np.diag([0.9, 0, 0]), np.zeros(3), np.zeros(3), 1), 0.9),
    (L.ball_automorphism_to_origin(np.array([0.3, 0.2j, -0.1])), 1.0),
    (L.LinearFractionalMap(np.diag([1j, 0.5, 0.3]), np.zeros(3), np.zeros(3), 1), 1.0),
    (L.unitary_map(np.eye(3)), 1.0),
])
def test_validate_known_suprema(f, sup):
    rep = L.validate_self_map(f)
    assert rep.max_modulus == pytest.approx(sup, abs=1e-12)
    assert float(np.linalg.norm(rep.witness)) <= 1.0 + 1e-12
    assert float(np.linalg.norm(f(rep.witness))) == pytest.approx(sup, abs=1e-12)
    assert rep.samples < 100


def _scaled(f, t):
    """t * phi, whose supremum is t times that of phi."""
    return L.LinearFractionalMap(t * f.a, t * f.b, f.c, f.d)


@pytest.mark.parametrize("target", [1 + 1.5e-9, 1 + 3e-9, 1 + 1e-7, 1 - 1e-8])
def test_validate_near_threshold(target):
    rng = np.random.default_rng(7)
    maps = [lfm_1d(1, 0, -1, 2), lfm_1d(1, 1, -1, 3), lfm_1d(0.5, 0.5, 0, 1),
            L.ball_automorphism_to_origin(np.array([0.3, 0.2j, -0.1])),
            L.LinearFractionalMap(np.diag([1.0, 0.5]), np.zeros(2), np.zeros(2), 1)]
    for n in (1, 2, 3, 1, 2, 3):
        f = _random_lfm(rng, n, scale=1.0)
        maps.append(_scaled(f, 1.0 / L.validate_self_map(f).max_modulus))
    for f in maps:
        rep = L.validate_self_map(_scaled(f, target))
        assert rep.ok == (target <= 1.0 + TOLERANCES.self_map)
        if not rep.ok:
            assert float(np.linalg.norm(rep.witness)) <= 1.0 + 1e-12
            assert float(np.linalg.norm(_scaled(f, target)(rep.witness))) > 1.0


def _disk_supremum(f):
    """sup of |phi| over the closed disk for N = 1: (a z + b) / (g z + d)
    maps the unit circle onto the circle with center (b conj(d) - a conj(g))
    / D and radius |a d - b g| / D, D = |d|^2 - |g|^2."""
    a, b, g, d = f.a[0, 0], f.b[0], np.conj(f.c[0]), f.d
    den = f.denominator_margin * (d + abs(g))
    return (abs(b * d - a * np.conj(g)) + abs(a * d - b * g)) / den


@pytest.mark.parametrize("margin", [1e-2, 1e-5, 1e-8, 1e-11])
def test_validate_small_denominator_margin(margin):
    # the J-form of phi itself carries margin^2, below roundoff for these
    # maps; the certificate must still neither accept a non-self-map nor
    # report a value far from the supremum
    rng = np.random.default_rng(11)
    maps = [lfm_1d(0, t * margin, -(1 - margin), 1) for t in (0.5, 2.0)]
    for _ in range(4):
        maps.append(lfm_1d(margin * complex(*rng.uniform(-2, 2, 2)), margin * complex(*rng.uniform(-2, 2, 2)),
                           (1 - margin) * np.exp(2j * math.pi * rng.uniform()), 1))
    for n in (2, 3):
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for t in (0.5, 2.0):
            maps.append(L.LinearFractionalMap(np.zeros((n, n)), t * margin * b / np.linalg.norm(b),
                                              (1 - margin) * c / np.linalg.norm(c), 1))
    for f in maps:
        if f.n == 1:
            sup = _disk_supremum(f)
        else:  # constant numerator over the smallest denominator
            sup = float(np.linalg.norm(f.b)) / f.denominator_margin
        rep = L.validate_self_map(f)
        assert abs(rep.max_modulus - sup) <= (1e-12 + 1e-15 / f.denominator_margin) * sup
        assert rep.ok == (sup <= 1.0)
        assert float(np.linalg.norm(rep.witness)) <= 1.0 + 1e-12
        if not rep.ok:
            assert float(np.linalg.norm(f(rep.witness))) > 1.0


def test_validate_hard_case_start():
    # F* g = (0, 0.06) is orthogonal to the top singular direction e1: the
    # secular equation has no root above s_max = 0.81, and the maximizer
    # |z2| = 1/12 completes along e1, giving sup^2 = 0.855
    f = L.LinearFractionalMap(np.diag([0.9, 0.3]), [0, 0.2], [0, 0], 1)
    rep = L.validate_self_map(f)
    assert rep.max_modulus == pytest.approx(math.sqrt(0.855), abs=1e-12)
    assert rep.samples <= 3


def _unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def _kind_maps(rng, n):
    """One map of each kind that exists in dimension n."""
    e1 = np.eye(n)[0]
    tail = [rng.uniform(0.3, 0.9) * np.exp(2j * math.pi * rng.uniform()) for _ in range(n - 1)]
    v = _unitary(rng, n)
    maps = [
        L.unitary_map(_unitary(rng, n)),  # elliptic automorphism
        LinearFractionalMap(rng.uniform(0.2, 0.9) * v @ np.diag(np.exp(2j * math.pi * rng.uniform(size=n)))
                            @ v.conj().T, np.zeros(n), np.zeros(n), 1),  # interior fixed point only
        LinearFractionalMap(np.diag([1.0] + tail), np.zeros(n), -e1, 2),  # boundary fixed
        LinearFractionalMap(np.diag([1.0] + [abs(t) for t in tail]), e1, -e1, 3),  # parabolic
        LinearFractionalMap(0.6 * np.eye(n), 0.4 * e1, np.zeros(n), 1),  # hyperbolic, one fixed
        LinearFractionalMap(np.diag([1.0] + [math.sqrt(0.75)] * (n - 1)), 0.5 * e1, 0.5 * e1, 1),  # automorphism
    ]
    if n > 1:
        maps.append(LinearFractionalMap(v @ np.diag([1j] + tail) @ v.conj().T,
                                        np.zeros(n), np.zeros(n), 1))  # unitary part
        maps.append(L.HalfPlaneMap(n=n, alpha=0.5, b=np.zeros(n - 1), c=0.0, a_block=math.sqrt(0.5) * np.diag(tail),
                                   d=np.zeros(n - 1)).pulled_back_to_ball())
    return maps


def _start_corpus():
    rng = np.random.default_rng(17)
    maps = []
    for n in (1, 2, 3):
        for f in _kind_maps(rng, n) + _kind_maps(rng, n):
            centre = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            centre *= rng.uniform(0.1, 0.5) / np.linalg.norm(centre)
            maps.append(L.conjugated(f, L.ball_automorphism_to_origin(centre)))
        maps += [L.unitary_map(np.eye(n)), LinearFractionalMap(np.zeros((n, n)), 0.3 * np.eye(n)[-1], np.zeros(n), 1),
                 L.ball_automorphism_to_origin(np.full(n, 0.4 / math.sqrt(n))),
                 LinearFractionalMap(0.7 * _unitary(rng, n), 0.6 * np.eye(n)[0], np.zeros(n), 1)]  # sup 1.3
    return maps


def _reference_supremum(f):
    """Bisection on the Krein certificate from |phi(0)|, |phi(-C/|C|)| and a
    norm bound, with F z + g formed by composing with the public involution."""
    g = L.compose(f, L.ball_automorphism_to_origin(-f.c / f.d))
    fg = np.column_stack([g.a, g.b]) / g.d
    pp = fg.conj().T @ fg
    j = np.diag([1.0] * f.n + [-1.0])
    cn = float(np.linalg.norm(f.c))
    u = f.c / cn if cn > 0 else np.zeros(f.n)
    lo = max(float(np.linalg.norm(f(p))) for p in (0 * u, -u))
    hi = max(1.5 * (float(np.linalg.norm(fg[:, :-1], 2)) + float(np.linalg.norm(fg[:, -1]))), 1.0)
    assert _krein_certificate(pp, j, hi) is not None
    while hi - lo > 1e-13 * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if _krein_certificate(pp, j, mid) is None:
            lo = mid
        else:
            hi = mid
    return hi


def test_validate_start_against_reference_bisection():
    for f in _start_corpus():
        rep = L.validate_self_map(f)
        ref = _reference_supremum(f)
        assert rep.ok == (ref <= 1.0 + TOLERANCES.self_map)
        assert rep.max_modulus == pytest.approx(ref, rel=1e-12)
        assert rep.samples <= 3


def test_validate_accepted_first_rung_is_the_answer(monkeypatch):
    # the first rung lo + 1e-13 max(lo, 1) is as narrow as the bisection
    # would leave it, so accepting it ends the search
    verdicts = []
    monkeypatch.setattr(L.maps, "_krein_certificate",
                        lambda *a: verdicts.append(_krein_certificate(*a)) or verdicts[-1])
    accepted = 0
    for f in _start_corpus() + [lfm_1d(0.5, 0, 0, 1)]:
        verdicts.clear()
        rep = L.validate_self_map(f)
        assert rep.samples == len(verdicts)
        if verdicts[0] is not None:
            accepted += 1
            assert rep.samples == 1
    assert accepted >= 40


def _krein_certificate_per_midpoint(pp, j, rho):
    """The midpoint loop with one eigvalsh per midpoint, up to the first that
    passes; also the number of midpoints tested."""
    k = pp.copy()
    k[-1, -1] -= rho * rho
    roots = np.linalg.eigvals(j @ k).real
    ends = np.sort(np.concatenate([[0.0], roots[roots > 0.0]]))
    ends = ends[np.concatenate([[True], ends[1:] > ends[:-1]])]
    roundoff = 10.0 * j.shape[0] * np.finfo(float).eps
    size = float(np.linalg.norm(pp)) + rho * rho
    for tested, lam in enumerate(0.5 * (ends[:-1] + ends[1:]), start=1):
        cert = lam * j - k
        if np.linalg.eigvalsh(cert)[0] >= roundoff * (lam + size):
            return cert, tested
    return None, ends.size - 1


def test_stacked_midpoints_give_the_per_midpoint_certificate_bit_for_bit(monkeypatch):
    # every certificate test of validate_self_map on the triage plants, and
    # the same pp just below its certified supremum, where no midpoint passes
    monkeypatch.syspath_prepend(BENCH)
    import triage

    calls = []
    monkeypatch.setattr(L.maps, "_krein_certificate", lambda *a: calls.append(a) or _krein_certificate(*a))
    below = []
    for seed in (1, 2, 3):
        wl = triage.Triage()
        wl.build(L, seed)
        for _, f, _, _ in wl.items:
            rep = L.validate_self_map(f)
            pp, j, _ = calls[-1]
            below.append((pp, j, rep.max_modulus * (1.0 - 1e-9)))
    passed, most = 0, 0
    for pp, j, rho in calls + below:
        new = _krein_certificate(pp, j, rho)
        old, tested = _krein_certificate_per_midpoint(pp, j, rho)
        most = max(most, tested)
        if old is None:
            assert new is None
        else:
            assert new.tobytes() == old.tobytes()
            passed += 1
    assert all(_krein_certificate_per_midpoint(*c)[0] is None for c in below)
    assert passed >= len(below) and most >= 3


def test_krein_margin_scales_with_the_certificate_size():
    # the identity of the disk has pp = diag(1, 0) and sup |phi| = 1; at rho^2 = 1 + 2t eps
    # the midpoint lambda = 1 + t eps gives the certificate t eps I exactly, and the margin
    # 10 (N + 1) eps (lambda + |pp| + rho^2) is about 60 eps: t = 40 is refused by the size
    # terms alone (the lambda term is about 20 eps), and t = 100 is accepted
    pp, j, eps = np.diag([1.0 + 0j, 0.0]), _j_form(1), np.finfo(float).eps
    assert _krein_certificate(pp, j, 1.0 + 40 * eps) is None
    cert = _krein_certificate(pp, j, 1.0 + 100 * eps)
    assert np.array_equal(cert, 100 * eps * np.eye(2))


def test_validate_climbs_and_bisects_from_a_poor_start(monkeypatch):
    # from the normalized all-ones start, lo sits well below the supremum, so
    # the search climbs past the first rung and then bisects; the answer must
    # be the one the sphere maximizer's start gives
    def seeded(seed, n):
        rng = np.random.default_rng(seed)
        a, b, c = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for shape in ((n, n), n, n))
        return LinearFractionalMap(rng.uniform(0.3, 1.0) * a / np.linalg.norm(a, 2), 0.3 * b / np.linalg.norm(b),
                                   0.5 * c / np.linalg.norm(c), 1.3)

    maps = [seeded(seed, n) for n in (1, 2, 3) for seed in range(11)]
    refs = [L.validate_self_map(f) for f in maps]
    monkeypatch.setattr(L.maps, "_sphere_maximizer", lambda f, g: np.full(f.shape[1], 1 / math.sqrt(f.shape[1])))
    for f, ref in zip(maps, refs):
        rep = L.validate_self_map(f)
        scale = 2e-13 * max(1.0, ref.max_modulus)
        assert rep.samples > 1
        assert rep.ok == ref.ok
        assert abs(rep.max_modulus - ref.max_modulus) <= scale
        assert abs(float(np.linalg.norm(f(rep.witness))) - rep.max_modulus) <= scale


# ---------------------------------------------------------------------------
# half-plane forms


def test_halfplane_form_hyperbolic():
    # (1 + z) / 2 is transported to zeta -> 2 zeta + 1 = (zeta + c) / alpha
    nf = L.classify(lfm_1d(0.5, 0.5, 0, 1)).normal_form
    assert nf.alpha == pytest.approx(0.5, abs=1e-12)
    assert nf.c == pytest.approx(0.5, abs=1e-12)


def test_halfplane_form_boundary_fixed_diagnostic(cayley_like):
    # alpha = 2 > 1, the form at the repelling boundary point of an elliptic map, is
    # kept as a diagnostic: zeta -> (zeta + 1) / 2 pulls back to z/(2 - z)
    hp = L.HalfPlaneMap(n=1, alpha=2.0, b=np.zeros(0), c=1.0 + 0j, a_block=np.zeros((0, 0)), d=np.zeros(0))
    assert proportional_residual(hp.pulled_back_to_ball().matrix, cayley_like.matrix) < 1e-15


def test_halfplane_pullback_round_trip():
    # a form pulled back to the ball and classified gives back its own fields,
    # in w coordinates turned by the unitary u of the chain's rotation to e_1
    hp = L.HalfPlaneMap(n=3, alpha=0.5, b=np.zeros(2), c=0.25 + 0j, a_block=np.diag([0.3j, -0.2]),
                        d=np.array([0.1, 0.05j]))
    nf = L.classify(hp.pulled_back_to_ball()).normal_form
    assert (nf.case, nf.alpha, nf.c) == ("one_fixed", pytest.approx(0.5, abs=1e-13), pytest.approx(0.25, abs=1e-13))
    label, rotation = nf.chain[0]
    u = rotation[1:3, 1:3]
    assert label == "rotation_to_e1" and np.allclose(u @ u.conj().T, np.eye(2), atol=1e-15)
    assert np.allclose(nf.a_block, u @ hp.a_block @ u.conj().T, atol=1e-13)
    assert np.allclose(nf.d, u @ hp.d, atol=1e-13)


def test_unitary_completion_is_continuous_across_a_zero_entry():
    # the first entry's real part crosses 0 by roundoff, which must move the
    # completion by roundoff too (a Householder QR's sign choices moved it by 2.0)
    first, second = (_unitary_with_first_column(u / np.linalg.norm(u))
                     for u in (np.array([re + 7.16520932e-4j, 0.527588316 - 1.22324997j]) for re in (1e-17, -1e-17)))
    assert np.abs(first - second).max() <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_unitary_completion_of_e1_is_the_identity(n):
    assert np.array_equal(_unitary_with_first_column(np.eye(n)[0]), np.eye(n))


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_unitary_completion_is_unitary_with_the_given_first_column(n):
    rng = np.random.default_rng(77 + n)
    for _ in range(20):
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u /= np.linalg.norm(u)
        q = _unitary_with_first_column(u)
        assert np.abs(q.conj().T @ q - np.eye(n)).max() <= 1e-14
        assert np.abs(q[:, 0] - u).max() <= 1e-15


HALFPLANE_FIELDS = dict(n=2, alpha=0.5, b=np.zeros(1), c=0.5 + 0j, a_block=np.zeros((1, 1)), d=np.zeros(1))


@pytest.mark.parametrize("fields,error", [
    (dict(n=0, b=np.zeros(0), a_block=np.zeros((0, 0)), d=np.zeros(0)), MapFormatError),
    (dict(n=2.0), MapFormatError),
    (dict(n=3), L.DimensionMismatch),  # b, A and d of the 2-ball: b was broadcast
    (dict(a_block=np.zeros((2, 2))), L.DimensionMismatch),
    (dict(b=np.zeros((1, 1))), L.DimensionMismatch),
    (dict(d=np.zeros(2)), L.DimensionMismatch),
    (dict(alpha=math.nan), MapFormatError),
    (dict(alpha=math.inf), MapFormatError),
    (dict(alpha=0.5 + 0j), MapFormatError),
    (dict(c=complex(0.5, math.inf)), MapFormatError),
    (dict(b=np.array([math.nan])), MapFormatError),
    (dict(a_block=np.array([[math.inf]])), MapFormatError),
    (dict(d=np.array([complex(0, math.nan)])), MapFormatError),
], ids=["n=0", "n-float", "n-3-blocks-2", "A-2x2", "b-2d", "d-long", "alpha-nan", "alpha-inf",
        "alpha-complex", "c-inf", "b-nan", "A-inf", "d-nan"])
def test_halfplane_map_refuses_malformed_blocks(fields, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            L.HalfPlaneMap(**{**HALFPLANE_FIELDS, **fields})


# ---------------------------------------------------------------------------
# JSON


def test_json_round_trip(cayley_like):
    obj = L.map_to_json_dict(cayley_like)
    g = L.map_from_json_dict(json.loads(json.dumps(obj)))
    assert np.allclose(g.matrix, cayley_like.matrix)


def test_complex_pairs_keep_shape_and_signed_zeros():
    # scalars give one pair, arrays nested pairs; -0.0 keeps its sign
    assert _c2pair(1 - 2j) == [1.0, -2.0]
    assert _c2pair(np.array([[1j, 2], [3, -4j]])) == [[[0.0, 1.0], [2.0, 0.0]], [[3.0, 0.0], [0.0, -4.0]]]
    assert _c2pair([]) == []
    pairs = _c2pair(np.array([complex(-0.0, 0.0), complex(0.0, -0.0)]))
    assert [math.copysign(1.0, x) for pair in pairs for x in pair] == [-1.0, 1.0, 1.0, -1.0]


def test_json_rejects_bad_fields():
    with pytest.raises(MapFormatError):
        L.map_from_json_dict({"N": 1, "A": [[[1, 0]]], "B": [[0, 0]], "C": [[0, 0]]})
    with pytest.raises(MapFormatError):
        L.map_from_json_dict(
            {"N": 1, "A": [[[1, 0]]], "B": [[0, 0]], "C": [[0, 0]], "d": "two"}
        )
    with pytest.raises(MapFormatError):
        L.map_from_json_dict(
            {"N": 2, "A": [[[1, 0]]], "B": [[0, 0]], "C": [[0, 0]], "d": [1, 0]}
        )


@pytest.mark.parametrize("make", [
    lambda: LinearFractionalMap(np.zeros((2, 3)), [0, 0], [0, 0], 1),
    lambda: LinearFractionalMap(np.eye(2), [0, 0, 0], [0, 0], 1),
    lambda: LinearFractionalMap(np.zeros((2, 2)), [0, 0], [0, 0], 0),
    lambda: LinearFractionalMap.from_matrix([[1]]),
    lambda: LinearFractionalMap.from_matrix(np.eye(2, 3)),
], ids=["non-square", "b-length", "all-zero", "from-1x1", "from-2x3"])
def test_constructor_rejects_bad_shapes(make):
    with pytest.raises(MapFormatError):
        make()


@pytest.mark.parametrize("call", [
    lambda: L.compose(lfm_1d(0.5, 0, 0, 1), L.unitary_map(np.eye(2))),
    lambda: L.conjugated(lfm_1d(0.5, 0, 0, 1), L.unitary_map(np.eye(2))),
    lambda: L.evaluate(lfm_1d(0.5, 0, 0, 1), [0.1, 0.2]),
], ids=["compose", "conjugated", "evaluate"])
def test_operands_of_other_dimensions_are_refused(call):
    with pytest.raises(L.DimensionMismatch):
        call()


def test_public_refusals():
    # z/(2 - z) has its pole at 2, outside the ball but in C^N, where evaluate is defined
    with pytest.raises(DenominatorVanishes):
        L.evaluate(lfm_1d(1, 0, -1, 2), [2.0])
    with pytest.raises(L.PointNotInterior):
        L.ball_automorphism_to_origin([0.6, 0.8])
    with pytest.raises(MapFormatError, match="not unitary"):
        L.unitary_map([[1, 0], [0, 0.5]])
    # z + 2 has |B| > d, so m* J m has a nonnegative corner and no lambda > 0
    assert not L.is_automorphism(lfm_1d(1, 2, 0, 1))
    with pytest.raises(L.NumericalInconsistency, match="scaling must be positive"):
        L.HalfPlaneMap(n=1, alpha=-1.0, b=np.zeros(0), c=0j, a_block=np.zeros((0, 0)), d=np.zeros(0))


# ---------------------------------------------------------------------------
# hypothesis properties

finite = st.floats(min_value=-0.35, max_value=0.35, allow_nan=False)


@st.composite
def small_linear_maps(draw):
    """Strict linear contractions plus a small shift: always valid when
    ||A|| + |B| + |C| stays under d."""
    n = draw(st.integers(min_value=1, max_value=2))
    a = np.array([[draw(finite) + 1j * draw(finite) for _ in range(n)] for _ in range(n)])
    b = np.array([draw(finite) + 1j * draw(finite) for _ in range(n)]) * 0.3
    c = np.array([draw(finite) + 1j * draw(finite) for _ in range(n)]) * 0.3
    return LinearFractionalMap(a, b, c, 2.0)


@given(small_linear_maps(), small_linear_maps())
@settings(max_examples=30, deadline=None)
def test_composition_associates_with_matrices(f, g):
    if f.n != g.n:
        return
    fg = L.compose(f, g)
    assert proportional_residual(fg.matrix, f.matrix @ g.matrix) < 1e-12


@given(small_linear_maps())
@settings(max_examples=30, deadline=None)
def test_self_map_samples_stay_inside(f):
    rng = np.random.default_rng(11)
    for _ in range(10):
        z = rng.standard_normal(f.n) + 1j * rng.standard_normal(f.n)
        z *= 0.9 / max(1.0, np.linalg.norm(z))
        assert np.linalg.norm(f(z)) < 1.0 + 1e-12


@given(small_linear_maps())
@settings(max_examples=20, deadline=None)
def test_conjugation_by_involution_round_trips(f):
    a = np.zeros(f.n, dtype=complex)
    a[0] = 0.3
    s = L.ball_automorphism_to_origin(a)
    g = L.conjugated(L.conjugated(f, s), s)  # s is an involution
    assert proportional_residual(g.matrix, f.matrix) < 1e-10


@st.composite
def constants_near_the_sphere(draw):
    """Constant maps (A = 0, C = 0) to a value of modulus within 1e-6 of 1,
    in a random direction of C^N for N = 1, 2, 3."""
    n = draw(st.integers(min_value=1, max_value=3))
    v = np.array([complex(draw(finite), draw(finite)) for _ in range(n)])
    assume(np.linalg.norm(v) > 0.01)
    b = draw(st.floats(min_value=1.0 - 1e-6, max_value=1.0 + 1e-6)) * v / np.linalg.norm(v)
    return LinearFractionalMap(np.zeros((n, n)), b, np.zeros(n), 1.0)


@given(constants_near_the_sphere())
@settings(max_examples=40, deadline=None)
def test_constants_near_the_sphere_pass_only_inside(f):
    # a constant is a self-map exactly when its value lies below 1 - tol, and
    # the CLI gate refuses it by that rule, or by sup |phi| above 1 + tol;
    # that classify reports the ones it passes is pinned in test_known_faults
    tol, g = TOLERANCES.self_map, float(np.linalg.norm(f.b) / f.d)
    assume(abs(g - (1.0 - tol)) > 1e-12)
    assert L.validate_self_map(f).ok == (g < 1.0 - tol)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "const.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(L.map_to_json_dict(f), fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["classify", path])
    if g < 1.0 - tol:
        assert code != EXIT_VALIDATION and not err.getvalue().startswith("validation failure:")
        return
    assert (code, out.getvalue()) == (EXIT_VALIDATION, "")
    constant = re.fullmatch(r"validation failure: not a self-map of the ball: a constant map needs a value "
                            r"of modulus below 1 - 1e-09, and this one has (\S+)\n", err.getvalue())
    if g < 1.0 + tol - 1e-12:
        assert constant and abs(float(constant[1]) - g) <= 1e-11
    elif g > 1.0 + tol + 1e-12:
        assert err.getvalue().startswith("validation failure: not a self-map of the ball: sup |phi| = ")


# roots of unity times a few radii share moduli that hypot rounds equal or
# apart; zeros of both signs and NaN in either part tie or refuse to compare
ORDER_POOL = [complex(r * np.exp(2j * math.pi * k / q)) for q in (3, 4, 8) for k in range(q) for r in (0.5, 1.0, 3.0)]
ORDER_POOL += [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0), complex(math.nan, 0.0), complex(0.0, math.nan),
               complex(math.nan, math.nan), 1.0, -1.0, 1j, -1j, 0.6 + 0.8j, 0.8 - 0.6j]


@given(st.lists(st.one_of(st.sampled_from(ORDER_POOL),
                          st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)),
                max_size=600))
@settings(max_examples=200, deadline=None)
def test_spectral_order_is_the_three_key_lexsort(values):
    e = np.array(values, dtype=complex)
    want = np.lexsort((e.imag, e.real, -np.hypot(e.real, e.imag)))
    assert np.array_equal(_spectral_order(e), want)


# ---------------------------------------------------------------------------
# public surface


PUBLIC_MODULES = ("maps", "classify", "spectra", "series")


def test_public_surface_is_declared_once():
    # lfmspec.classify the attribute is the function; the modules come from sys.modules
    modules = {name: sys.modules["lfmspec." + name] for name in PUBLIC_MODULES}
    for mod in modules.values():
        for name in mod.__all__:
            assert hasattr(mod, name), (mod.__name__, name)
    for name in dir(L):
        obj = getattr(L, name)
        if name.startswith("_") or type(obj).__name__ == "module":
            continue
        if isinstance(obj, type) and issubclass(obj, L.BallMapError):
            continue
        home = obj.__module__.rpartition(".")[2]
        assert home in modules and name in modules[home].__all__, (name, obj.__module__)


def test_root_is_the_modules_all():
    # the root declares no names of its own: each module's __all__, and the
    # error classes, which errors.py gives without one
    errors = sys.modules["lfmspec.errors"]
    declared = {name for mod in PUBLIC_MODULES for name in sys.modules["lfmspec." + mod].__all__}
    declared |= {name for name in vars(errors) if not name.startswith("_")}
    public = {name for name in dir(L) if not name.startswith("_") and type(getattr(L, name)).__name__ != "module"}
    assert public == declared
    assert all(getattr(L, name) is getattr(errors, name) for name in vars(errors) if not name.startswith("_"))
    assert L.classify is sys.modules["lfmspec.classify"].classify
