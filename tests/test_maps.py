"""Core map algebra: evaluation, composition, fixed points, Denjoy-Wolff,
automorphisms, half-plane transport, validation, JSON round trips, and the
declared public surface."""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lfmspec as L
from lfmspec import (
    DenominatorVanishes,
    LinearFractionalMap,
    MapFormatError,
)
from lfmspec.maps import TOLERANCES, _c2pair, _jacobian, _krein_certificate


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


def test_iterate_matrix(cayley_like):
    m3 = L.iterate_matrix(cayley_like, 3)
    f3 = LinearFractionalMap.from_matrix(m3)
    z = 0.3 + 0.2j
    w = z
    for _ in range(3):
        w = cayley_like([w])[0]
    assert abs(f3([z])[0] - w) < 1e-13


def test_iterate_matrix_rejects_negative_order(cayley_like):
    assert np.array_equal(L.iterate_matrix(cayley_like, 0), np.eye(2))
    with pytest.raises(L.ParameterConstraintViolated):
        L.iterate_matrix(cayley_like, -1)


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


def test_identity_fixes_whole_ball():
    fs = L.fixed_points(L.unitary_map(np.eye(2)))
    assert fs.whole_ball


def test_fixed_slice():
    f = LinearFractionalMap([[1, 0], [0, 0.5]], [0, 0], [0, 0], 1)
    fs = L.fixed_points(f)
    assert fs.slice_dim == 1
    p = fs.interior_point()
    assert p is not None and np.linalg.norm(p) < 1e-9


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
        maps.append(L.HalfPlaneMap(n=n, alpha=0.5, b=np.zeros(n - 1), c=0.0,
                                   a_block=math.sqrt(0.5) * np.diag(tail), d=np.zeros(n - 1),
                                   rotation=np.eye(n, dtype=complex), tau=e1).pulled_back_to_ball())
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
# Cayley transport


def test_halfplane_form_hyperbolic():
    f = lfm_1d(0.5, 0.5, 0, 1)
    hp = L.conjugate_to_halfplane(f)
    assert hp.alpha == pytest.approx(0.5, abs=1e-12)
    # transported map is zeta -> 2 zeta + 1
    assert hp.c == pytest.approx(0.5, abs=1e-12)
    assert hp.evaluate([1.0 + 0.5j])[0] == pytest.approx(3.0 + 1.0j, abs=1e-12)


def test_halfplane_form_boundary_fixed_diagnostic(cayley_like):
    # elliptic with boundary fixed point: alpha = 2 allowed as a diagnostic
    hp = L.conjugate_to_halfplane(cayley_like)
    assert hp.alpha == pytest.approx(2.0, abs=1e-10)
    assert hp.evaluate([2.0])[0] == pytest.approx((2.0 + 1.0) / 2.0, abs=1e-10)


def test_halfplane_rejects_point_not_fixed():
    # (1 + z) / 2 moves tau = e^(i t) by |1 - tau| / 2 = 2e-7: not fixed at
    # TOLERANCES.fixed_point, the one threshold for "is this point fixed?"
    f = lfm_1d(0.5, 0.5, 0, 1)
    tau = np.array([np.exp(2j * math.asin(2e-7))])
    assert np.linalg.norm(f(tau) - tau) == pytest.approx(2e-7, rel=1e-6)
    with pytest.raises(L.NotAFixedPoint):
        L.conjugate_to_halfplane(f, tau)


def test_halfplane_pullback_round_trip():
    f = LinearFractionalMap([[0.5, 0], [0, 0.5]], [0.5, 0], [0, 0], 1)
    hp = L.conjugate_to_halfplane(f)
    g = hp.pulled_back_to_ball()
    rot = hp.rotation
    z = np.array([0.2 + 0.1j, -0.3j])
    # pullback reproduces the map up to the initial rotation to e1
    w = rot.conj().T @ z
    assert np.allclose(rot.conj().T @ f(z), g(w), atol=1e-11)


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
