"""Spectral sets per map class, membership/discretization consistency, and
the essential radius estimator against closed forms."""

import math
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import lfmspec as L
from lfmspec import LinearFractionalMap
from lfmspec import spectra as S
from lfmspec.maps import TOLERANCES
from lfmspec.spectra import (
    MAX_FAMILY_POINTS, Annulus, Circle, ClosedDisk, Point, PointFamily, _contractive_products,
    _rotation_fraction,
)
from lfmspec.cli import _csv


def lfm_1d(a, b, c, d):
    return LinearFractionalMap([[a]], [b], [c], d)


def diag_map(*entries):
    n = len(entries)
    return LinearFractionalMap(np.diag(entries), np.zeros(n), np.zeros(n), 1)


def two_fixed_plant(a):
    hp = L.HalfPlaneMap(
        n=2,
        alpha=0.5,
        b=np.zeros(1),
        c=0.0,
        a_block=np.array([[a * math.sqrt(0.5)]]),
        d=np.zeros(1),
    )
    return hp.pulled_back_to_ball()


def two_fixed_plant_n3():
    hp = L.HalfPlaneMap(
        n=3,
        alpha=0.5,
        b=np.zeros(2),
        c=0.0,
        a_block=np.diag([0.6, 0.3j]) * math.sqrt(0.5),
        d=np.zeros(2),
    )
    return hp.pulled_back_to_ball()


# ---------------------------------------------------------------------------
# elliptic automorphisms


def test_irrational_rotation_full_circle():
    th = 2 * math.pi * (math.sqrt(2) - 1)
    s = L.spectrum(diag_map(np.exp(1j * th)))
    assert s.kind == L.MapClass.ELLIPTIC_AUTOMORPHISM
    assert [c for c in s.components if isinstance(c, Circle)] == [Circle(1.0)]
    assert s.contains(np.exp(0.123j))
    assert not s.contains(0.5)


def test_rational_rotation_finite_subgroup():
    s = L.spectrum(diag_map(1j))
    fam = [c for c in s.components if isinstance(c, PointFamily)]
    assert len(fam) == 1
    pts = sorted(fam[0].points, key=lambda z: (z.real, z.imag))
    assert len(pts) == 4
    for k in range(4):
        assert s.contains(1j ** k)
    assert not s.contains(np.exp(0.3j))


def test_rational_rotation_mixed_orders():
    # orders 4 and 6 on the two coordinates: subgroup generated has order 12
    s = L.spectrum(diag_map(1j, np.exp(1j * math.pi / 3)))
    fam = [c for c in s.components if isinstance(c, PointFamily)][0]
    assert len(fam.points) == 12
    assert s.contains(np.exp(1j * math.pi / 6))


# ---------------------------------------------------------------------------
# elliptic with unitary part


def test_unitary_part_irrational_circles():
    th = 2 * math.pi * (math.sqrt(2) - 1)
    f = diag_map(np.exp(1j * th), 0.5)
    s = L.spectrum(f)
    assert s.kind == L.MapClass.ELLIPTIC_UNITARY_PART
    circles = sorted(
        (c.radius for c in s.components if isinstance(c, Circle)), reverse=True
    )
    assert circles[:4] == pytest.approx([1.0, 0.5, 0.25, 0.125])
    assert any(isinstance(c, Point) and c.value == 0 for c in s.components)
    assert s.contains(np.exp(2.0j) * 0.25)
    assert not s.contains(0.7)


def test_unitary_part_rational_points():
    f = diag_map(1j, 0.5)
    s = L.spectrum(f)
    fams = [c for c in s.components if isinstance(c, PointFamily)]
    assert fams
    # i^k 2^{-m} for all k, m: check a few
    for val in (1.0, 1j * 0.5, -0.25, 0.5):
        assert s.contains(val)
    assert not s.contains(0.3)
    assert any(isinstance(c, Point) and c.value == 0 for c in s.components)


# ---------------------------------------------------------------------------
# elliptic, interior fixed point only


def test_interior_only_products():
    s = L.spectrum(diag_map(0.5, 1 / 3))
    assert s.kind == L.MapClass.ELLIPTIC_INTERIOR_ONLY
    for val in (1.0, 0.5, 1 / 3, 0.25, 1 / 6, 1 / 9, 0.5 ** 5 / 3 ** 2):
        assert s.contains(val), val
    assert s.contains(0.0)
    assert not s.contains(0.4)
    assert not s.contains(-0.5)
    assert s.spectral_radius == pytest.approx(1.0)


def test_interior_only_rotation_times_contraction():
    lam = 0.5 * np.exp(0.7j)
    s = L.spectrum(diag_map(lam))
    for k in range(1, 6):
        assert s.contains(lam ** k)
    assert s.contains(1.0)
    assert not s.contains(abs(lam))  # rotated off the real axis


# ---------------------------------------------------------------------------
# hyperbolic and boundary-fixed elliptic


def test_boundary_fixed_disk_and_one():
    s = L.spectrum(lfm_1d(1, 0, -1, 2))
    assert s.kind == L.MapClass.ELLIPTIC_BOUNDARY_FIXED
    disks = [c for c in s.components if isinstance(c, ClosedDisk)]
    assert len(disks) == 1
    assert disks[0].radius == pytest.approx(2 ** -0.5, abs=1e-12)
    assert s.contains(1.0)
    assert s.contains(0.3)
    assert s.contains(2 ** -0.5 * np.exp(1j))
    assert not s.contains(0.9)
    assert s.spectral_radius == pytest.approx(1.0)


@pytest.mark.parametrize("centre", [None, [0.2 + 0.1j, 0.1], [0.3, -0.2j], [-0.1j, 0.4]])
def test_boundary_fixed_product_on_the_rim_is_in_the_disk(centre):
    # (z / 2, 0.4 w) / (1 - z / 2): dilation 2 at e_1, so the essential radius 2^(-1)
    # equals the eigenvalue 0.5, which rounding puts a few ulps either side of it
    f = LinearFractionalMap([[0.5, 0], [0, 0.4]], [0, 0], [-0.5, 0], 1)
    if centre is not None:
        f = L.conjugated(f, L.ball_automorphism_to_origin(np.array(centre)))
    comps = L.spectrum(f).components
    assert [type(c) for c in comps] == [ClosedDisk, S.Point]
    assert comps[0].radius == pytest.approx(0.5, abs=1e-12) and comps[1].value == 1.0


def test_boundary_fixed_refuses_dilation_at_most_one():
    # lam z / (1 - (1 - lam) z) fixes 0 and 1 with angular derivative 1 / lam at 1:
    # dilation Re(1 / lam) = 0.82, below the 1 of every self-map fixing 0 too
    lam = 0.5 + 0.6j
    f = lfm_1d(lam, 0, np.conj(lam) - 1, 1)
    assert L.classify(f).kind == L.MapClass.ELLIPTIC_BOUNDARY_FIXED
    with pytest.raises(L.NumericalInconsistency, match="boundary dilation should exceed 1"):
        L.spectrum(f)


def test_one_fixed_pure_disk():
    s = L.spectrum(lfm_1d(0.5, 0.5, 0, 1))
    assert s.kind == L.MapClass.HYPERBOLIC_ONE_FIXED
    assert s.components == (ClosedDisk(radius=pytest.approx(math.sqrt(2))),)
    assert s.contains(math.sqrt(2))
    assert s.contains(-1.2 + 0.4j)
    assert not s.contains(1.5)
    assert s.spectral_radius == pytest.approx(math.sqrt(2))


def test_two_fixed_annuli():
    s = L.spectrum(two_fixed_plant(0.6), tail_tol=1e-9)
    assert s.kind == L.MapClass.HYPERBOLIC_TWO_FIXED
    assert s.is_closure
    ann = [c for c in s.components if isinstance(c, Annulus)]
    radii = sorted(((a.r_inner, a.r_outer) for a in ann), reverse=True)
    # N = 2, alpha = 1/2: the base annulus is |alpha| <= |z| <= 1/|alpha|
    assert radii[0] == (pytest.approx(0.5), pytest.approx(2.0))
    assert radii[1] == (pytest.approx(0.3), pytest.approx(1.2))
    assert s.contains(2.0)
    assert s.contains(1.2)
    assert s.contains(0.0)
    assert not s.contains(2.01)
    assert s.spectral_radius == pytest.approx(2.0)


def test_two_fixed_complex_eigenvalue_same_annuli():
    a = 0.5 * np.exp(1j * math.pi / 3)
    s = L.spectrum(two_fixed_plant(a), tail_tol=1e-9)
    ann = [c for c in s.components if isinstance(c, Annulus)]
    outer = sorted((x.r_outer for x in ann), reverse=True)
    assert outer[0] == pytest.approx(2.0)
    assert outer[1] == pytest.approx(1.0)
    # membership only sees the modulus
    assert s.contains(0.5 * np.exp(2.2j))


def _two_fixed_block_plant(r):
    # alpha = 1/2 and a' = diag(0.5, r), as in two_fixed_plant_n3
    hp = L.HalfPlaneMap(n=3, alpha=0.5, b=np.zeros(2), c=0.0, a_block=np.diag([0.5, r]) * math.sqrt(0.5),
                        d=np.zeros(2))
    return hp.pulled_back_to_ball()


def _annulus_radii(s):
    assert isinstance(s.components[-1], Point) and s.components[-1].value == 0
    return [(a.r_inner, a.r_outer) for a in s.components[:-1]]


@pytest.mark.parametrize("r", [1.0 - 1e-10, 1.0 - 1e-13])
def test_two_fixed_block_near_one_is_unimodular(r):
    # the block is split as the differential is: within TOLERANCES.unimodular
    # of 1 an eigenvalue adds nothing beyond the empty product, so the
    # spectrum is that of r = 1 and the enumeration stays small
    ref = L.spectrum(_two_fixed_block_plant(1.0))
    s = L.spectrum(_two_fixed_block_plant(r))
    assert (s.kind, s.provenance) == (ref.kind, ref.provenance)
    assert s.spectral_radius == pytest.approx(ref.spectral_radius, rel=1e-13)
    radii = _annulus_radii(s)
    assert len(radii) == len(_annulus_radii(ref)) == 42
    assert radii == [(pytest.approx(lo, rel=1e-13), pytest.approx(hi, rel=1e-13)) for lo, hi in _annulus_radii(ref)]


def test_two_fixed_block_in_the_gap_band_raises():
    f = _two_fixed_block_plant(1.0 - 1e-7)
    assert L.classify(f).kind == L.MapClass.HYPERBOLIC_TWO_FIXED
    start = time.perf_counter()
    with pytest.raises(L.GapEigenvalue, match="modulus 0.9999999 falls between"):
        L.spectrum(f)
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# unsupported classes


def test_parabolic_raises_with_radius():
    f = lfm_1d(1, 1, -1, 3)
    with pytest.raises(L.UnsupportedParabolic) as exc:
        L.spectrum(f)
    assert exc.value.spectral_radius == pytest.approx(1.0)
    assert exc.value.kind == L.MapClass.PARABOLIC
    assert exc.value.kind == "parabolic"
    assert str(exc.value) == "spectrum of a parabolic map is out of scope; spectral radius is 1"


def test_hyperbolic_automorphism_raises():
    f = lfm_1d(1, 0.5, 0.5, 1)
    with pytest.raises(L.UnsupportedAutomorphism) as exc:
        L.spectrum(f)
    assert exc.value.spectral_radius > 1.0
    assert exc.value.kind == "other_automorphism"
    assert str(exc.value) == ("spectrum of a non-elliptic automorphism is out of scope; "
                              "spectral radius is 1.73205")


def test_spectral_radius_shortcut():
    assert L.spectral_radius(diag_map(0.5)) == pytest.approx(1.0)
    assert L.spectral_radius(lfm_1d(0.5, 0.5, 0, 1)) == pytest.approx(math.sqrt(2))
    assert L.spectral_radius(lfm_1d(1, 1, -1, 3)) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# structural invariants


SUPPORTED = [
    diag_map(np.exp(2j * math.pi * (math.sqrt(2) - 1))),
    diag_map(1j),
    diag_map(np.exp(2j * math.pi * (math.sqrt(2) - 1)), 0.5),
    diag_map(1j, 0.5),
    diag_map(0.5, 1 / 3),
    lfm_1d(1, 0, -1, 2),
    lfm_1d(0.5, 0.5, 0, 1),
    two_fixed_plant(0.6),
]


@pytest.mark.parametrize("f", SUPPORTED)
def test_radius_consistency(f):
    s = L.spectrum(f, tail_tol=1e-8)
    assert s.max_modulus() == pytest.approx(s.spectral_radius, abs=1e-9)


@pytest.mark.parametrize("f", SUPPORTED)
def test_discretization_points_are_members(f):
    s = L.spectrum(f, tail_tol=1e-8)
    values, index = s.discretize(32)
    assert len(values) == len(index)
    assert len(values) > 0
    for v in values:
        assert s.contains(v, tol=1e-9)


@pytest.mark.parametrize("f", SUPPORTED)
def test_json_payload_shape(f):
    s = L.spectrum(f, tail_tol=1e-8)
    d = s.to_json_dict()
    assert d["kind"] == str(s.kind)
    assert d["spectral_radius"] == pytest.approx(s.spectral_radius)
    for comp in d["components"]:
        assert comp["type"] in {"points", "circle", "disk", "annulus"}
        if comp["type"] == "annulus":
            assert set(comp) >= {"r_in", "r_out"}
        if comp["type"] == "points":
            assert all(len(v) == 2 for v in comp["values"])


def test_zero_point_present_when_family_accumulates():
    s = L.spectrum(diag_map(1j, 0.5))
    fams = [c for c in s.components if isinstance(c, PointFamily)]
    assert any(f.accumulates_at_zero for f in fams)
    assert any(isinstance(c, Point) and c.value == 0 for c in s.components)


def test_tail_tol_trims_family():
    tight = L.spectrum(diag_map(0.5, 1 / 3), tail_tol=1e-12)
    loose = L.spectrum(diag_map(0.5, 1 / 3), tail_tol=1e-3)
    n_tight = sum(len(c.points) for c in tight.components if isinstance(c, PointFamily))
    n_loose = sum(len(c.points) for c in loose.components if isinstance(c, PointFamily))
    assert n_loose < n_tight
    for c in loose.components:
        if isinstance(c, PointFamily):
            assert all(abs(p) >= 1e-3 for p in c.points)


# ---------------------------------------------------------------------------
# the array enumerator and cloud against the scalar loops they replaced


def _reference_products(generators, tail_tol, max_points=MAX_FAMILY_POINTS):
    """Scalar enumerator: a dict keyed on the 1e-13 grid, each chain walked
    in Python complex arithmetic, sorted by (-|z|, re, im)."""
    def key(v):
        return (int(round(v.real * 1e13)), int(round(v.imag * 1e13)))

    vals = {key(1.0 + 0.0j): 1.0 + 0.0j}
    for g in generators:
        new = {}
        for v in vals.values():
            w = v
            while abs(w) >= tail_tol:
                new[key(w)] = w
                if len(new) > max_points:
                    raise L.SizeCapExceeded("reference cap")
                if g == 0:
                    break
                w = w * g
        vals = new
    return np.array(sorted(vals.values(), key=lambda z: (-abs(z), z.real, z.imag)), dtype=complex)


def _generator_tuples():
    rng = np.random.default_rng(8)

    def rand():
        return complex(rng.uniform(0.05, 0.6) * np.exp(2j * math.pi * rng.uniform()))

    tuples = [(0.5j, 0.5j, -0.5), (0.0,), (0.0, 0.5), (0.5, 0.0, 0.3j), (-0.5,), (0.4j, -0.4j),
              (0.3 + 0.4j, 0.3 - 0.4j), (1e-12, 0.9), (-0.5, -0.5, 0.25j), (0.5, 0.5)]
    for _ in range(6):
        g = rand()
        tuples += [(g,), (g, g), (g, g.conjugate()), (g, -abs(g)), (g, 1j * abs(g), rand()),
                   tuple(rand() for _ in range(rng.integers(1, 4)))]
    return tuples


@pytest.mark.parametrize("tail_tol", [1e-12, 1e-6, 1e-3])
def test_products_match_scalar_reference_bitwise(tail_tol):
    # bitwise, so a product that comes out with the other sign of zero fails
    for gens in _generator_tuples():
        got = _contractive_products(tuple(complex(g) for g in gens), tail_tol)
        assert got.tobytes() == _reference_products(gens, tail_tol).tobytes(), gens


def test_products_of_modulus_exactly_tail_tol_are_kept():
    # abs() decides; np.abs rounds differently in the last bit for about a
    # third of all values and would drop some of these
    for gens in _generator_tuples():
        w = 1.0 + 0.0j
        for _ in range(4):
            w = w * complex(gens[0])
        if w:
            got = _contractive_products(tuple(complex(g) for g in gens), abs(w))
            assert got.tobytes() == _reference_products(gens, abs(w)).tobytes(), gens


def test_products_floored_at_rho_match_filtered_reference():
    # boundary-fixed spectra enumerate down to the essential radius rho only
    rng = np.random.default_rng(9)
    for gens in _generator_tuples():
        rho = rng.uniform(0.2, 0.5)
        got = _contractive_products(tuple(complex(g) for g in gens), rho)
        ref = _reference_products(gens, 1e-12)
        assert got[np.abs(got) > rho].tobytes() == ref[np.abs(ref) > rho].tobytes(), gens


@pytest.mark.parametrize("make", [
    lambda: L.spectrum(diag_map(0.99999, 0.5)),
    lambda: L.spectrum(diag_map(0.5, 0.99999)),
    lambda: L.spectrum(diag_map(0.0, 0.99999)),
    lambda: _contractive_products((0.5, 0.99999), 1e-12),  # many rows at the long stage
    lambda: _contractive_products((0.9999999,), 1e-12),  # one chain of 2.8e8 products
], ids=["slow-first", "slow-second", "zero", "rows", "chain"])
def test_product_family_size_cap_is_prompt(make):
    start = time.perf_counter()
    with pytest.raises(L.SizeCapExceeded):
        make()
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("gens", [(1.0,), (-1j,), (1.5,), (0.5, 1.0)], ids=["one", "minus-i", "expanding", "second"])
def test_products_need_strictly_contractive_generators(gens):
    # chains are walked one by one: a unimodular generator would keep its chain
    # on the circle (on 1 or 4 grid points for ever), a larger one run to inf
    start = time.perf_counter()
    with pytest.raises(L.NumericalInconsistency, match="strictly contractive"):
        _contractive_products(tuple(complex(g) for g in gens), 1e-12)
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("tail_tol", [0.0, -1.0, float("nan")])
def test_products_need_a_positive_tail_tol(tail_tol):
    # every chain would run on through 0 forever
    with pytest.raises(L.ParameterConstraintViolated):
        _contractive_products((), tail_tol)


def test_long_chain_counts_its_grid_points_twice(monkeypatch):
    # 0.99975^k stays above 1e-30 for 276k powers, on 90547 points of the
    # 1e-13 grid: the chain counts them at 100001 and 200002 powers and goes on
    sizes, count = [], S._last_on_grid
    monkeypatch.setattr(S, "_last_on_grid", lambda vals: sizes.append(vals.size) or count(vals))
    s = L.spectrum(diag_map(0.99975), tail_tol=1e-30)
    assert sizes[:2] == [MAX_FAMILY_POINTS + 1, 2 * MAX_FAMILY_POINTS + 2]
    (fam,) = [c for c in s.components if isinstance(c, PointFamily)]
    assert np.array(fam.points).tobytes() == _reference_products(fam.generators, 1e-30)[1:].tobytes()


def _reference_cloud(comp, resolution):
    """Scalar per-component cloud: every ring times the angles on its own."""
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
        return np.concatenate([np.array([0.0 + 0.0j])] + [r * angles for r in rings[1:]])
    rings = comp.r_inner + (comp.r_outer - comp.r_inner) * np.arange(n_rings + 1) / n_rings
    return np.concatenate([r * angles for r in rings])


@pytest.mark.parametrize("resolution", [1, 7, 64])
def test_discretize_matches_scalar_reference_bitwise(resolution):
    for f in SUPPORTED + [two_fixed_plant(0.9), diag_map(np.exp(2j * math.pi * (math.sqrt(2) - 1)), 0.5, 0.3)]:
        s = L.spectrum(f)
        values, index = s.discretize(resolution)
        clouds = [_reference_cloud(c, resolution) for c in s.components]
        assert values.tobytes() == np.concatenate(clouds).tobytes()
        assert index.tobytes() == np.concatenate([np.full(len(c), i) for i, c in enumerate(clouds)]).tobytes()


def test_discretize_counts_points_before_allocating(monkeypatch):
    # z / (2 - z): a disk of 1 + 1250 x 10,000 points and the point 1 is over
    # the cap; 10**12 angles would take terabytes if allocated first
    s = L.spectrum(lfm_1d(1, 0, -1, 2))
    for resolution in (10_000, 10**12):
        with pytest.raises(L.SizeCapExceeded):
            s.discretize(resolution)
    # the count is exact: a cloud of exactly the cap is made, one more is refused
    size = s.discretize(64)[0].size
    monkeypatch.setattr("lfmspec.spectra.MAX_CLOUD_POINTS", size)
    assert s.discretize(64)[0].size == size
    monkeypatch.setattr("lfmspec.spectra.MAX_CLOUD_POINTS", size - 1)
    with pytest.raises(L.SizeCapExceeded):
        s.discretize(64)


def _many_annuli_spectrum():
    """The spectrum of a hyperbolic two-fixed plant on the 3-ball with 16,534 annuli."""
    hp = L.HalfPlaneMap(n=3, alpha=0.5, b=np.zeros(2), c=0.0, a_block=np.diag([0.9, 0.85j]) * math.sqrt(0.5),
                        d=np.zeros(2))
    return L.spectrum(hp.pulled_back_to_ball())


def test_discretize_refuses_huge_annulus_cloud():
    # 16,534 annuli: about 36 M points at the default resolution
    s = _many_annuli_spectrum()
    assert s.discretize(16)[0].size == 793_585
    with pytest.raises(L.SizeCapExceeded):
        s.discretize(128)


def test_discretize_writes_the_cloud_in_place():
    # the values are written into one array and the index is one repeat, so
    # the traced peak is the output and little more
    s = _many_annuli_spectrum()
    tracemalloc.start()
    try:
        values, index = s.discretize(16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * (values.nbytes + index.nbytes)


@pytest.mark.parametrize("resolution", [1, 7, 64])
def test_discretize_mixed_runs_match_scalar_reference_bitwise(resolution):
    # runs of every type, an empty family, a disk between two annulus runs
    empty = PointFamily(generators=(0.5 + 0j,), points=(), min_total_exponent=1, truncated_at=0.6,
                        accumulates_at_zero=False)
    fam = PointFamily(generators=(0.5 + 0j,), points=(0.5 + 0j, 0.25 + 0j, -0.0 + 0.3j), min_total_exponent=1,
                      truncated_at=0.2, accumulates_at_zero=False)
    comps = (empty, Point(1.0 + 0j), Point(-0.0 + 0j), Annulus(0.2, 0.3), Annulus(0.35, 0.4, False, False),
             ClosedDisk(0.15), Annulus(0.5, 0.7), Circle(0.8), Circle(0.9), empty, fam, ClosedDisk(0.05),
             ClosedDisk(0.12), Circle(1.0), Point(0.0 + 0j))
    s = L.SpectralSet(comps, "hand-built", "every run type", 1.0)
    values, index = s.discretize(resolution)
    clouds = [_reference_cloud(c, resolution) for c in comps]
    assert values.tobytes() == np.concatenate(clouds).tobytes()
    assert index.tobytes() == np.concatenate([np.full(len(c), i) for i, c in enumerate(clouds)]).tobytes()


def _cloud_csv(s, resolution=128):
    """The CSV that ``lfmspec export`` writes for the cloud of s."""
    values, index = s.discretize(resolution)
    return _csv("re,im,component_index", values.real, values.imag, index)


def test_cloud_csv_format():
    s = L.spectrum(lfm_1d(1, 0, -1, 2))
    text = _cloud_csv(s, resolution=16)
    lines = text.strip().split("\n")
    assert lines[0] == "re,im,component_index"
    row = lines[1].split(",")
    assert len(row) == 3
    complex(float(row[0]), float(row[1]))  # parses


class _Cloud:
    def __init__(self, values, index):
        self.values, self.index = values, index

    def discretize(self, resolution):
        return self.values, self.index


def _csv_reference(s, resolution):
    """Two format() calls per point, as the CSV was first written."""
    values, index = s.discretize(resolution)
    lines = ["re,im,component_index"]
    for v, i in zip(values, index):
        lines.append("%s,%s,%d" % (format(v.real, ".17g"), format(v.imag, ".17g"), i))
    return "\n".join(lines) + "\n"


def test_cloud_csv_matches_per_point_format():
    clouds = [L.spectrum(two_fixed_plant_n3()),
              _Cloud(np.array([0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0), 1 / 3 - 2e-300j]),
                     np.array([0, 0, 1, 1, 2])),
              _Cloud(np.zeros(0, dtype=complex), np.zeros(0, dtype=int))]
    for s in clouds:
        assert _cloud_csv(s, resolution=16) == _csv_reference(s, 16)
    assert clouds[0].kind == L.MapClass.HYPERBOLIC_TWO_FIXED.value
    assert _cloud_csv(clouds[2]) == "re,im,component_index\n"
    signed = _cloud_csv(clouds[1])
    assert "\n-0,0,0\n" in signed and "\n0,-0,1\n" in signed


# ---------------------------------------------------------------------------
# essential radius estimation


def test_estimator_one_fixed_disk_map():
    # z / (2 - z) has angular derivative phi'(1) = 2 at its boundary fixed point
    f = lfm_1d(1, 0, -1, 2)
    est = L.essential_radius_estimate(f)
    assert est.angular_derivative == pytest.approx(2.0, rel=1e-12)
    assert est.limit == pytest.approx(2 ** -0.5, rel=1e-12)
    assert est.tau == pytest.approx([1.0])


def test_estimator_matches_closed_form_n2():
    f = LinearFractionalMap(
        np.array([[0.5, 0], [0, 0.5]]), [0.5, 0], [0, 0], 1.0
    )
    cl = L.classify(f)
    closed = L.essential_radius_closed_form(cl)
    assert closed == pytest.approx(2.0)
    est = L.essential_radius_estimate(f)
    assert est.limit == pytest.approx(closed, rel=1e-12)


@pytest.mark.parametrize("f, centre", [
    (lfm_1d(0.5, 0.5, 0, 1), [0.3 + 0.1j]),  # (1 + z) / 2
    (lfm_1d(1, 0, -1, 2), [0.2 - 0.3j]),  # z / (2 - z)
    (LinearFractionalMap(np.diag([0.5, 0.4]), [0, 0], [-0.5, 0], 1), [0.2 + 0.1j, 0.1]),
    (LinearFractionalMap(np.diag([0.5, 0.5]), [0.5, 0], [0, 0], 1), [0.2 + 0.1j, 0.1]),
], ids=["hyperbolic N=1", "boundary fixed N=1", "boundary fixed N=2", "hyperbolic N=2"])
def test_estimator_complex_conjugations(f, centre):
    # a complex centre gives the conjugate a non-real C, which the pairing's
    # denominator row must carry exactly once
    g = L.conjugated(f, L.ball_automorphism_to_origin(np.array(centre)))
    assert np.any(np.abs(g.c.imag) > 1e-3)
    closed = L.essential_radius_closed_form(L.classify(g))
    assert closed == pytest.approx(L.essential_radius_closed_form(L.classify(f)))
    est = L.essential_radius_estimate(g)
    assert est.limit == pytest.approx(closed, rel=1e-12)


def _estimator_sweep():
    """Seeded maps with a planted essential radius, each conjugated at a
    random complex centre, plus the two maps on which sampling the boundary
    quotient at fixed radii saturated."""
    rng = np.random.default_rng(5)
    cases = []
    for n in (1, 2, 3):
        for _ in range(10):
            c = float(rng.uniform(0.3, 0.7))
            a = np.diag([1 - c] + [0.9 * math.sqrt(1 - c)] * (n - 1))
            bfix = LinearFractionalMap(a, np.zeros(n), [-c] + [0] * (n - 1), 1)
            alpha = float(rng.uniform(0.3, 0.9))
            hyp = L.HalfPlaneMap(n=n, alpha=alpha, b=np.zeros(n - 1), c=1.0, a_block=0.5 * math.sqrt(alpha) * np.eye(n - 1),
                                 d=np.zeros(n - 1)).pulled_back_to_ball()
            for f, ess in ((bfix, (1 - c) ** (n / 2)), (hyp, alpha ** (-n / 2))):
                v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                centre = v * rng.uniform(0.1, 0.5) / np.linalg.norm(v)
                cases.append((L.conjugated(f, L.ball_automorphism_to_origin(centre)), ess))
    hyp = L.HalfPlaneMap(n=2, alpha=0.3, b=np.zeros(1), c=1.0, a_block=0.5 * math.sqrt(0.3) * np.eye(1),
                         d=np.zeros(1))
    return cases + [(lfm_1d(0.25, 0.75, 0, 1), 2.0), (hyp.pulled_back_to_ball(), 0.3 ** -1)]


def test_estimator_seeded_conjugated_sweep():
    # the J-form pairing and the classification's Jacobian dilation are two
    # paths to the same angular derivative
    for f, ess in _estimator_sweep():
        est = L.essential_radius_estimate(f)
        closed = L.essential_radius_closed_form(L.classify(f))
        assert closed == pytest.approx(ess, rel=1e-9)
        assert abs(est.limit - closed) <= 1e-12 * closed


@pytest.mark.parametrize("alpha", [0.5, 0.1, 0.05, 0.01, 1e-3, 1e-4])
def test_estimator_conjugated_small_dilation_sweep(alpha):
    # alpha z + 1 - alpha at a complex centre: the pairing is a difference of
    # terms of order one worth about alpha, so its rounding grows as alpha falls
    f = lfm_1d(alpha, 1 - alpha, 0, 1)
    g = L.conjugated(f, L.ball_automorphism_to_origin(np.array([0.3 + 0.1j])))
    closed = L.essential_radius_closed_form(L.classify(g))
    assert closed == pytest.approx(alpha ** -0.5, rel=1e-9)
    assert abs(L.essential_radius_estimate(g).limit - closed) <= 5e-12 * closed


def test_estimator_elliptic_automorphism_is_one():
    # unitary rotation preserves every quotient: the limit must be 1
    est = L.essential_radius_estimate(diag_map(np.exp(0.7j)), tau=np.array([1.0]))
    assert est.limit == pytest.approx(1.0, abs=1e-6)


def test_estimator_requires_boundary_point():
    with pytest.raises(L.NoBoundaryFixedPoint):
        L.essential_radius_estimate(diag_map(0.5, 1 / 3))


def test_estimator_default_tau_refuses_a_repelling_dominant_point():
    # fixed points e_1, e_2 and (0.6, 0.8), all on the sphere, of eigenvalues 1, 0.8
    # and 0.5: with no interior fixed point the default tau is e_1, which repels
    # (dilation 1.1); sup |phi| is 1.063, so this is no self-map
    p = np.array([[1, 0, 0.6], [0, 1, 0.8], [1, 1, 1]], dtype=complex)
    f = LinearFractionalMap.from_matrix(p @ np.diag([1, 0.8, 0.5]) @ np.linalg.inv(p))
    with pytest.raises(L.NoQualifyingBoundaryPoint):
        L.essential_radius_estimate(f)
    assert L.essential_radius_estimate(f, tau=np.array([1.0, 0.0])).angular_derivative == pytest.approx(1.1)


def test_estimator_small_dilation_n3():
    # N = 3 and alpha = 1/4: alpha^(-3/2) = 8, where sampling the quotient
    # at fixed radii overflowed
    f = LinearFractionalMap(np.diag([0.25, 0.3, 0.3]), [0.75, 0, 0], [0, 0, 0], 1)
    assert L.essential_radius_estimate(f).limit == pytest.approx(8.0, rel=1e-6)


def test_estimator_tiny_dilation_stays_finite():
    # alpha = 1e-12: the root alpha^(-3/2) = 1e18 is taken in logs
    a = 1e-12
    f = LinearFractionalMap(np.diag([a, 0.5e-6, 0.5e-6]), [1 - a, 0, 0], [0, 0, 0], 1)
    est = L.essential_radius_estimate(f)
    assert math.isfinite(est.limit) and est.limit == pytest.approx(1e18, rel=1e-6)


def test_estimator_nonpositive_derivative_is_typed():
    # (1 + z) / 2 maps -1 to 0, inside the ball: no contact, and the
    # pairing is 0
    with pytest.raises(L.NumericalInconsistency, match="angular derivative 0 at tau"):
        L.essential_radius_estimate(lfm_1d(0.5, 0.5, 0, 1), tau=np.array([-1.0]))


@pytest.mark.parametrize("use", [L.essential_radius_estimate], ids=["estimator"])
@pytest.mark.parametrize("tau, error", [
    ([1.0, 0.0, 0.0], L.DimensionMismatch),
    ([0.0, 0.0], L.ParameterConstraintViolated),
    ([math.nan, 0.0], L.ParameterConstraintViolated),
    ([math.inf, 0.0], L.ParameterConstraintViolated),
    ([1e200, 1e200], L.ParameterConstraintViolated),  # the norm overflows
], ids=["wrong-length", "zeros", "nan", "inf", "overflow"])
def test_bad_tau_is_refused_typed_and_silently(use, tau, error):
    # hyperbolic on the 2-ball with Denjoy-Wolff point e_1: a tau of the
    # wrong length, or one with no unit direction, ends in a typed error,
    # never a numpy ValueError, a RuntimeWarning or an estimate of nan
    f = LinearFractionalMap([[0.5, 0], [0, 0.5]], [0.5, 0], [0, 0], 1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(error):
            use(f, np.array(tau))
    assert issubclass(error, L.BallMapError)
    assert caught == []


def test_estimator_does_not_swallow_numerical_faults(monkeypatch):
    def broken(fps):
        raise L.NumericalInconsistency("dominant point disagrees")

    # (1 + z) / 2 fixes no interior point, so its default tau is the Denjoy-Wolff point
    monkeypatch.setattr("lfmspec.spectra._dominant_boundary_point", broken)
    with pytest.raises(L.NumericalInconsistency, match="dominant point"):
        L.essential_radius_estimate(lfm_1d(0.5, 0.5, 0, 1))


def test_estimator_solves_fixed_points_once(monkeypatch):
    # z/(2-z) fixes 0: the default tau is its boundary fixed point 1, read
    # off the same fixed-point set that showed the interior point
    calls = []
    solve = L.fixed_points

    def counted(f):
        calls.append(f)
        return solve(f)

    monkeypatch.setattr("lfmspec.spectra.fixed_points", counted)
    est = L.essential_radius_estimate(lfm_1d(1, 0, -1, 2))
    assert est.tau == pytest.approx((1.0,))
    assert len(calls) == 1


def test_closed_form_only_for_disk_classes():
    assert L.essential_radius_closed_form(L.classify(diag_map(0.5))) is None
    cl = L.classify(lfm_1d(1, 0, -1, 2))
    assert L.essential_radius_closed_form(cl) == pytest.approx(2 ** -0.5)


@pytest.mark.parametrize("contractive", [[], [0.5]], ids=["subgroup", "family"])
def test_finite_families_above_the_cap_are_refused(contractive):
    # rotations by 1/61 and 1/59 turns generate 3599 roots of unity, times
    # about 40 powers of 0.5 above the tail; with 1/53 as well, 190,747
    turns = [61, 59] + ([] if contractive else [53])
    f = diag_map(*np.exp(2j * math.pi / np.array(turns)), *contractive)
    assert L.classify(f).kind == (L.MapClass.ELLIPTIC_UNITARY_PART if contractive
                                  else L.MapClass.ELLIPTIC_AUTOMORPHISM)
    with pytest.raises(L.SizeCapExceeded):
        L.spectrum(f)


def _limit_denominator(lam):
    """The reference: arg(lam) / 2pi as Fraction.limit_denominator gives it,
    kept within the root-of-unity angle."""
    theta = math.atan2(complex(lam).imag, complex(lam).real) / (2.0 * math.pi) % 1.0
    frac = Fraction(theta).limit_denominator(TOLERANCES.root_of_unity_order)
    if abs(theta - float(frac)) > TOLERANCES.root_of_unity_angle:
        return None
    return frac.numerator, frac.denominator


def test_rotation_fraction_is_the_limit_denominator():
    # every p/q with q <= 64, those shifted just inside (0.5e-9) and just
    # outside (2e-9) the angle, and random angles
    fracs = {Fraction(p, q) for q in range(1, TOLERANCES.root_of_unity_order + 1) for p in range(q)}
    angles = [float(fr) + shift for fr in fracs for shift in (0.0, 0.5e-9, -0.5e-9, 2e-9, -2e-9)]
    angles += np.random.default_rng(7).uniform(0.0, 1.0, 1000).tolist()
    found = 0
    for theta in angles:
        lam = complex(np.exp(2j * math.pi * theta))
        want = _limit_denominator(lam)
        assert _rotation_fraction(lam) == want, theta
        found += want is not None
    assert found == 3 * len(fracs)
