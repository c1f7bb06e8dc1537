"""Acceptance gate: eight end-to-end criteria covering the exact spectral
formulas, the Galerkin oracle, eigenfunction residuals, plant-and-recover
through the half-plane model, conjugation invariance, norm equivalence, and
negative controls. Each criterion prints one PASS/FAIL line to the real
stdout with its runtime."""

import cmath
import math
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

import lfmspec as L
from lfmspec import LinearFractionalMap, TruncatedSeries
from lfmspec.maps import compose, conjugated, unitary_map, validate_self_map
from lfmspec.spectra import Annulus, Circle, ClosedDisk, Point, PointFamily


def _line(num: int, status: str, label: str, dt: float) -> None:
    print(
        "[criterion %d] %s %s (%.2f s)" % (num, status, label, dt),
        file=sys.__stdout__,
        flush=True,
    )


@contextmanager
def criterion(num: int, label: str):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        _line(num, "FAIL", label, time.monotonic() - t0)
        raise
    _line(num, "PASS", label, time.monotonic() - t0)


def lfm_1d(a, b, c, d):
    return LinearFractionalMap([[a]], [b], [c], d)


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


# ---------------------------------------------------------------------------
# criterion 1: one-variable cross-checks


def test_criterion_1_disk_maps():
    with criterion(1, "one-variable spectra and estimator"):
        t0 = time.monotonic()

        # z / (2 - z): closed disk of radius 2^{-1/2} plus the point 1
        s1 = L.spectrum(lfm_1d(1, 0, -1, 2))
        disks = [c for c in s1.components if isinstance(c, ClosedDisk)]
        assert len(disks) == 1
        assert abs(disks[0].radius - 2 ** -0.5) <= 1e-9
        assert any(isinstance(c, Point) and abs(c.value - 1) <= 1e-9 for c in s1.components)

        # (1 + z) / 2: closed disk of radius 2^{1/2}
        s2 = L.spectrum(lfm_1d(0.5, 0.5, 0, 1))
        assert len(s2.components) == 1
        assert isinstance(s2.components[0], ClosedDisk)
        assert abs(s2.components[0].radius - 2 ** 0.5) <= 1e-9

        # rotation precompositions: {0, 1} plus the powers of e^{i theta}/2
        for theta in (2 * math.pi * (math.sqrt(2) - 1), math.pi / 2):
            rot = unitary_map([[cmath.exp(1j * theta)]])
            f3 = compose(lfm_1d(1, 0, -1, 2), rot)
            lam = cmath.exp(1j * theta) / 2
            s3 = L.spectrum(f3)
            assert s3.kind == "elliptic_interior_only"
            assert s3.contains(0.0, tol=1e-9)
            assert s3.contains(1.0, tol=1e-9)
            fam = [c for c in s3.components if isinstance(c, PointFamily)]
            assert len(fam) == 1
            for p in fam[0].points:
                k = round(math.log(abs(p)) / math.log(0.5))
                assert k >= 1
                assert abs(p - lam ** k) <= 1e-9
            for k in range(1, 21):
                assert s3.contains(lam ** k, tol=1e-9)

        # contact-point estimator against the closed form
        est = L.essential_radius_estimate(lfm_1d(1, 0, -1, 2))
        assert abs(est.limit - 2 ** -0.5) / 2 ** -0.5 <= 0.05

        assert time.monotonic() - t0 < 10.0


# ---------------------------------------------------------------------------
# criterion 2: compression oracle, elliptic diagonal map


def test_criterion_2_compression_multiset():
    with criterion(2, "compression eigenvalues match the point family"):
        t0 = time.monotonic()
        f = LinearFractionalMap(np.diag([0.5, 1 / 3]), [0, 0], [0, 0], 1)
        eigs = L.compression_spectrum(f, 6)
        expected = sorted(
            (0.5 ** j * (1 / 3) ** k for j in range(7) for k in range(7 - j)),
            reverse=True,
        )
        assert len(eigs) == len(expected) == 28
        got = sorted(eigs, key=lambda z: -abs(z))
        for g, e in zip(got, expected):
            assert abs(g - e) <= 1e-8
        assert abs(got[0] - 1.0) <= 1e-8
        assert time.monotonic() - t0 < 5.0


# ---------------------------------------------------------------------------
# criterion 3: monomial eigenfunctions for a rotation-contraction product


def test_criterion_3_monomial_eigenfunctions():
    with criterion(3, "monomial eigenfunctions and circle structure"):
        theta = 2 * math.pi * (math.sqrt(2) - 1)
        f = LinearFractionalMap(np.diag([cmath.exp(1j * theta), 0.5]), [0, 0], [0, 0], 1)

        for beta in range(7):
            for gamma in range(7 - beta):
                F = TruncatedSeries(2, 20, {(beta, gamma): 1.0})
                lam = cmath.exp(1j * beta * theta) * 0.5 ** gamma
                assert L.eigenfunction_residual(f, lam, F, 20) < 1e-12

        s = L.spectrum(f)
        radii = sorted((c.radius for c in s.components if isinstance(c, Circle)), reverse=True)
        assert radii
        for g, r in enumerate(radii):
            assert abs(r - 0.5 ** g) <= 1e-12
        assert any(isinstance(c, Point) and c.value == 0 for c in s.components)

        eigs = L.compression_spectrum(f, 20)
        for lam in eigs:
            assert any(abs(abs(lam) - r) <= 1e-8 for r in radii)


# ---------------------------------------------------------------------------
# criterion 4: binomial eigenfunctions sweeping the disk


def test_criterion_4_binomial_eigenfunctions():
    with criterion(4, "binomial eigenfunctions sweep the spectral disk"):
        f = LinearFractionalMap(np.diag([0.5, 0.5]), [0.5, 0], [0, 0], 1)

        # primary batch honors Re s > -1/2; the second batch extends toward
        # the membership boundary Re s > -1 so |lambda| sweeps up to ~1.93
        samples = [complex(x) for x in np.linspace(-0.45, 5.8, 12)]
        samples += [0.5 + 1.3j, 2.0 - 0.7j]
        samples += [complex(x) for x in np.linspace(-0.95, -0.5, 6)]
        assert len(samples) == 20

        s = L.spectrum(f)
        moduli = []
        for sv in samples:
            F = L.binomial_series(sv, 300, n=2, var=0)
            lam = 2.0 ** -sv if sv.imag == 0 else cmath.exp(-sv * math.log(2))
            assert L.eigenfunction_residual(f, lam, F, 60) < 1e-9, sv
            assert s.contains(lam, tol=1e-9)
            moduli.append(abs(lam))
        assert min(moduli) < 0.02 and max(moduli) > 1.9

        assert L.spectral_radius(f) == 2.0

        est = L.essential_radius_estimate(f)
        assert abs(est.limit - 2.0) / 2.0 <= 0.05


# ---------------------------------------------------------------------------
# criterion 5: plant-and-recover through the half-plane model


def test_criterion_5_plant_and_recover():
    with criterion(5, "half-plane plant recovery and annulus membership"):
        rng = np.random.default_rng(5)
        for a in (0.8 + 0j, 0.5 * cmath.exp(1j * math.pi / 3)):
            f = two_fixed_plant(a)
            cl = L.classify(f)
            assert cl.kind == "hyperbolic_two_fixed"
            assert abs(cl.alpha - 0.5) <= 1e-9
            evs = list(cl.normal_form.eigenvalues)
            assert len(evs) == 1
            assert abs(evs[0] - a) <= 1e-9

            s = L.spectrum(f)
            assert s.is_closure
            assert any(isinstance(c, Point) and c.value == 0 for c in s.components)
            ann = sorted(
                (c for c in s.components if isinstance(c, Annulus)),
                key=lambda c: -c.r_outer,
            )
            mod = abs(a)
            for beta, c in enumerate(ann):
                assert abs(c.r_inner - mod ** beta * 0.5) <= 1e-9 * max(1, mod ** beta)
                assert abs(c.r_outer - mod ** beta * 2.0) <= 1e-9 * max(1, mod ** beta)

            # membership at random probes against direct modulus arithmetic
            def member_direct(r, tol=1e-8):
                if r <= tol:
                    return True
                m = 1.0
                while m * 2.0 >= r - tol and m > 1e-14:
                    if m * 0.5 - tol <= r <= m * 2.0 + tol:
                        return True
                    m *= mod
                return False

            radii = rng.uniform(0.0, 2.2, size=1000)
            phases = rng.uniform(0.0, 2 * math.pi, size=1000)
            for r, ph in zip(radii, phases):
                z = r * cmath.exp(1j * ph)
                assert s.contains(z, tol=1e-8) == member_direct(r), (a, z)


# ---------------------------------------------------------------------------
# criterion 6: conjugation invariance


def _random_unitary(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(m)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def _random_map(rng, n):
    """One random valid self-map drawn from families covering every kind."""
    family = rng.integers(0, 7)
    if family == 0:  # unitary rotation
        return unitary_map(_random_unitary(rng, n))
    if family == 1:  # normal linear part, at least one contractive eigenvalue
        v = _random_unitary(rng, n)
        lams = []
        for i in range(n):
            if i == 0 and rng.random() < 0.5:
                lams.append(cmath.exp(2j * math.pi * rng.random()))
            else:
                lams.append(rng.uniform(0.25, 0.85) * cmath.exp(2j * math.pi * rng.random()))
        a = v @ np.diag(lams) @ v.conj().T
        return LinearFractionalMap(a, np.zeros(n), np.zeros(n), 1)
    if family == 2:  # affine contraction toward a boundary point
        al = rng.uniform(0.25, 0.85)
        b = np.zeros(n)
        b[0] = 1 - al
        return LinearFractionalMap(al * np.eye(n), b, np.zeros(n), 1)
    if family == 3:  # boundary fixed point with an interior fixed point
        a = np.eye(n, dtype=complex)
        for i in range(1, n):
            a[i, i] = rng.uniform(0.3, 0.9) * cmath.exp(2j * math.pi * rng.random())
        c = np.zeros(n)
        c[0] = -1
        return LinearFractionalMap(a, np.zeros(n), c, 2)
    if family == 4:  # parabolic
        a = np.eye(n, dtype=complex)
        for i in range(1, n):
            a[i, i] = rng.uniform(0.3, 1.0)
        b = np.zeros(n)
        b[0] = 1
        c = np.zeros(n)
        c[0] = -1
        return LinearFractionalMap(a, b, c, 3)
    if family == 5:  # hyperbolic automorphism
        r = rng.uniform(0.2, 0.7)
        a = np.eye(n, dtype=complex) * math.sqrt(1 - r * r)
        a[0, 0] = 1
        b = np.zeros(n)
        b[0] = r
        c = np.zeros(n)
        c[0] = r
        return LinearFractionalMap(a, b, c, 1)
    # two boundary fixed points (needs n = 2)
    if n == 2:
        mod = rng.uniform(0.3, 0.7)
        return two_fixed_plant(mod * cmath.exp(2j * math.pi * rng.random()))
    return lfm_1d(1, 0, -1, 2)


def _spectrum_or_exc(f):
    try:
        return L.spectrum(f, tail_tol=1e-6), None
    except L.UnsupportedMapClass as exc:
        return None, exc


def test_criterion_6_conjugation_invariance():
    with criterion(6, "classification and spectra invariant under conjugation"):
        t0 = time.monotonic()
        rng = np.random.default_rng(20260816)
        maps = []
        while len(maps) < 50:
            n = int(rng.integers(1, 3))
            f = _random_map(rng, n)
            if validate_self_map(f).ok:
                maps.append(f)

        for f in maps:
            cl = L.classify(f)
            s, exc = _spectrum_or_exc(f)
            cloud = s.discretize(16)[0] if s is not None else None
            for _ in range(5):
                center = rng.uniform(-0.35, 0.35, size=f.n) + 1j * rng.uniform(
                    -0.35, 0.35, size=f.n
                )
                psi = compose(
                    unitary_map(_random_unitary(rng, f.n)),
                    L.ball_automorphism_to_origin(center),
                )
                g = conjugated(f, psi)
                cl2 = L.classify(g)
                assert cl2.kind == cl.kind, (cl.kind, cl2.kind)
                if cl.alpha is None:
                    assert cl2.alpha is None
                else:
                    assert abs(cl2.alpha - cl.alpha) <= 1e-8
                assert cl2.p == cl.p

                s2, exc2 = _spectrum_or_exc(g)
                if s is None:
                    assert s2 is None
                    assert abs(exc2.spectral_radius - exc.spectral_radius) <= 1e-8
                else:
                    for v in cloud:
                        assert s2.contains(v, tol=1e-8)
                    for v in s2.discretize(16)[0]:
                        assert s.contains(v, tol=1e-8)
        assert time.monotonic() - t0 < 120.0


# ---------------------------------------------------------------------------
# criterion 7: norm equivalence interval


def test_criterion_7_norm_equivalence():
    widths = []
    with criterion(7, "weighted/smoothness norm ratios stay in the interval"):
        rng = np.random.default_rng(7)
        for nu in (-1.0, -0.5, 0.0):
            s = math.ceil(nu) + 1.0
            assert s >= nu
            lo, hi = L.norm_equivalence_interval(s, nu, 30)
            widths.append((nu, s, lo, hi))
            for _ in range(30):
                n = int(rng.integers(1, 4))
                deg = int(rng.integers(1, 31))
                coeffs = {}
                from lfmspec.series import basis_multi_indices

                for alpha in basis_multi_indices(n, deg):
                    if rng.random() < 0.15:
                        coeffs[alpha] = complex(rng.standard_normal(), rng.standard_normal())
                if not coeffs:
                    continue
                ser = TruncatedSeries(n, deg, coeffs)
                ratio = L.weighted_norm_sq(ser, nu) / L.sobolev_norm_sq(ser, s, nu)
                assert lo - 1e-12 <= ratio <= hi + 1e-12
    for nu, s, lo, hi in widths:
        print(
            "[criterion 7] interval nu=%+.1f s=%.1f: [%.6g, %.6g] width %.6g"
            % (nu, s, lo, hi, hi - lo),
            file=sys.__stdout__,
            flush=True,
        )


# ---------------------------------------------------------------------------
# criterion 8: negative controls


def test_criterion_8_negative_controls():
    with criterion(8, "expansion rejected; parabolic unsupported with radius 1"):
        rep = validate_self_map(lfm_1d(2, 0, 0, 1))
        assert not rep.ok
        w = rep.witness
        assert float(np.linalg.norm(lfm_1d(2, 0, 0, 1)(w))) > 1.0

        # Cayley pullback of the half-plane translation by one
        f = lfm_1d(1, 1, -1, 3)
        cl = L.classify(f)
        assert cl.kind == "parabolic"
        assert abs(cl.alpha - 1.0) <= 1e-8
        with pytest.raises(L.UnsupportedParabolic) as exc:
            L.spectrum(f)
        assert abs(exc.value.spectral_radius - 1.0) <= 1e-12
