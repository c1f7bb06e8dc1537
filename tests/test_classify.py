"""Classification dispatch, the two normal-form constructions, and the
classification JSON serialization."""

import math
import sys

import numpy as np
import pytest

import lfmspec as L
from lfmspec import LinearFractionalMap, MapClass
from lfmspec.classify import classification_to_json_dict


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
        rotation=np.eye(n, dtype=complex),
        tau=np.eye(n, dtype=complex)[0],
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


def test_one_fixed_reconstruction():
    f = LinearFractionalMap([[0.5, 0], [0, 0.5]], [0.5, 0], [0, 0], 1)
    nf = L.classify(f).normal_form
    g = nf.reconstructed_ball_map()
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
    g = nf.reconstructed_ball_map()
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
    assert np.allclose(nf.normal_matrix()[0, 1:-1], 0, atol=1e-9)
    assert abs(nf.c.imag) < 1e-9 and nf.c.real > 0


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


def test_batched_conjugacy_residual_matches_pointwise_loop():
    for f in _p0_and_hyperbolic_maps():
        nf = L.classify(f).normal_form
        if not isinstance(nf, L.EllipticP0Form):
            continue
        # the residual as a loop over points, one evaluate and matvec each
        g_tilde = L.conjugated(L.conjugated(f, nf.to_origin), L.unitary_map(nf.rotation))
        rng = np.random.default_rng(11)
        pts = rng.standard_normal((40, f.n)) + 1j * rng.standard_normal((40, f.n))
        pts *= (rng.uniform(0.05, 0.9, size=40) / np.linalg.norm(pts, axis=1))[:, None]
        resid = 0.0
        for z in pts:
            w = L.evaluate(g_tilde, z)
            lhs = w / (1.0 - nf.delta * w[0])
            rhs = nf.a1 @ (z / (1.0 - nf.delta * z[0]))
            resid = max(resid, float(np.linalg.norm(lhs - rhs)))
        assert abs(nf.conjugacy_residual - resid) <= 1e-14


# ---------------------------------------------------------------------------
# iterates from shared squarings


def _iterate_matrix_reference(f, k):
    """The per-order squaring loop, one call per order."""
    m = f.matrix
    out = np.eye(f.n + 1, dtype=complex)
    while k:
        if k & 1:
            out = out @ m
            out /= np.linalg.norm(out)
        m = m @ m
        m /= np.linalg.norm(m)
        k >>= 1
    return out


def test_shared_squarings_give_bit_identical_iterates():
    from lfmspec.maps import _iterate_matrices

    maps = [make() for make, _ in KIND_GALLERY] + [
        lfm_1d(0.5, 0.1j, 0.3 - 0.2j, 1),
        LinearFractionalMap([[0.4, 0.1], [0, 0.3 + 0.2j]], [0.1, 0], [0.2, -0.1j], 1.5),
        LinearFractionalMap(0.3 * np.eye(3), [0.1, 0, 0.2j], [0.1j, -0.2, 0.1 + 0.1j], 1.2),
    ]
    maps += [f for f in _p0_and_hyperbolic_maps() if np.any(f.c.imag)]
    assert {f.n for f in maps if np.any(f.c.imag)} == {1, 2, 3}
    for f in maps:
        shared = _iterate_matrices(f, range(1, 65))
        for k, m in enumerate(shared, start=1):
            assert m.tobytes() == L.iterate_matrix(f, k).tobytes()
            assert m.tobytes() == _iterate_matrix_reference(f, k).tobytes()
