"""Truncated series and the Galerkin machinery, cross-checked against
independent oracles: gaussian-moment Monte Carlo and Beta-integral
quadrature for monomial norms, direct monomial sums and pointwise
evaluation for series and compositions, and exact eigenstructure for
diagonal maps."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

import lfmspec as L
from lfmspec import LinearFractionalMap, TruncatedSeries
from lfmspec import series as S
from lfmspec.series import (
    _graded, _norm_factors, _positions, _spectral_order, basis_multi_indices, compression_eigenvalues,
    monomial_norm_sq,
)


def lfm_1d(a, b, c, d):
    return LinearFractionalMap([[a]], [b], [c], d)


# ---------------------------------------------------------------------------
# basis ordering


def test_basis_grlex_order():
    b = basis_multi_indices(2, 2)
    assert b == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_basis_size():
    assert len(basis_multi_indices(3, 12)) == math.comb(15, 3)


@pytest.mark.parametrize("n, degree", [(1, 10), (2, 12), (3, 8), (4, 6)])
def test_graded_positions_match_basis(n, degree):
    # the closed-form position of each exponent, and the basis itself
    # against a brute-force sort by (degree, lex-descending)
    basis = basis_multi_indices(n, degree)
    every = [a for a in itertools.product(range(degree + 1), repeat=n) if sum(a) <= degree]
    assert basis == sorted(every, key=lambda a: (sum(a), [-x for x in a]))
    assert list(_positions(np.array(basis))) == list(range(len(basis)))


@pytest.mark.parametrize("make, error", [
    (lambda: basis_multi_indices(0, 3), L.ParameterConstraintViolated),
    (lambda: basis_multi_indices(2, -1), L.ParameterConstraintViolated),
    (lambda: monomial_norm_sq(()), L.ParameterConstraintViolated),
    (lambda: monomial_norm_sq((1, -1)), L.ParameterConstraintViolated),
    (lambda: TruncatedSeries(0, 3), L.ParameterConstraintViolated),
    (lambda: TruncatedSeries(2, -1), L.ParameterConstraintViolated),
    (lambda: TruncatedSeries(2, 3, {(1, 0, 0): 1.0}), L.DimensionMismatch),
    (lambda: TruncatedSeries(2, 3, {(1, -1): 1.0}), L.ParameterConstraintViolated),
    (lambda: TruncatedSeries(2, 3, np.ones(9)), L.DimensionMismatch),
    (lambda: TruncatedSeries(1, 3).coefficient((1, 0)), L.DimensionMismatch),
    (lambda: TruncatedSeries(3, 10**4), L.SizeCapExceeded),
    (lambda: L.binomial_series(0.5, 10, n=2, var=2), L.ParameterConstraintViolated),
], ids=["basis-n", "basis-degree", "norm-empty", "norm-negative", "series-n", "series-degree",
        "series-index-length", "series-index-negative", "series-vector-length", "coefficient-length",
        "series-too-large", "binomial-var"])
def test_series_inputs_raise_typed_errors(make, error):
    with pytest.raises(error):
        make()


# ---------------------------------------------------------------------------
# monomial norms


def test_monomial_norm_one_variable():
    # in one variable the monomials are orthonormal
    for k in (0, 1, 5, 40, 300):
        assert monomial_norm_sq((k,)) == pytest.approx(1.0, rel=1e-12)


def test_monomial_norm_beta_integral():
    # N=2: ||z1^j z2^k||^2 = 2 * int_0^{pi/2} cos^{2j+1} sin^{2k+1}
    for j, k in [(0, 0), (1, 0), (2, 3), (5, 5), (10, 1)]:
        val, _ = integrate.quad(
            lambda t: 2 * math.cos(t) ** (2 * j + 1) * math.sin(t) ** (2 * k + 1),
            0,
            math.pi / 2,
        )
        assert monomial_norm_sq((j, k)) == pytest.approx(val, rel=1e-9)


def test_monomial_norm_gaussian_moments():
    # E|g^alpha|^2 / |g|^(2|alpha|) over complex gaussians equals the norm
    rng = np.random.default_rng(42)
    g = (rng.standard_normal((200_000, 3)) + 1j * rng.standard_normal((200_000, 3))) / math.sqrt(2)
    for alpha in [(1, 0, 0), (1, 1, 0), (2, 0, 1)]:
        k = sum(alpha)
        num = np.abs(g[:, 0]) ** (2 * alpha[0]) * np.abs(g[:, 1]) ** (2 * alpha[1]) * np.abs(g[:, 2]) ** (2 * alpha[2])
        mc = float(np.mean(num / np.linalg.norm(g, axis=1) ** (2 * k)))
        assert monomial_norm_sq(alpha) == pytest.approx(mc, rel=0.02)


def test_monomial_norm_large_degree_stable():
    v = monomial_norm_sq((250, 250))
    assert 0 < v < 1e-100


# ---------------------------------------------------------------------------
# series storage


def test_series_evaluate_two_variables():
    rng = np.random.default_rng(2)
    coeffs = {}
    for alpha in basis_multi_indices(2, 4):
        coeffs[alpha] = complex(rng.standard_normal(), rng.standard_normal())
    f = TruncatedSeries(2, 8, coeffs)
    z = np.array([0.21 - 0.05j, 0.17j])
    direct = sum(c * z[0] ** a[0] * z[1] ** a[1] for a, c in coeffs.items())
    assert f.evaluate(z) == pytest.approx(direct, abs=1e-12)


def test_series_dimension_mismatch():
    fa = TruncatedSeries(1, 3, {(1,): 1.0})
    with pytest.raises(L.DimensionMismatch):
        L.compose_series(fa, LinearFractionalMap(np.eye(2) * 0.5, [0, 0], [0, 0], 1), 3)
    with pytest.raises(L.DimensionMismatch):
        fa.evaluate([0.1, 0.2])


def test_series_from_dict_and_vector_agree():
    # dict terms above the degree are dropped, and the vector's prefixes
    # are the lower truncations
    f = TruncatedSeries(2, 3, {(1, 0): 3.0, (0, 2): -0.5j, (2, 2): 9.0})
    assert f.coefficient((1, 0)) == 3.0
    assert f.coefficient((2, 2)) == 0
    vec = np.zeros(10, dtype=complex)
    vec[[1, 5]] = [3.0, -0.5j]
    assert np.array_equal(f.vector, vec)
    assert np.array_equal(TruncatedSeries(2, 3, vec).vector, f.vector)
    assert np.array_equal(TruncatedSeries(2, 2, vec[:6]).vector, f.vector[:6])


# ---------------------------------------------------------------------------
# binomial series


def test_binomial_series_evaluation_oracle():
    for s in (0.5, -0.45, 2.0, 1.3 - 0.7j):
        f = L.binomial_series(s, 60)
        for x in (0.05, 0.1 + 0.1j, -0.2):
            exact = np.exp(s * np.log1p(-x))
            assert f.evaluate([x]) == pytest.approx(exact, abs=1e-13)


def test_binomial_series_integer_exponent_terminates():
    f = L.binomial_series(3, 10)
    # (1-z)^3 has exactly 4 terms
    assert list(np.flatnonzero(f.vector)) == [0, 1, 2, 3]
    assert f.coefficient((2,)) == pytest.approx(3.0)


def test_binomial_series_other_variable():
    f = L.binomial_series(2, 5, n=2, var=1)
    assert f.coefficient((0, 1)) == pytest.approx(-2.0)
    assert f.coefficient((1, 0)) == 0


# ---------------------------------------------------------------------------
# map power series


def test_map_series_geometric_expansion():
    # z/(2-z) = sum_k z^k / 2^k, k >= 1
    f = lfm_1d(1, 0, -1, 2)
    s = L.map_power_series(f, (1,), 20)
    for k in range(1, 21):
        assert s.coefficient((k,)) == pytest.approx(2.0 ** -k, rel=1e-13)
    assert s.coefficient((0,)) == 0


def test_map_power_series_pointwise():
    f = LinearFractionalMap([[0.4, 0.1], [0, 0.35]], [0.05, 0], [0.1, -0.05], 1.2)
    rng = np.random.default_rng(3)
    s = L.map_power_series(f, (2, 1), 18)
    for _ in range(5):
        z = 0.25 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        w = f(z)
        assert s.evaluate(z) == pytest.approx(w[0] ** 2 * w[1], abs=1e-12)


def test_reciprocal_times_denominator_is_one():
    f = LinearFractionalMap([[0.4, 0.1], [0, 0.35]], [0.05, 0], [0.3, -0.2j], 1.5)
    g = _graded(2, 15)
    den_lin = np.conj(f.c)
    unit = np.zeros(g.size, dtype=complex)
    unit[0] = 1.0
    inv = g.div_affine(unit, 0, f.d, den_lin)
    one = g.mul_affine(inv, 0, f.d, den_lin, 0, g.size)
    assert one[0] == pytest.approx(1.0, abs=1e-13)
    assert np.max(np.abs(one[1:])) < 1e-13


def test_reciprocal_needs_constant_term():
    g = _graded(1, 4)
    with pytest.raises(L.ZeroConstantTerm):
        g.div_affine(np.ones(g.size, dtype=complex), 0, 0.0, [1.0])
    with pytest.raises(L.ZeroConstantTerm):
        g.div_affine(np.ones(g.size, dtype=complex), 0, 0.0, [0.0])


@pytest.mark.parametrize("lin", [(), (0.0, 0.0), (0.0, -0.0)])
def test_division_by_a_constant_is_elementwise(lin):
    # no linear term: the quotient is x / const, to the last bit, at any offset
    rng = np.random.default_rng(11)
    g = _graded(2, 9)
    x = rng.standard_normal((g.size, 4)) + 1j * rng.standard_normal((g.size, 4))
    const = 1.3 - 0.7j
    for lo in (0, g.level[3]):
        got = g.div_affine(x[lo:].copy(), lo, const, lin)
        assert np.array_equal(got.view(np.uint8), (x[lo:] / const).view(np.uint8))


def test_compose_series_is_linear_in_terms():
    f = lfm_1d(1, 0, -1, 2)
    terms = {(0,): 2.0, (1,): -1.0j, (4,): 0.7}
    direct = L.compose_series(TruncatedSeries(1, 30, terms), f, 15)
    parts = sum(c * L.map_power_series(f, a, 15).vector for a, c in terms.items())
    assert np.max(np.abs(direct.vector - parts)) <= 1e-14


def test_compose_uses_terms_above_output_degree():
    # high-order terms of F feed low-order composed coefficients whenever
    # phi(0) != 0; dropping them first would corrupt the result
    f = lfm_1d(0.5, 0.5, 0, 1)
    F = L.binomial_series(0.5, 80)
    full = L.compose_series(F, f, 10)
    clipped = L.compose_series(TruncatedSeries(1, 10, {(k,): F.coefficient((k,)) for k in range(81)}), f, 10)
    diff = np.max(np.abs(full.vector - clipped.vector))
    assert diff > 1e-6


# ---------------------------------------------------------------------------
# compression


def test_compression_diagonal_map_exact():
    f = LinearFractionalMap([[0.5, 0], [0, 1 / 3]], [0, 0], [0, 0], 1)
    comp = L.build_compression(f, 6)
    m = comp.matrix
    expected = np.diag([0.5 ** a[0] * (1 / 3) ** a[1] for a in comp.basis])
    assert np.allclose(m, expected, atol=1e-14)


def _general_map(n, seed):
    """(A z + B) / (<z, c> + 1) with B != 0 and non-real entries in c."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return LinearFractionalMap(
        0.4 * a / np.linalg.norm(a, 2), 0.2 * b / np.linalg.norm(b), 0.3 * c / np.linalg.norm(c), 1
    )


@pytest.mark.parametrize("n, degree, grid", [(1, 60, 128), (2, 25, 64), (3, 12, 32)])
def test_compression_columns_match_torus_fft(n, degree, grid):
    # Cauchy integrals on the torus |z_j| = r: the FFT of phi^beta sampled
    # there gives c_alpha r^|alpha| for |alpha_j| < grid, up to aliasing of
    # order (r / R)^grid with R the radius of convergence; norms from lgamma.
    # Checked relative to each column, whose entries shrink with |beta|.
    f = _general_map(n, seed=n)
    comp = L.build_compression(f, degree)
    r = n ** -0.5
    ang = r * np.exp(2j * math.pi * np.arange(grid) / grid)
    pts = np.stack(np.meshgrid(*([ang] * n), indexing="ij"), axis=-1).reshape(-1, n)
    phi = np.array([L.evaluate(f, z) for z in pts]).reshape((grid,) * n + (n,))

    def norm(alpha):
        return math.exp(0.5 * (math.lgamma(n) + sum(math.lgamma(a + 1) for a in alpha) - math.lgamma(n + sum(alpha))))

    idx = tuple(np.array(comp.basis).T)
    deg = np.array([sum(a) for a in comp.basis])
    norms = np.array([norm(a) for a in comp.basis])
    size = len(comp.basis)
    for j in sorted({1, n, size // 3, size // 2, size - n, size - 1}):
        beta = comp.basis[j]
        vals = np.prod(phi ** np.array(beta), axis=-1)
        taylor = (np.fft.fftn(vals) / vals.size)[idx] / r ** deg
        want = taylor * norms / norms[j]
        assert np.max(np.abs(comp.matrix[:, j] - want)) < 1e-10 * np.max(np.abs(want)), beta


def test_compression_triangular_when_origin_fixed():
    f = lfm_1d(1, 0, -1, 2)
    comp = L.build_compression(f, 12)
    m = comp.matrix
    for i, alpha in enumerate(comp.basis):
        for j, beta in enumerate(comp.basis):
            if sum(alpha) < sum(beta):
                assert m[i, j] == 0


def test_compression_spectrum_sorted():
    eigs = L.compression_spectrum(lfm_1d(1, 0, -1, 2), 10)
    mods = [abs(x) for x in eigs]
    assert mods == sorted(mods, reverse=True)
    assert eigs[0] == pytest.approx(1.0, abs=1e-10)


def test_compression_caps():
    with pytest.raises(L.SizeCapExceeded):
        L.build_compression(lfm_1d(1, 0, -1, 2), 61)
    with pytest.raises(L.SizeCapExceeded):
        L.build_compression(LinearFractionalMap(np.eye(3) * 0.5, np.zeros(3), np.zeros(3), 1), 13)
    with pytest.raises(L.ParameterConstraintViolated):
        L.build_compression(lfm_1d(1, 0, -1, 2), -1)


def test_compression_csv_formats(tmp_path, capsys):
    from lfmspec.cli import main

    f = lfm_1d(0.5, 0, 0, 1)
    path = tmp_path / "half.json"
    path.write_text(json.dumps(L.map_to_json_dict(f)))
    assert main(["compress", str(path), "--degree", "3"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "re,im"
    assert len(lines) == 5
    # %.17g carries each eigenvalue to the last bit
    eigs = L.compression_spectrum(f, 3)
    assert [tuple(map(float, line.split(","))) for line in lines[1:]] == [(x.real, x.imag) for x in eigs]
    assert main(["compress", str(path), "--degree", "3", "--format", "json"]) == 0
    header = json.loads(capsys.readouterr().out)["result"]["basis"]
    assert header["basis"][0] == [0]
    assert header["degree"] == 3


def test_series_from_vector_round_trip():
    f = lfm_1d(1, 0, -1, 2)
    eigs, vecs, comp = L.compression_spectrum(f, 8, return_vectors=True)
    func = L.series_from_vector(comp, vecs[:, 3])
    # eigenvector of the compression: C_phi func = lam func through degree 8
    r = L.eigenfunction_residual(f, eigs[3], func, 8)
    assert r < 1e-12


# ---------------------------------------------------------------------------
# block-triangular eigensolve


def _dense_origin_map(n, seed):
    """A z / (1 - <z, c>) with dense complex A, |A| = 0.6 and |c| = 0.3."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return LinearFractionalMap(0.6 * a / np.linalg.norm(a, 2), np.zeros(n), 0.3 * c / np.linalg.norm(c), 1)


def _sparse_map(n, seed):
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.2, 0.9, n) * np.exp(2j * math.pi * rng.random(n))
    return LinearFractionalMap(np.diag(lam), np.zeros(n), np.zeros(n), 1)


def _matched_distance(x, y):
    """Largest distance under the best one-to-one matching of two multisets."""
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(x[:, None] - y[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(np.max(cost[rows, cols]))


@pytest.mark.parametrize("f, degree", [
    (_dense_origin_map(2, 1), 25),
    (_dense_origin_map(3, 2), 12),
    (_sparse_map(3, 3), 12),
    (_dense_origin_map(1, 4), 60),
], ids=["dense-n2-d25", "dense-n3-d12", "sparse-n3-d12", "dense-n1-d60"])
def test_block_eigenvalues_match_full_solve(f, degree):
    comp = L.build_compression(f, degree)
    eigs = compression_eigenvalues(comp)
    assert eigs.shape == (len(comp.basis),)
    assert _matched_distance(eigs, np.linalg.eigvals(comp.matrix)) < 1e-12


def _eigvals_sizes(monkeypatch):
    sizes = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda m: sizes.append(m.shape[0]) or eigvals(m))
    return sizes


@pytest.mark.parametrize("n, degree", [(1, 30), (2, 10), (3, 6)])
def test_block_eigensolve_when_origin_fixed(monkeypatch, n, degree):
    sizes = _eigvals_sizes(monkeypatch)
    L.compression_spectrum(_dense_origin_map(n, n), degree)
    assert max(sizes, default=0) <= math.comb(degree + n - 1, n - 1)
    if n == 1:
        assert sizes == []  # every block is 1x1, read off the diagonal


def test_full_eigensolve_when_not_block_triangular(monkeypatch):
    import dataclasses

    sizes = _eigvals_sizes(monkeypatch)
    L.compression_spectrum(_general_map(2, seed=2), 6)
    assert sizes == [28]
    comp = L.build_compression(_dense_origin_map(2, 5), 6)
    m = comp.matrix.copy()
    m[1, 3] = 1e-300  # degree-1 row, degree-2 column: above the blocks
    sizes.clear()
    compression_eigenvalues(dataclasses.replace(comp, matrix=m))
    assert sizes == [28]


def _build_calls(monkeypatch):
    calls = []
    build = S.build_compression
    monkeypatch.setattr(S, "build_compression", lambda *a: calls.append(a) or build(*a))
    return calls


@pytest.mark.parametrize("f, degree", [
    (_dense_origin_map(1, 6), 60),
    (_dense_origin_map(2, 7), 25),
    (_dense_origin_map(3, 8), 12),
    (_sparse_map(1, 9), 60),
    (_sparse_map(2, 10), 25),
    (_sparse_map(3, 11), 12),
    (lfm_1d(1, 0, -1, 2), 30),
], ids=["dense-n1-d60", "dense-n2-d25", "dense-n3-d12", "sparse-n1-d60", "sparse-n2-d25",
        "sparse-n3-d12", "z-over-2-minus-z-d30"])
def test_diagonal_blocks_give_the_full_build_eigenvalues(monkeypatch, f, degree):
    # phi(0) = 0: the eigenvalues from the diagonal blocks alone are those of
    # the whole matrix, bit for bit, and the whole matrix is never built
    want = compression_eigenvalues(L.build_compression(f, degree))
    calls = _build_calls(monkeypatch)
    got = L.compression_spectrum(f, degree)
    assert calls == []
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


@pytest.mark.parametrize("f, return_vectors", [
    (_general_map(2, seed=4), False),
    (_dense_origin_map(2, 3), True),
], ids=["general", "origin-fixed-vectors"])
def test_whole_compression_built_once_otherwise(monkeypatch, f, return_vectors):
    # phi(0) != 0, or eigenvectors asked for: one build of the whole matrix
    calls = _build_calls(monkeypatch)
    L.compression_spectrum(f, 6, return_vectors=return_vectors)
    assert len(calls) == 1


@pytest.mark.parametrize("f, degree, error", [
    (lfm_1d(1, 0, -1, 2), 61, L.SizeCapExceeded),
    (_sparse_map(3, 1), 13, L.SizeCapExceeded),
    (_dense_origin_map(2, 1), 26, L.SizeCapExceeded),
    (_sparse_map(4, 1), 20, L.SizeCapExceeded),  # no degree cap for N = 4; comb(24, 4) > MAX_BASIS_SIZE
    (lfm_1d(1, 0, -1, 2), -1, L.ParameterConstraintViolated),
    (_sparse_map(3, 1), -2, L.ParameterConstraintViolated),
])
def test_diagonal_path_refuses_before_building(monkeypatch, f, degree, error):
    with pytest.raises(error):
        L.build_compression(f, degree)
    touched = []
    monkeypatch.setattr(S, "_graded", lambda *a: touched.append(a))
    monkeypatch.setattr(S, "_power_levels", lambda *a, **k: touched.append(a))
    with pytest.raises(error):
        L.compression_spectrum(f, degree)
    assert touched == []


@pytest.mark.parametrize("eigs", [
    [0.5, 0.5, 0.5j, -0.5, -0.5j, 0.5, 0.3 + 0.4j, 0.3 - 0.4j, -0.3 + 0.4j, 0.4 + 0.3j],
    [0.25, 0.25 + 0j, 0.0, -0.0, 0.0, 1j, -1j, 1.0, -1.0, 1j],
    [0.6 * np.exp(2j * math.pi * k / 7) for k in range(7)] * 2 + [0.6, -0.6],
])
def test_spectral_order_matches_sorted_key(eigs):
    # the 7th roots of unity have moduli on which np.abs and abs() differ in the last bit
    eigs = np.array(eigs, dtype=complex)
    old = sorted(range(eigs.shape[0]), key=lambda i: (-abs(eigs[i]), eigs[i].real, eigs[i].imag))
    assert list(_spectral_order(eigs)) == old


# ---------------------------------------------------------------------------
# eigenfunction residuals


def test_monomials_are_eigenfunctions_of_diagonal_maps():
    th = 2 * math.pi * (math.sqrt(2) - 1)
    f = LinearFractionalMap([[np.exp(1j * th), 0], [0, 0.5]], [0, 0], [0, 0], 1)
    for beta in [(1, 0), (0, 1), (2, 3), (4, 1)]:
        F = TruncatedSeries(2, 10, {beta: 1.0})
        lam = np.exp(1j * beta[0] * th) * 0.5 ** beta[1]
        assert L.eigenfunction_residual(f, lam, F, 10) < 1e-13


def test_residual_detects_wrong_eigenvalue():
    f = lfm_1d(0.5, 0.5, 0, 1)
    F = L.binomial_series(1.0, 200)
    good = L.eigenfunction_residual(f, 0.5, F, 25)
    bad = L.eigenfunction_residual(f, 0.4, F, 25)
    assert good < 1e-10
    assert bad == pytest.approx(0.1, rel=1e-9)  # ||(0.5 - 0.4) F|| / ||F||


def test_degree_300_residual_stays_below_the_compression_caps(monkeypatch):
    # a degree-300 series in two variables is placed and composed without
    # the graded tables of its own degree (about 0.5 s to build); the only
    # ones built are those of the comparison degree, which the residual needs
    seen = []
    S._graded.cache_clear()
    graded = S._graded
    monkeypatch.setattr(S, "_graded", lambda n, degree: seen.append((n, degree)) or graded(n, degree))
    f = LinearFractionalMap(np.diag([0.5, 0.5]), [0.5, 0], [0, 0], 1)
    s = 1.3 + 0.4j
    F = L.binomial_series(s, 300, n=2)
    assert np.count_nonzero(F.vector) == 301
    assert L.eigenfunction_residual(f, 2.0 ** -s, F, 60) < 1e-9
    assert set(seen) == {(2, 60)}
    assert all(degree <= max(S.MAX_COMPRESSION_DEGREE[n], 60) for n, degree in seen)


def test_residual_rejects_zero_function():
    f = lfm_1d(0.5, 0, 0, 1)
    with pytest.raises(L.ZeroFunction):
        L.eigenfunction_residual(f, 0.5, TruncatedSeries(1, 5), 5)


# ---------------------------------------------------------------------------
# norms


def test_weighted_norm_hand_value():
    ser = TruncatedSeries(1, 5, {(0,): 1, (3,): 2j, (5,): -1})
    # (k+1)^{2 nu} with nu = 1/2: 1 + 4*4 + 1*6
    assert L.weighted_norm_sq(ser, 0.5) == pytest.approx(23.0)


def test_sobolev_norm_boundary_weight_is_hardy():
    # c = -1 radial weight degenerates to the sphere: s-grading only
    ser = TruncatedSeries(1, 5, {(0,): 1, (3,): 2j, (5,): -1})
    assert L.sobolev_norm_sq(ser, 0.5, 0.5) == pytest.approx(1 + 3 * 4 + 5 * 1)


def test_sobolev_rejects_nonintegrable_weight():
    ser = TruncatedSeries(1, 2, {(1,): 1})
    with pytest.raises(L.ParameterConstraintViolated):
        L.sobolev_norm_sq(ser, 0.0, 1.0)  # c = -3


@pytest.mark.parametrize("norm, coeffs", [
    (lambda ser: L.sobolev_norm_sq(ser, 200.0, 0.0), {(30,): 1.0}),  # 30^400
    (lambda ser: L.weighted_norm_sq(ser, 1000.0), {(30,): 1.0}),  # 31^2000
    (lambda ser: L.weighted_norm_sq(ser, 1.0), {(2,): 1e200}),  # |c|^2
    (lambda ser: L.sobolev_norm_sq(ser, 1.0, 1.0), {(0,): 1e160}),
    (lambda ser: L.weighted_norm_sq(ser, 80.0), {(30,): 1e150}),  # each power fits, the term does not
    (lambda ser: L.sobolev_norm_sq(ser, 80.0, 80.0), {(30,): 1e150}),
], ids=["sobolev-s", "weighted-nu", "weighted-coeff", "sobolev-coeff", "weighted-sum", "sobolev-sum"])
def test_norms_refuse_to_leave_the_float_range(norm, coeffs):
    with pytest.raises(L.ParameterConstraintViolated):
        norm(TruncatedSeries(1, 30, coeffs))


@pytest.mark.parametrize("s2, nu2", [(1, 1), (2, -1), (6, 1), (200, 1)])
def test_norm_factors_against_exact_rationals(s2, nu2):
    # 2s, 2nu and c = 2s - 2nu - 1 integers: k^(2s) c! k! / (c + k + 1)! is a
    # rational; at 2s = 200 the factors reach 30^200 ~ 1e295
    c = s2 - nu2 - 1
    for k, (wf, sf, ratio) in enumerate(_norm_factors(s2 / 2, nu2 / 2, 30)):
        w = Fraction(k + 1) ** nu2 if k else Fraction(1)
        r = Fraction(math.factorial(c) * math.factorial(k), math.factorial(c + k + 1)) if c >= 0 else 1
        so = Fraction(k) ** s2 * r if k else Fraction(1)
        assert wf == pytest.approx(float(w), rel=1e-13)
        assert sf == pytest.approx(float(so), rel=1e-12)
        assert ratio == pytest.approx(float(w / so), rel=1e-12)


def test_norm_interval_rejects_negative_kmax():
    with pytest.raises(L.ParameterConstraintViolated):
        L.norm_equivalence_interval(0.5, 0.5, -1)


@pytest.mark.parametrize("k_max", [10_001, 10**12])
def test_norm_factors_refuse_huge_kmax(k_max):
    # refused before the first row: 10**12 rows would otherwise never end
    with pytest.raises(L.SizeCapExceeded):
        _norm_factors(0.5, 0.5, k_max)
    with pytest.raises(L.SizeCapExceeded):
        L.norm_equivalence_interval(0.5, 0.5, k_max)


@given(
    s=st.floats(min_value=0.0, max_value=2.0),
    nu=st.floats(min_value=-1.0, max_value=0.5),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=40, deadline=None)
def test_norm_ratio_lies_in_interval(s, nu, seed):
    if 2 * s - 2 * nu - 1 < -1:
        return
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    deg = int(rng.integers(1, 12))
    coeffs = {}
    for alpha in basis_multi_indices(n, deg):
        if rng.random() < 0.4:
            coeffs[alpha] = complex(rng.standard_normal(), rng.standard_normal())
    if not coeffs:
        return
    ser = TruncatedSeries(n, deg, coeffs)
    w = L.weighted_norm_sq(ser, nu)
    so = L.sobolev_norm_sq(ser, s, nu)
    lo, hi = L.norm_equivalence_interval(s, nu, deg)
    assert lo - 1e-12 <= w / so <= hi + 1e-12
