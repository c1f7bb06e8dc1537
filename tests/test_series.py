"""Truncated series and the Galerkin machinery, cross-checked against
independent oracles: gaussian-moment Monte Carlo and Beta-integral
quadrature for monomial norms, direct monomial sums and pointwise
evaluation for series and compositions, and exact eigenstructure for
diagonal maps."""

import itertools
import json
import math
import os
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

import lfmspec as L
from lfmspec import LinearFractionalMap, TruncatedSeries
from lfmspec import series as S
from lfmspec.maps import TOLERANCES
from lfmspec.series import (
    _graded, _norm_factors, _norm_sq, _positions, _spectral_order, basis_multi_indices,
)


BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def lfm_1d(a, b, c, d):
    return LinearFractionalMap([[a]], [b], [c], d)


def compose(series, f, degree):
    """series(phi(z)) through the given degree."""
    return TruncatedSeries(f.n, degree, S._compose_vector(series, f, _graded(f.n, degree)))


def map_power(f, beta, degree):
    """The truncated series of the monomial (phi(z))^beta."""
    return compose(TruncatedSeries(f.n, sum(beta), {beta: 1.0}), f, degree)


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


def _positions_by_comb(exps):
    """_positions from math.comb on Python ints, one row at a time: the
    reference for its int64 Pascal table."""
    n, out = exps.shape[1], []
    for alpha in exps.tolist():
        rem = sum(alpha)
        pos = math.comb(rem + n - 1, n)
        for i in range(n - 1):
            rem -= alpha[i]
            pos += math.comb(rem + n - i - 2, n - i - 1)
        out.append(pos)
    return out


@pytest.mark.parametrize("n, degree", [(1, 5000), (3, 40), (40, 2), (70, 1)])
def test_positions_match_exact_binomials(n, degree):
    # the int64 Pascal table wraps above 2^63 (comb(70, 35) is about 1.1e20
    # at n = 70), but every entry a position reads is below it
    exps = S._exponents(n, degree)
    assert S._positions(exps).tolist() == _positions_by_comb(exps) == list(range(len(exps)))


@pytest.mark.parametrize("make, error", [
    (lambda: basis_multi_indices(0, 3), L.ParameterConstraintViolated),
    (lambda: basis_multi_indices(2, -1), L.ParameterConstraintViolated),
    (lambda: TruncatedSeries(0, 3), L.ParameterConstraintViolated),
    (lambda: TruncatedSeries(2, -1), L.ParameterConstraintViolated),
    (lambda: TruncatedSeries(2, 3, {(1, 0, 0): 1.0}), L.DimensionMismatch),
    (lambda: TruncatedSeries(2, 3, {(1, -1): 1.0}), L.ParameterConstraintViolated),
    (lambda: TruncatedSeries(2, 3, np.ones(9)), L.DimensionMismatch),
    (lambda: TruncatedSeries(1, 3).coefficient((1, 0)), L.DimensionMismatch),
    (lambda: TruncatedSeries(3, 10**4), L.SizeCapExceeded),
    (lambda: L.binomial_series(0.5, 10, n=2, var=2), L.ParameterConstraintViolated),
    (lambda: L.binomial_series(math.nan, 6), L.ParameterConstraintViolated),
    (lambda: L.binomial_series(math.inf, 6), L.ParameterConstraintViolated),
    (lambda: L.binomial_series(complex(0.5, -math.inf), 0), L.ParameterConstraintViolated),
    (lambda: L.binomial_series(1e308, 6), L.ParameterConstraintViolated),  # c_2 overflows
], ids=["basis-n", "basis-degree", "series-n", "series-degree",
        "series-index-length", "series-index-negative", "series-vector-length", "coefficient-length",
        "series-too-large", "binomial-var", "binomial-nan", "binomial-inf", "binomial-inf-degree-0",
        "binomial-overflow"])
def test_series_inputs_raise_typed_errors(make, error):
    with pytest.raises(error):
        make()


# ---------------------------------------------------------------------------
# monomial norms


def monomial_norm_sq(alpha):
    """||z^alpha||^2 from _norm_sq, for one multi-index."""
    return float(_norm_sq(np.array([alpha], dtype=np.intp))[0])


def _exact_norm_sq(alpha):
    """(n-1)! alpha! / (n-1+|alpha|)! as an exact rational, rounded once."""
    num = math.factorial(len(alpha) - 1)
    for a in alpha:
        num *= math.factorial(a)
    return float(Fraction(num, math.factorial(len(alpha) - 1 + sum(alpha))))


def test_monomial_norm_one_variable():
    # in one variable the monomials are orthonormal
    for k in (0, 1, 5, 40, 300):
        assert monomial_norm_sq((k,)) == 1.0


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
    # the exact rational rounded once; a log-gamma sum is 1.6e-13 off here
    assert monomial_norm_sq((250, 250)) == 1.7097260543732234e-152


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("top", [199, 200, 201, 250, 400])
def test_norms_are_the_exact_rationals_rounded_once(n, top):
    # every monomial of degree k = top - n + 1 (every 17th in three
    # variables), to the bit, on both sides of n - 1 + k = 200
    k = top - n + 1
    exps = S._exponents(n, k)[math.comb(n - 1 + k, n):][::1 if n == 2 else 17]
    want = np.array([_exact_norm_sq(alpha) for alpha in map(tuple, exps.tolist())])
    assert np.array_equal(_norm_sq(exps).view(np.uint64), want.view(np.uint64))


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
        L.eigenfunction_residual(LinearFractionalMap(np.eye(2) * 0.5, [0, 0], [0, 0], 1), 0.5, fa, 3)
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
    s = map_power(f, (1,), 20)
    for k in range(1, 21):
        assert s.coefficient((k,)) == pytest.approx(2.0 ** -k, rel=1e-13)
    assert s.coefficient((0,)) == 0


def test_map_power_series_pointwise():
    f = LinearFractionalMap([[0.4, 0.1], [0, 0.35]], [0.05, 0], [0.1, -0.05], 1.2)
    rng = np.random.default_rng(3)
    s = map_power(f, (2, 1), 18)
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
    direct = compose(TruncatedSeries(1, 30, terms), f, 15)
    parts = sum(c * map_power(f, a, 15).vector for a, c in terms.items())
    assert np.max(np.abs(direct.vector - parts)) <= 1e-14


def test_compose_uses_terms_above_output_degree():
    # high-order terms of F feed low-order composed coefficients whenever
    # phi(0) != 0; dropping them first would corrupt the result
    f = lfm_1d(0.5, 0.5, 0, 1)
    F = L.binomial_series(0.5, 80)
    full = compose(F, f, 10)
    clipped = compose(TruncatedSeries(1, 10, {(k,): F.coefficient((k,)) for k in range(81)}), f, 10)
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


def _diagonal_map(lam, c=None):
    """diag(lam) z / (1 - <z, c>)."""
    n = len(lam)
    return LinearFractionalMap(np.diag(lam), np.zeros(n), np.zeros(n) if c is None else c, 1)


def _compression_eigenvalues(comp):
    """Eigenvalues of a compression in _spectral_order: of its diagonal
    blocks by degree when every entry right of them is zero (block
    triangular, as when phi(0) = 0), else of the whole matrix, each by the
    rule of _eigenvalues.  The reference for compression_spectrum, which
    builds only the diagonal blocks."""
    m, level = comp.matrix, _graded(comp.n, comp.degree).level
    blocks = list(zip(level, level[1:]))
    if any(m[a:b, b:].any() for a, b in blocks):
        blocks = [(0, len(m))]
    return S._block_eigenvalues([(m[a:b, a:b],) for a, b in blocks])


def _exact_products(monkeypatch, f, degree):
    """lambda^beta for |beta| <= degree, lambda the eigenvalues of phi'(0) =
    A / d, from the benchmark's oracle, in _spectral_order: the compression's
    eigenvalues when phi(0) = 0."""
    monkeypatch.syspath_prepend(BENCH)
    import oracles

    want = oracles.expected_compression_eigenvalues(np.linalg.eigvals(f.a / f.d), f.n, degree)
    return want[_spectral_order(want)]


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
    eigs = _compression_eigenvalues(comp)
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
    _compression_eigenvalues(dataclasses.replace(comp, matrix=m))
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
    (_sparse_map(3, 24), 8),
    (_sparse_map(2, 25), 12),
    (_sparse_map(1, 26), 30),
    (_sparse_map(4, 27), 6),
    (_dense_origin_map(1, 29), 30),
    (lfm_1d(1, 0, -1, 2), 60),
    (_diagonal_map([0.0, 0.5, -0.3j]), 12),
    (_diagonal_map([0.0, 0.0]), 12),
    (_diagonal_map([0.4, -0.5j], [0.2, 0.1j]), 25),
    (_diagonal_map([0.3j, 0.2, -0.4], [0.1, 0.2j, -0.1]), 12),
    (_diagonal_map([1e-8, 2e-8j]), 25),
    (_diagonal_map([1e-30, 0.5j]), 25),
    (_diagonal_map([1e-200, 0.5]), 25),
], ids=["dense-n1-d60", "dense-n2-d25", "dense-n3-d12", "sparse-n1-d60", "sparse-n2-d25",
        "sparse-n3-d12", "z-over-2-minus-z-d30", "sparse-n3-d8", "sparse-n2-d12", "sparse-n1-d30",
        "sparse-n4-d6", "dense-n1-d30", "z-over-2-minus-z-d60", "zero-eigenvalue", "zero-map", "c-n2-d25",
        "c-n3-d12", "tiny", "tiny-and-half", "tinier-and-half"])
def test_diagonal_blocks_give_the_full_build_eigenvalues(monkeypatch, f, degree):
    # phi(0) = 0: the eigenvalues from the diagonal blocks alone, or for a
    # diagonal A (every map in one variable) from their diagonals carried as
    # one vector, are those of the whole matrix, bit for bit, zeros, c and
    # blocks of any scale included; the whole matrix is never built
    want = _compression_eigenvalues(L.build_compression(f, degree))
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
    monkeypatch.setattr(S, "_diagonal_map_eigenvalues", lambda *a: touched.append(a))
    with pytest.raises(error):
        L.compression_spectrum(f, degree)
    assert touched == []


def _sorted_bytes(eigs):
    return np.sort_complex(np.asarray(eigs)).tobytes()


@pytest.mark.parametrize("cut", [np.triu, np.tril], ids=["upper", "lower"])
def test_triangular_blocks_have_eigvals_bits_on_their_diagonal(cut):
    # LAPACK's balancing isolates every eigenvalue of a triangular matrix, so
    # eigvals returns the diagonal itself, to the bit
    rng = np.random.default_rng(5)
    for size in range(1, 92):
        block = cut(rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))
        assert _sorted_bytes(np.diagonal(block)) == _sorted_bytes(np.linalg.eigvals(block)), size


@pytest.mark.parametrize("scale", [1.0, 1e-140, 1e-300, 1e140, 1e300])
def test_block_rule_gives_the_bits_of_eigvals(scale):
    # a triangular block's eigenvalues are its scaled diagonal, read off at
    # every scale.  eigvals gives the same bits while zgeev keeps the scale;
    # with the largest entry out of [2^-459, 2^459] it rescales the block,
    # and what it gives back is rounded, within a few ulps
    rng = np.random.default_rng(6)
    rounded = 0
    for size in (2, 5, 17, 40):
        for cut in (np.triu, np.tril, lambda m: np.diag(np.diagonal(m))):
            block = scale * cut(rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))
            norms = rng.uniform(0.1, 1.0, size)
            scaled = block * norms[:, None] / norms
            read = np.diagonal(block) * norms / norms
            assert S._eigenvalues(block, norms).tobytes() == read.tobytes()
            assert S._eigenvalues(scaled).tobytes() == np.diagonal(scaled).tobytes()
            read, lapack = np.sort_complex(read), np.sort_complex(np.linalg.eigvals(scaled))
            assert (np.abs(lapack - read) <= 4 * np.finfo(float).eps * np.abs(read)).all()
            rounded += read.tobytes() != lapack.tobytes()
    assert (rounded == 0) == (scale == 1.0)


def test_diagonal_map_reads_every_block_off(monkeypatch):
    # diag(lambda) z: every diagonal block is diagonal, and no eigvals is
    # called on either path; compression_spectrum makes no map power either,
    # for any c, in one variable and at any scale.  A dense map still builds
    # its blocks, by one power recurrence with c = 0, and solves each one
    # above 1 x 1
    sizes = _eigvals_sizes(monkeypatch)
    built = []
    levels = S._power_levels
    monkeypatch.setattr(S, "_power_levels", lambda *a: built.append(a[2]) or levels(*a))
    f = _sparse_map(3, 12)
    _compression_eigenvalues(L.build_compression(f, 12))
    built.clear()
    for f, degree in [(f, 12), (_sparse_map(2, 32), 25), (_dense_origin_map(1, 33), 60),
                      (_diagonal_map([0.4, 0.3j], [0.2, 0.1]), 25), (_diagonal_map([1e-8, 2e-8j]), 25)]:
        L.compression_spectrum(f, degree)
    assert built == [] and sizes == []
    f = _dense_origin_map(3, 5)
    assert f.c.any()
    L.compression_spectrum(f, 8)
    assert len(built) == 1 and built[0].shape == (3,) and not built[0].any()
    assert sizes == [math.comb(k + 2, 2) for k in range(1, 9)]


def _per_block_eigvals(comp):
    """Each diagonal block of a block lower triangular compression by eigvals,
    a 1 x 1 block read off."""
    level = _graded(comp.n, comp.degree).level
    m = comp.matrix
    eigs = np.concatenate([m[a, a:b] if b - a == 1 else np.linalg.eigvals(m[a:b, a:b])
                           for a, b in zip(level, level[1:])])
    return eigs[_spectral_order(eigs)]


@pytest.mark.parametrize("f, degree, exact", [
    (LinearFractionalMap(np.diag([1e-8, 2e-8j]), np.zeros(2), np.zeros(2), 1), 25, True),  # blocks below 2^-459
    (LinearFractionalMap(np.diag([0.0, 0.5, 0.3j]), np.zeros(3), np.zeros(3), 1), 8, False),  # zero diagonals
    (LinearFractionalMap(np.triu(np.full((3, 3), 0.2 + 0.1j)), np.zeros(3), np.zeros(3), 1), 10, False),
    (LinearFractionalMap(np.tril(np.full((2, 2), 0.3j)), np.zeros(2), [0.1, 0.2j], 1), 20, False),
    (_sparse_map(3, 3), 12, False),
    (_dense_origin_map(2, 4), 12, False),
], ids=["tiny", "zero-eigenvalue", "upper", "lower", "sparse", "dense"])
def test_spectrum_keeps_the_bits_of_per_block_eigvals(monkeypatch, f, degree, exact):
    # reading triangular blocks off gives what eigvals gave for each block,
    # down to the bits of eigenvalues that round to zero.  Blocks below
    # 2^-459, which zgeev rescales and so rounds, are read off too: they are
    # held to the exact products lambda^beta instead, within a few ulps
    got = L.compression_spectrum(f, degree)
    if exact:
        want = _exact_products(monkeypatch, f, degree)
        assert (np.abs(got - want) <= 8 * np.finfo(float).eps * np.abs(want)).all()
    else:
        assert got.tobytes() == _per_block_eigvals(L.build_compression(f, degree)).tobytes()


# ---------------------------------------------------------------------------
# one-variable power table and block eigenpairs


def _one_variable_maps():
    """(a z + b) / (1 + conj(c) z) with each of a, b and c zero or not, a and b not both."""
    return [pytest.param(lfm_1d(a, b, c, 1), id="a%d-b%d-c%d" % (a != 0, b != 0, c != 0))
            for a, b, c in itertools.product((0, 0.4 - 0.3j), (0, 0.2 + 0.1j), (0, -0.3 + 0.2j)) if a or b]


@pytest.mark.parametrize("f", _one_variable_maps())
def test_one_variable_table_keeps_the_bits_of_the_recurrence(monkeypatch, f):
    # the table fills every level at once (by anti-diagonals when c != 0)
    # with the operations of the level-by-level recurrence, in its order
    degrees = (0, 1, 2, 17, 40, 60)
    got = [L.build_compression(f, degree).matrix for degree in degrees]
    monkeypatch.setattr(S, "_power_table", S._power_recurrence)
    for degree, m in zip(degrees, got):
        assert m.tobytes() == L.build_compression(f, degree).matrix.tobytes(), degree


@pytest.mark.parametrize("f", _one_variable_maps())
def test_one_variable_compositions_keep_the_bits_of_the_recurrence(monkeypatch, f):
    # a series of degree K composed through degree D: K above D, below it,
    # K = 0 and D = 0; in one variable, and in z_1 of two decoupled ones
    rng = np.random.default_rng(21)
    two = LinearFractionalMap(np.diag([f.a[0, 0], 0.5]), [f.b[0], 0], [f.c[0], 0], f.d)
    cases = []
    for top, degree in ((30, 12), (5, 20), (0, 7), (9, 0), (0, 0)):
        coeffs = rng.standard_normal(top + 1) + 1j * rng.standard_normal(top + 1)
        cases.append((TruncatedSeries(1, top, coeffs), f, degree))
        cases.append((TruncatedSeries(2, top, {(k, 0): x for k, x in enumerate(coeffs)}), two, degree))
    got = [S._compose_vector(series, g, _graded(g.n, degree)) for series, g, degree in cases]
    monkeypatch.setattr(S, "_power_table", S._power_recurrence)
    for (series, g, degree), vec in zip(cases, got):
        assert vec.tobytes() == S._compose_vector(series, g, _graded(g.n, degree)).tobytes()


def _eig_sizes(monkeypatch):
    sizes = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda m: sizes.append(m.shape[0]) or eig(m))
    return sizes


def _residuals(eigs, vecs, comp):
    """||M v - lambda v|| / ||v|| for each returned eigenpair."""
    return np.linalg.norm(comp.matrix @ vecs - vecs * eigs, axis=0) / np.linalg.norm(vecs, axis=0)


@pytest.mark.parametrize("f, degree", [
    (_dense_origin_map(2, 11), 6),
    (_dense_origin_map(2, 12), 25),
    (_dense_origin_map(3, 13), 5),
    (_dense_origin_map(3, 14), 12),
    (_dense_origin_map(3, 0), 12),  # eig's eigenvalues differ from eigvals' in the last bits
    (_diagonal_map([0.6, -0.5j]), 8),
    (_diagonal_map([0.6, -0.5j]), 25),
    (_diagonal_map([0.4j, 0.5, -0.3], [0.1, 0.2j, -0.1]), 6),
    (_diagonal_map([0.4j, 0.5, -0.3], [0.1, 0.2j, -0.1]), 12),
    (_sparse_map(2, 15), 25),
    (_sparse_map(3, 16), 12),
    (LinearFractionalMap([[0.5, 0.2], [0, -0.4j]], [0, 0], [0.1, 0.2j], 1), 12),
    (LinearFractionalMap([[0.5, 0.2, 0.1], [0, -0.3j, 0.1], [0, 0, 0.35]], [0, 0, 0], [0.1, 0, 0.1j], 1), 8),
], ids=["dense-n2-d6", "dense-n2-d25", "dense-n3-d5", "dense-n3-d12", "dense-n3-d12-seed0",
        "diagonal-n2-d8", "diagonal-n2-d25",
        "diagonal-c-n3-d6", "diagonal-c-n3-d12", "sparse-n2-d25", "sparse-n3-d12", "upper-n2-d12", "upper-n3-d8"])
def test_block_eigenpairs_when_origin_fixed(monkeypatch, f, degree):
    # phi(0) = 0 in two or more variables: eigenpairs from one eig per
    # degree block and no other solve, never from an eig of the whole
    # matrix; the eigenvalues agree with the eigenvalue-only path's (to the
    # bit below 75 x 75 blocks, not always above) and with the exact
    # products lambda^beta, every column has unit norm, and the largest
    # residual is within the field
    want = L.compression_spectrum(f, degree)
    sizes, solves = _eig_sizes(monkeypatch), _eigvals_sizes(monkeypatch)
    eigs, vecs, comp = L.compression_spectrum(f, degree, return_vectors=True)
    assert sizes and max(sizes) < len(comp.basis)
    assert sizes == np.diff(_graded(f.n, degree).level).tolist() and solves == []  # one eig per block
    assert _matched_distance(eigs, want) <= 1e-13 * np.abs(want).max()
    assert _matched_distance(eigs, _exact_products(monkeypatch, f, degree)) <= 1e-13 * np.abs(want).max()
    assert np.abs(np.linalg.norm(vecs, axis=0) - 1.0).max() <= 1e-14
    assert _residuals(eigs, vecs, comp).max() <= TOLERANCES.block_eigenpair_residual


@pytest.mark.parametrize("n, degree, seed", [(2, 25, seed) for seed in range(6)] + [(3, 12, 0), (3, 12, 1)])
def test_eigenpairs_at_the_caps(n, degree, seed):
    # one eig of the whole 351 x 351 matrix left 67-101 of these eigenpairs
    # with a residual above 1e-8 (up to 0.56) at the two-variable cap; the
    # pairs from the degree blocks are all within 1e-14
    eigs, vecs, comp = L.compression_spectrum(_dense_origin_map(n, seed), degree, return_vectors=True)
    assert _residuals(eigs, vecs, comp).max() <= 1e-14


@pytest.mark.parametrize("f, degree", [
    (_diagonal_map([0.5, 0.25], [0.2, 0.1j]), 6),
    (LinearFractionalMap([[0.3, 0.2], [0, 0]], [0, 0], [0.1, 0.1j], 1), 6),
    (LinearFractionalMap([[0.5, 0.3], [1e-6, 0.5]], [0, 0], [0.1, 0.05j], 1), 8),
    (_general_map(2, seed=3), 6),
    (_dense_origin_map(1, 4), 30),
], ids=["resonance", "zero-eigenvalue", "near-defective", "b-nonzero", "one-variable"])
def test_whole_eig_otherwise(monkeypatch, f, degree):
    # 0.5^2 = 0.25 across degrees 1 and 2, and 0 = 0^2, are resonances; a
    # near-defective A leaves ill-conditioned block eigenvectors, and the
    # residual check sends them back; phi(0) != 0 gives no block triangle,
    # and in one variable LAPACK's eig substitutes in the triangle itself.
    # Each solves the whole matrix once, with no division by zero or overflow
    sizes = _eig_sizes(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        eigs, vecs, comp = L.compression_spectrum(f, degree, return_vectors=True)
    assert sizes.count(len(comp.basis)) == 1 and sizes[-1] == len(comp.basis)
    assert _residuals(eigs, vecs, comp).max() <= 1e-12


def test_resonance_stops_before_dividing(monkeypatch):
    # 0.5^2 = 0.25: the degree-2 block has the degree-1 eigenvalue 0.25, and
    # the substitution stops before its solve and division
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda w, r: solves.append(len(w)) or solve(w, r))
    comp = L.build_compression(_diagonal_map([0.5, 0.25], [0.2, 0.1j]), 6)
    assert S._block_eigenpairs(comp.matrix, _graded(2, 6).level) is None
    assert solves == [2]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_galerkin_vector_maps_take_the_block_path(monkeypatch, seed):
    # the benchmark's eigenvector maps, and this file's dense maps of the
    # same sizes, must not fall back to the whole eig: the speed of the
    # block path would go without any other test failing
    monkeypatch.syspath_prepend(BENCH)
    import galerkin

    wl = galerkin.Galerkin()
    wl.build(L, seed)
    cases = [(wl.maps[id(p)], d) for p, _, d in wl.vectors]
    assert [(f.n, d) for f, d in cases] == [(2, 8), (3, 6)]
    cases += [(_dense_origin_map(2, seed), 8), (_dense_origin_map(3, seed), 6)]
    sizes = _eig_sizes(monkeypatch)
    for f, degree in cases:
        comp = L.compression_spectrum(f, degree, return_vectors=True)[2]
        assert len(comp.basis) not in sizes


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
    # the graded tables of its own degree (about 0.1 s to build); the only
    # ones built are those of the comparison degree: in both variables for
    # the residual's norms, and in z_1 alone, the one variable that
    # (1 - z_1)^s and this map couple, for the composition
    seen, plans = [], []
    S._graded.cache_clear()
    S._basis_plan.cache_clear()
    graded, runs = S._graded, S._runs
    monkeypatch.setattr(S, "_graded", lambda n, degree: seen.append((n, degree)) or graded(n, degree))
    monkeypatch.setattr(S, "_runs", lambda first, pred, start: plans.append((len(start) - 2, int(start[-1])))
                        or runs(first, pred, start))
    f = LinearFractionalMap(np.diag([0.5, 0.5]), [0.5, 0], [0, 0], 1)
    s = 1.3 + 0.4j
    F = L.binomial_series(s, 300, n=2)
    assert np.count_nonzero(F.vector) == 301
    assert L.eigenfunction_residual(f, 2.0 ** -s, F, 60) < 1e-9
    assert set(seen) == {(2, 60), (1, 60)}
    # runs only of whole bases, (top degree, size): (2, 60) and (1, 60) for
    # the tables, and the series' own through degree 300 in z_1 alone
    assert set(plans) == {(60, math.comb(62, 2)), (60, 61), (300, 301)}


def _closure_through_the_basis(n, exps):
    """_closure as it was made by marking over the whole basis through the
    top degree, with _predecessors of that degree."""
    degrees = exps.sum(axis=1)
    top = int(degrees.max(initial=-1))
    level = S._levels(n, top)
    first, pred = S._predecessors(n, max(top, 0))
    mask = np.zeros(level[-1], dtype=bool)
    mask[S._positions(exps)] = True
    for lo, hi in zip(level[-2:0:-1], level[:0:-1]):
        mask[pred[lo:hi][mask[lo:hi]]] = True
    rows = np.flatnonzero(mask)
    start = np.searchsorted(rows, level)
    return rows, start, S._runs(first[rows], np.searchsorted(rows, pred[rows]), start)


def test_sparse_residual_builds_no_table_above_the_comparison_degree(monkeypatch):
    # two terms of degrees 226 and 1 in three variables: the closure is the
    # 227 powers of z_3 and z_1, placed by _positions alone; every table is
    # of the comparison degree, and the residual keeps the bits it had when
    # the closure was marked over the whole basis (2.0M monomials)
    rng = np.random.default_rng(8)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    f = LinearFractionalMap(0.3 * a / np.linalg.norm(a, 2), [0.1, 0.05j, 0], [0.1, 0, 0.05], 1)
    func = TruncatedSeries(3, 226, {(0, 0, 226): 1.0, (1, 0, 0): 0.5})
    degrees = []
    for name in ("_exponents", "_predecessors", "_embedding", "_graded"):
        table = getattr(S, name)
        monkeypatch.setattr(S, name, lambda *args, table=table: degrees.append(args[-1]) or table(*args))
    got = L.eigenfunction_residual(f, 0.7, func, 8)
    assert degrees and max(degrees) == 8
    monkeypatch.setattr(S, "_closure", _closure_through_the_basis)
    assert L.eigenfunction_residual(f, 0.7, func, 8) == got


def _predecessor(beta: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """(j, beta - e_j) for j the first nonzero index of beta."""
    j = next(t for t, b in enumerate(beta) if b)
    return j, beta[:j] + (beta[j] - 1,) + beta[j + 1:]


def _chains(support):
    """The support and all its predecessors down to 0, by total degree, each
    level in lex-descending order; and for each level k >= 1 the runs
    (j, lo, hi, pred): exponents lo:hi of level k have j as their first
    nonzero index, and pred holds the positions in level k - 1 of their
    predecessors.  Runs are contiguous since j is nondecreasing in
    lex-descending order."""
    found: list[set] = [set() for _ in range(max(map(sum, support), default=-1) + 1)]
    for beta in support:
        found[sum(beta)].add(beta)
    for k in range(len(found) - 1, 0, -1):
        found[k - 1].update(_predecessor(beta)[1] for beta in found[k])
    levels = [sorted(level, reverse=True) for level in found]
    plan = []
    for prev, cur in zip(levels, levels[1:]):
        where = {beta: i for i, beta in enumerate(prev)}
        runs: dict[int, tuple[int, list]] = {}
        for i, beta in enumerate(cur):
            j, pred = _predecessor(beta)
            runs.setdefault(j, (i, []))[1].append(where[pred])
        plan.append([(j, lo, lo + len(p), np.array(p, dtype=np.intp)) for j, (lo, p) in runs.items()])
    return levels, plan


def _assert_same_plan(plan, want):
    assert [[run[:3] for run in runs] for runs in plan] == [[run[:3] for run in runs] for runs in want]
    for runs, other in zip(plan, want):
        assert all(np.array_equal(run[3], ref[3]) for run, ref in zip(runs, other))


def _compose_in_every_variable(series, f, g):
    """series(phi(z)) through g's degree, composed in all n variables with
    the predecessor chains of the support, made from tuples by _chains: the
    reference that composing in the coupled variables alone, with plans
    made from exponent arrays, must match to the bit."""
    support = S._exponents(series.n, series.degree)[np.flatnonzero(series.vector)]
    levels, plan = _chains([tuple(beta) for beta in support.tolist()])
    chained = np.array([beta for betas in levels for beta in betas], dtype=np.intp).reshape(-1, f.n)
    coeffs = np.split(series.vector[_positions(chained)], np.cumsum([len(betas) for betas in levels[:-1]]))
    out = np.zeros(g.size, dtype=complex)
    for c, (lo, block) in zip(coeffs, S._power_levels(f.a, f.b, f.c, f.d, g, plan)):
        out[lo:lo + len(block)] += block @ c
    return out


def _binomial_case(n, var, coupling):
    """(1 - z_var)^s under phi_var = (1 + z_var) / 2, the other phi_i = z_i / 2,
    and coupled back in: phi_var reading z_w, or c_w != 0, w = var + 1 mod n."""
    a, c, w = 0.5 * np.eye(n, dtype=complex), np.zeros(n, dtype=complex), (var + 1) % n
    if coupling == "offdiagonal":
        a[var, w] = 0.1
    if coupling == "denominator":
        c[w] = 0.2
    f = LinearFractionalMap(a, 0.5 * np.eye(n)[var], c, 1)
    s = 1.3 + 0.4j
    degree = 20 if n == 2 else 12
    kept = 1 if coupling == "decoupled" else 2
    return f, 2.0 ** -s, L.binomial_series(s, 120 if n == 2 else 50, n=n, var=var), degree, kept


def _residual_cases():
    cases = [(("binomial", n, var, coupling), _binomial_case(n, var, coupling))
             for n in (2, 3) for var in range(n) for coupling in ("decoupled", "offdiagonal", "denominator")]
    for n in (1, 2, 3):
        # a constant couples no variable when c = 0 (it is composed in z_1)
        f = LinearFractionalMap(0.5 * np.eye(n), 0.1 * np.ones(n), np.zeros(n), 1)
        cases.append((("constant", n), (f, 1.0, TruncatedSeries(n, 4, {(0,) * n: 2.0 - 1j}), 6, 1)))
    for kind, make in (("dense", _dense_origin_map), ("diagonal", _sparse_map)):
        for n, degree in ((2, 8), (3, 6)):
            f = make(n, 5)
            eigs, vecs, comp = L.compression_spectrum(f, degree, return_vectors=True)
            for k in range(0, len(eigs), 7):
                func = L.series_from_vector(comp, vecs[:, k])
                kept = n if kind == "dense" else max(np.count_nonzero(comp.basis[np.argmax(np.abs(vecs[:, k]))]), 1)
                cases.append(((kind, n, degree, k), (f, eigs[k], func, degree, kept)))
    return cases


@pytest.mark.parametrize("case", [pytest.param(case, id="-".join(map(str, key))) for key, case in _residual_cases()])
def test_coupled_variables_keep_the_bits_of_every_variable(monkeypatch, case):
    # the composition made in the variables the series and the map couple
    # equals, to the bit, the one made in all of them; so does the residual
    f, lam, func, degree, kept = case
    g = _graded(f.n, degree)
    seen = []
    graded = S._graded
    monkeypatch.setattr(S, "_graded", lambda n, d: seen.append(n) or graded(n, d))
    got = S._compose_vector(func, f, g)
    assert seen == [kept]
    want = _compose_in_every_variable(func, f, g)
    assert np.array_equal(got.view(np.uint8), want.view(np.uint8))
    residual = L.eigenfunction_residual(f, lam, func, degree)
    monkeypatch.setattr(S, "_compose_vector", _compose_in_every_variable)
    assert residual.hex() == L.eigenfunction_residual(f, lam, func, degree).hex()


def test_whole_bases_take_the_cached_plan(monkeypatch):
    # a support holding every monomial of its top degree, in the variables
    # kept, closes to the whole basis through it, whose plan is cached: no
    # _runs; any other support is closed and given runs of its own, such as
    # (1 - z_2)^s once z_3 is coupled in
    whole = [_binomial_case(2, 0, "decoupled"), _binomial_case(3, 2, "decoupled")]
    f = _dense_origin_map(3, 5)
    eigs, vecs, comp = L.compression_spectrum(f, 6, return_vectors=True)
    whole.append((f, eigs[1], L.series_from_vector(comp, vecs[:, 1]), 6, 3))
    sparse = [(f, 0.5, TruncatedSeries(3, 6, {(0, 0, 0): 1.0, (2, 1, 0): 0.5}), 6, 3),
              _binomial_case(3, 1, "offdiagonal")]
    planned = []
    runs = S._runs
    for cases, calls in ((whole, 0), (sparse, 1)):
        for f, lam, func, degree, _ in cases:
            L.eigenfunction_residual(f, lam, func, degree)  # warms the caches
            monkeypatch.setattr(S, "_runs", lambda *a: planned.append(a) or runs(*a))
            L.eigenfunction_residual(f, lam, func, degree)
            monkeypatch.setattr(S, "_runs", runs)
            assert len(planned) == calls
            planned.clear()


@pytest.mark.parametrize("coupling", ["decoupled", "offdiagonal", "denominator"])
def test_coupled_composition_agrees_with_pointwise_evaluation(coupling):
    # a different path: F(phi(z)) from maps.evaluate and the series' own
    # evaluate, at small interior points, against the composed series; and,
    # where F = (1 - z_2)^s is an eigenfunction with eigenvalue 2^-s, the
    # pointwise |F(phi(z)) - mu F(z)| / |F(z)| against the residual for mu
    f, lam, func, degree, _ = _binomial_case(2, 1, coupling)
    composed = TruncatedSeries(2, degree, S._compose_vector(func, f, _graded(2, degree)))
    rng = np.random.default_rng(7)
    for _ in range(4):
        z = 0.05 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        image = func.evaluate(L.evaluate(f, z))
        assert composed.evaluate(z) == pytest.approx(image, rel=1e-12)
        if coupling == "decoupled":
            for mu in (lam, 0.3, lam + 0.1j):
                pointwise = abs(image - mu * func.evaluate(z)) / abs(func.evaluate(z))
                assert pointwise == pytest.approx(L.eigenfunction_residual(f, mu, func, degree), abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_z1_takes_each_degree_onto_the_start_of_the_next(n):
    # the z_1 update of div_affine is a slice because of this
    g = _graded(n, 7)
    for a, b in zip(g.level[:-2], g.level[1:-1]):
        assert np.array_equal(g.up[0][a:b], b + np.arange(b - a))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_division_keeps_the_bits_of_the_scatter(n):
    # every z_i update as the fancy-index scatter it was, against div_affine
    rng = np.random.default_rng(13)
    g = _graded(n, 8)
    x = rng.standard_normal((g.size, 3)) + 1j * rng.standard_normal((g.size, 3))
    const, lin = 1.2 - 0.3j, rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for lo in (0, g.level[3]):
        want = x[lo:] / const
        k = int(np.searchsorted(g.level, lo))
        for a, b in zip(g.level[k:-2], g.level[k + 1:-1]):
            for up, t in zip(g.up, lin / const):
                want[up[a:b] - lo] -= t * want[a - lo:b - lo]
        got = g.div_affine(x[lo:].copy(), lo, const, lin)
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


@pytest.mark.parametrize("n, degree", [(1, 9), (1, 300), (2, 7), (2, 25), (3, 5), (3, 12), (4, 4)])
def test_basis_plan_is_the_chains_of_the_basis(n, degree):
    levels, want = _chains(basis_multi_indices(n, degree))
    _assert_same_plan(S._basis_plan(n, degree), want)
    rows, start, plan = S._closure(n, S._exponents(n, degree)[S._levels(n, degree)[-2]:])
    assert plan is S._basis_plan(n, degree)
    assert rows.tolist() == list(range(sum(map(len, levels))))
    assert np.diff(start).tolist() == list(map(len, levels))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closures_from_arrays_are_the_chains(n):
    # random sparse supports, and the empty one, closed by marking
    # predecessors degree by degree: the same monomials, by degree in
    # lex-descending order, and the same runs as the tuple reference
    rng = np.random.default_rng(n)
    supports = [np.zeros((0, n), dtype=np.intp)]
    for degree in (1, 3, 6, 9):
        basis = S._exponents(n, degree)
        for size in (1, 2, 5):
            supports.append(basis[rng.choice(len(basis), min(size, len(basis)), replace=False)])
    for exps in supports:
        levels, want = _chains([tuple(beta) for beta in exps.tolist()])
        rows, start, plan = S._closure(n, exps)
        assert len(start) == len(levels) + 1
        basis = S._exponents(n, max(len(levels) - 1, 0))[rows].tolist()
        assert [list(map(tuple, basis[a:b])) for a, b in zip(start, start[1:])] == levels
        _assert_same_plan(plan, want)


@pytest.mark.parametrize("eigenvalue, coeffs", [
    (math.nan, {(1,): 1.0}),
    (complex(math.inf, 0.0), {(1,): 1.0}),
    (0.5, {(1,): 1.0, (3,): math.nan}),
    (0.5, {(1,): 1.0, (3,): math.inf}),
    (0.4, {(1,): 1e200}),  # |F|^2 overflows
], ids=["nan-eigenvalue", "inf-eigenvalue", "nan-coefficient", "inf-coefficient", "overflow"])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_residual_refuses_non_finite(eigenvalue, coeffs):
    # each of these used to come back as a nan residual
    with pytest.raises(L.ParameterConstraintViolated):
        L.eigenfunction_residual(lfm_1d(0.5, 0, 0, 1), eigenvalue, TruncatedSeries(1, 5, coeffs), 5)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("return_vectors", [False, True])
def test_overflowing_compression_is_refused_in_one_variable(return_vectors):
    # phi(z) = 1e6 z (d = 1e-6 after normalization) is no self-map, and its
    # powers leave the float range at degree 60: nine eigenvalues came back
    # as nan, and the matrix went to eig
    f = lfm_1d(1e6, 0, 0, 1)
    assert np.isfinite(L.compression_spectrum(f, 50)).all()
    with pytest.raises(L.ParameterConstraintViolated, match="float range"):
        L.compression_spectrum(f, 60, return_vectors=return_vectors)
    with pytest.raises(L.ParameterConstraintViolated, match="float range"):
        _compression_eigenvalues(L.build_compression(f, 60))


def _unnormalized_map(a):
    """z -> A z with d = 1, the blocks kept as given."""
    n = len(a)
    f = object.__new__(LinearFractionalMap)
    for name, value in (("n", n), ("a", np.asarray(a, dtype=complex)), ("b", np.zeros(n, dtype=complex)),
                        ("c", np.zeros(n, dtype=complex)), ("d", 1.0)):
        object.__setattr__(f, name, value)
    return f


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("a", [np.diag([1e13, 1e13]), [[1e13, 2e12], [3e12, -1e13j]]], ids=["diagonal", "dense"])
@pytest.mark.parametrize("return_vectors", [False, True])
def test_overflowing_compression_is_refused_in_two_variables(a, return_vectors):
    # the constructor refuses diag(1e13, 1e13) z, whose d - |C| after
    # normalization is below its margin; no map it accepts has an entry of
    # A / d much above 1e12, nor overflows at the N >= 2 caps.  So the
    # blocks go in as given.  LAPACK raised an untyped LinAlgError on them
    with pytest.raises(L.DenominatorVanishes):
        LinearFractionalMap(a, [0, 0], [0, 0], 1)
    with pytest.raises(L.ParameterConstraintViolated, match="float range"):
        L.compression_spectrum(_unnormalized_map(a), 25, return_vectors=return_vectors)


def test_residual_refuses_a_comparison_degree_over_the_term_cap(monkeypatch):
    # comb(3 + 250, 3) = 2,667,126 terms, above the cap: refused before any
    # table is built, as building one that size takes tens of seconds; so
    # is a series in other variables than the map's
    top = max(d for d in range(400) if math.comb(3 + d, 3) <= S.MAX_SERIES_TERMS)
    tables = []

    def graded(n, degree):
        tables.append(degree)
        raise RuntimeError("table")

    monkeypatch.setattr(S, "_graded", graded)
    f, func = _sparse_map(3, 1), TruncatedSeries(3, 2, {(1, 0, 0): 1.0})
    for degree in (top + 1, 250, 10_000):
        with pytest.raises(L.SizeCapExceeded):
            L.eigenfunction_residual(f, 0.5, func, degree)
    with pytest.raises(L.ParameterConstraintViolated):
        L.eigenfunction_residual(f, 0.5, func, -1)
    with pytest.raises(L.DimensionMismatch):  # a series in 2 variables, a map on the 3-ball
        L.eigenfunction_residual(f, 0.5, L.binomial_series(0.5, 40, n=2), 40)
    assert tables == []
    with pytest.raises(RuntimeError, match="table"):
        L.eigenfunction_residual(f, 0.5, func, top)
    assert tables == [top]


def test_residual_rejects_zero_function():
    f = lfm_1d(0.5, 0, 0, 1)
    with pytest.raises(L.ZeroFunction, match="identically zero"):
        L.eigenfunction_residual(f, 0.5, TruncatedSeries(1, 5), 5)
    # z^4 is not zero, but it is through degree 2, where the residual is relative to nothing
    with pytest.raises(L.ZeroFunction, match="through the comparison degree"):
        L.eigenfunction_residual(f, 0.5, TruncatedSeries(1, 5, {(4,): 1.0}), 2)


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
