"""Truncated power series in several complex variables and the Galerkin
compression of a composition operator onto polynomials.

Everything here is a numerical cross-check for the exact spectra: finite
sections of the operator matrix, eigenfunction residuals, and the two
graded norms used in the norm-equivalence check.  A series is one dense
coefficient vector over basis_multi_indices(n, degree), the order of the
compression basis and of the map powers (see _power_levels).  The order is
graded, so each prefix of the vector is a lower truncation; an input to a
composition may reach far above the output degree.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    ParameterConstraintViolated,
    SizeCapExceeded,
    ZeroConstantTerm,
    ZeroFunction,
)
from .maps import TOLERANCES, LinearFractionalMap

__all__ = [
    "TruncatedSeries",
    "Compression",
    "basis_multi_indices",
    "binomial_series",
    "build_compression",
    "compression_spectrum",
    "series_from_vector",
    "eigenfunction_residual",
    "weighted_norm_sq",
    "sobolev_norm_sq",
    "norm_equivalence_interval",
]

# truncation degrees beyond which the compression matrix is refused
MAX_COMPRESSION_DEGREE = {1: 60, 2: 25, 3: 12}
MAX_BASIS_SIZE = 3000
MAX_NORM_DEGREE = 10_000
MAX_SERIES_TERMS = 2_000_000  # N = 3 accepts degree 226: _Graded in 4.5-6 s, 532 MB peak RSS, 2 vCPUs


@functools.lru_cache(maxsize=32)
def _exponents(n: int, degree: int) -> np.ndarray:
    """basis_multi_indices(n, degree) as a read-only (size, n) int array.

    Degree k is k - j beside the degree-j exponents of the last n - 1
    variables, for j = 0..k: the rows of their table through degree k."""
    if n == 1:
        out = np.arange(degree + 1)[:, None]
    else:
        rest, below = _exponents(n - 1, degree), _levels(n - 1, degree)
        out = np.concatenate([
            np.column_stack((np.repeat(np.arange(k, -1, -1), np.diff(below[:k + 2])), rest[:below[k + 1]]))
            for k in range(degree + 1)
        ])
    out.flags.writeable = False
    return out


def basis_multi_indices(n: int, degree: int) -> list[tuple[int, ...]]:
    """Monomial exponents of total degree <= degree, graded, and within
    each degree in lexicographically descending order."""
    if n < 1 or degree < 0:
        raise ParameterConstraintViolated("need n >= 1 and degree >= 0")
    return [tuple(alpha) for alpha in _exponents(n, degree).tolist()]


def _positions(exps: np.ndarray) -> np.ndarray:
    """Position of each row alpha of exps in basis_multi_indices(n, d),
    for any d >= |alpha| = k: the comb(n + k - 1, n) monomials of lower
    degree come first, then for each i < n - 1 the comb(r - alpha_i - 1 +
    n - i - 1, n - i - 1) of degree k that agree with alpha before i and
    exceed it at i, r = k - alpha_0 - ... - alpha_(i-1)."""
    n, rem = exps.shape[1], exps.sum(axis=1)
    comb = np.zeros((int(rem.max(initial=0)) + n, n + 1), dtype=np.intp)
    comb[:, 0] = 1
    for r in range(1, n + 1):  # Pascal's rule mod 2^64: exact below 2^63, as every entry read is
        comb[1:, r] = np.cumsum(comb[:-1, r - 1])
    rems = rem[:, None] - np.cumsum(exps[:, :-1], axis=1)  # r - alpha_i for each i < n - 1
    return comb[rem + n - 1, n] + comb[rems + np.arange(n - 2, -1, -1), np.arange(n - 1, 0, -1)].sum(axis=1)


def _support(series) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the nonzero terms of series and their exponents, by
    inverting _positions without a table: degree k is the last _levels
    offset at or below the position; then for each i < n - 1, the r
    monomials before alpha whose rest has degree below t = k - alpha_0 -
    ... - alpha_i are the _levels(n - 1 - i) offset of t."""
    idx = np.flatnonzero(series.vector)
    exps = np.empty((len(idx), series.n), dtype=np.intp)
    level = _levels(series.n, series.degree)
    rem = np.searchsorted(level, idx, side="right") - 1
    r = idx - level[rem]
    for i in range(series.n - 1):
        level = _levels(series.n - 1 - i, series.degree)
        t = np.searchsorted(level, r, side="right") - 1
        exps[:, i], r, rem = rem - t, r - level[t], t
    exps[:, -1] = rem
    return idx, exps


def _checked_exponents(n: int, alphas) -> np.ndarray:
    """The multi-indices as an (m, n) int array, checked."""
    rows = [tuple(int(a) for a in alpha) for alpha in alphas]
    if any(len(alpha) != n for alpha in rows):
        raise DimensionMismatch("a multi-index of length other than %d, the number of variables" % n)
    if any(min(alpha) < 0 for alpha in rows):
        raise ParameterConstraintViolated("a multi-index with a negative exponent")
    return np.array(rows, dtype=np.intp).reshape(len(rows), n)


_comb = np.frompyfunc(math.comb, 2, 1)  # exact, elementwise, as object arrays


def _norm_sq(exps: np.ndarray) -> np.ndarray:
    """||z^alpha||^2 = (n-1)! alpha! / (n-1+k)! on the sphere of C^n for each
    row alpha of exps, k = |alpha|: one correctly rounded division 1 / M by
    the exact integer M = comb(n-1+k, n-1) prod_i comb(k - alpha_0 - ... -
    alpha_(i-1), alpha_i)."""
    n, rem = exps.shape[1], exps.sum(axis=1)
    m = _comb(rem + n - 1, n - 1)
    for i in range(n - 1):
        m, rem = m * _comb(rem, exps[:, i]), rem - exps[:, i]
    return (1 / m).astype(float)


def _series_size(n: int, degree: int) -> int:
    """comb(n + degree, n), the number of terms through degree in n
    variables, refused above MAX_SERIES_TERMS."""
    if n < 1 or degree < 0:
        raise ParameterConstraintViolated("need n >= 1 and degree >= 0")
    size = math.comb(n + degree, n)
    if size > MAX_SERIES_TERMS:
        raise SizeCapExceeded("series has %d terms, cap is %d" % (size, MAX_SERIES_TERMS))
    return size


class TruncatedSeries:
    """Polynomial truncation of a power series in n complex variables.

    ``vector`` holds the coefficient of z^alpha for every alpha of total
    degree <= ``degree``, in basis_multi_indices(n, degree) order; since
    that order is graded, its first comb(n + d, n) entries are the
    truncation at degree d.  ``coeffs`` is either such a vector or a dict
    {alpha: coefficient}, whose terms above ``degree`` are dropped.
    """

    __slots__ = ("n", "degree", "vector")

    def __init__(self, n: int, degree: int, coeffs=None):
        size = _series_size(n, degree)
        self.n, self.degree = n, degree
        if coeffs is None or isinstance(coeffs, dict):
            terms = coeffs or {}
            exps = _checked_exponents(n, terms)
            keep = exps.sum(axis=1) <= degree
            self.vector = np.zeros(size, dtype=complex)
            np.add.at(self.vector, _positions(exps[keep]), np.array(list(terms.values()), dtype=complex)[keep])
        else:
            self.vector = np.array(coeffs, dtype=complex)
            if self.vector.shape != (size,):
                raise DimensionMismatch("coefficient vector of shape %s, series has %d terms"
                                        % (self.vector.shape, size))

    def coefficient(self, alpha: tuple[int, ...]) -> complex:
        exps = _checked_exponents(self.n, [alpha])
        return complex(self.vector[_positions(exps)[0]]) if exps.sum() <= self.degree else 0.0 + 0.0j

    def evaluate(self, z) -> complex:
        z = np.asarray(z, dtype=complex).reshape(-1)
        if z.shape[0] != self.n:
            raise DimensionMismatch("point has %d coordinates, series has %d variables" % (z.shape[0], self.n))
        idx, exps = _support(self)
        return complex(self.vector[idx] @ np.prod(z ** exps, axis=1))

    def __repr__(self):
        return "TruncatedSeries(n=%d, degree=%d, terms=%d)" % (self.n, self.degree, np.count_nonzero(self.vector))


def binomial_series(exponent: complex, degree: int, n: int = 1, var: int = 0) -> TruncatedSeries:
    """(1 - z_var)^exponent through the given degree, as a series in n
    variables.  Coefficients follow c_{k+1} = c_k (k - exponent)/(k + 1); a
    non-finite exponent or coefficient is refused (see _finite)."""
    if not 0 <= var < n:
        raise ParameterConstraintViolated("variable index out of range")
    s, c = complex(exponent), 1.0 + 0.0j
    if not np.isfinite(s):
        raise ParameterConstraintViolated("the exponent %r is not finite" % s)
    out = TruncatedSeries(n, degree)
    for k, pos in enumerate(_embedding(n, (var,), degree)):
        out.vector[pos] = c
        c = c * (k - s) / (k + 1)
    _finite(out.vector, "a binomial coefficient")
    return out


# ---------------------------------------------------------------------------
# dense graded layout and the monomial powers of a map


class _Graded:
    """Index tables for dense coefficient vectors of polynomials in n
    variables through a degree D, laid out in the compression basis order.

    Every table comes from the rows of _exponents(n, D).  ``level[k]`` is
    the offset of degree k, ``up[i][s]`` the position of row s + e_i for s
    of degree below D, ``first`` and ``pred`` are _predecessors', ``plan``
    their runs (see _basis_plan).  Arrays here are shared through _graded
    and must not be written to.
    """

    def __init__(self, n: int, degree: int):
        exps, self.level = _exponents(n, degree), _levels(n, degree)
        self.degree, self.size = degree, len(exps)
        self.up = [_positions(exps[: self.level[degree]] + unit) for unit in np.eye(n, dtype=np.intp)]
        (self.first, self.pred), self.plan = _predecessors(n, degree), _basis_plan(n, degree)
        self.norm_sq = _norm_sq(exps)
        self.norms = np.sqrt(self.norm_sq)

    def mul_affine(self, x: np.ndarray, lo: int, const: complex, lin, out_lo: int, out_hi: int) -> np.ndarray:
        """(const + sum_i lin[i] z_i) times each column of x, truncated.

        x holds rows lo:lo + len(x) of the coefficient vectors, zero
        elsewhere; the result holds rows out_lo:out_hi, which must cover
        every row the product reaches.  z_i scatters through up[i]."""
        out = np.zeros((out_hi - out_lo,) + x.shape[1:], dtype=complex)
        if const != 0:
            out[lo - out_lo:lo - out_lo + len(x)] = const * x
        low = x[: max(min(len(x), self.level[-2] - lo), 0)]
        for up, a in zip(self.up, lin):
            if a != 0:
                out[up[lo:lo + len(low)] - out_lo] += a * low
        return out

    def div_affine(self, x: np.ndarray, lo: int, const: complex, lin) -> np.ndarray:
        """Each column of x divided by const + sum_i lin[i] z_i, in place.

        x holds rows lo:size, lo the start of a degree.  Degree k of the
        quotient y is x_k / const minus the degree-k part of
        sum_i (lin[i] / const) z_i y, which needs only degree k - 1 of y.
        z_1 takes the degree-m rows a:b onto rows b:2b - a, the first of
        degree m + 1 in the same order (up[0][a:b] = b + arange(b - a)), so
        its update is a slice; z_i for i > 0 scatters through up[i]."""
        if const == 0:
            raise ZeroConstantTerm("cannot divide by an affine function vanishing at the origin")
        x /= const
        terms = [(i, up, a / const) for i, (up, a) in enumerate(zip(self.up, lin)) if a != 0]
        if not terms:
            return x
        k = int(np.searchsorted(self.level, lo))
        for a, b in zip(self.level[k:-2], self.level[k + 1:-1]):
            for i, up, t in terms:
                if i == 0:
                    x[b - lo:2 * b - a - lo] -= t * x[a - lo:b - lo]
                else:
                    x[up[a:b] - lo] -= t * x[a - lo:b - lo]
        return x


_graded = functools.lru_cache(maxsize=32)(_Graded)  # _graded(n, degree), shared tables


def _levels(n: int, degree: int) -> np.ndarray:
    """Offsets comb(n - 1 + k, n) of degrees k = 0..degree + 1 in the basis."""
    return np.array([math.comb(n - 1 + k, n) for k in range(degree + 2)])


@functools.lru_cache(maxsize=32)
def _predecessors(n: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """(first, pred) over basis_multi_indices(n, degree): the first nonzero
    index j of each alpha, and the position of its predecessor alpha - e_j
    (both 0 at alpha = 0).  Read-only, shared."""
    exps = _exponents(n, degree)
    first = np.argmax(exps != 0, axis=1)
    pred = _positions(np.maximum(exps - np.eye(n, dtype=np.intp)[first], 0))
    first.flags.writeable = pred.flags.writeable = False
    return first, pred


def _runs(first: np.ndarray, pred: np.ndarray, start) -> list:
    """The plan of a set of monomials closed under predecessors, degree k at
    entries start[k]:start[k + 1] in lex-descending order, first and pred
    each entry's first nonzero index j and its predecessor's entry: for each
    k >= 1 the runs (j, lo, hi, pred) of degree k, where entries lo:hi have
    first nonzero index j (j is nondecreasing in lex-descending order) and
    pred holds their predecessors' entries within degree k - 1."""
    plan, start = [], np.asarray(start).tolist()
    for a, b, c in zip(start, start[1:], start[2:]):
        cuts = [b, *(b + 1 + np.flatnonzero(np.diff(first[b:c]))).tolist(), c]
        plan.append([(int(first[lo]), lo - b, hi - b, pred[lo:hi] - a) for lo, hi in zip(cuts, cuts[1:])])
    return plan


@functools.lru_cache(maxsize=32)
def _basis_plan(n: int, degree: int) -> list:
    """_runs of the whole basis through degree.  Shared by _Graded and
    _closure, and must not be written to."""
    return _runs(*_predecessors(n, degree), _levels(n, degree))


def _closure(n: int, exps: np.ndarray):
    """The rows exps in n variables and all their predecessors down to 0,
    each degree from the top marking its marked rows' predecessors: their
    positions through the top degree, the offsets of each degree among them
    and their plan (see _runs).  Only the marked rows are placed, so no table
    of the top degree is built.  A support filling its top degree closes to
    the whole basis (alpha precedes alpha + e_1): _basis_plan, cached."""
    degrees = exps.sum(axis=1)
    top = int(degrees.max(initial=-1))
    level = _levels(n, top)
    if top < 0:
        return np.zeros(0, dtype=np.intp), level, []
    if np.count_nonzero(degrees == top) == level[-1] - level[-2]:
        return np.arange(level[-1]), level, _basis_plan(n, top)
    rows, firsts, preds = [], [], []
    at, marked, marked_at = _positions(exps), exps[:0], exps[:0, 0]
    for k in range(top, -1, -1):
        here = degrees == k
        pos, pick = np.unique(np.concatenate((at[here], marked_at)), return_index=True)
        cur = np.concatenate((exps[here], marked))[pick]
        first = np.argmax(cur != 0, axis=1)
        marked = np.maximum(cur - np.eye(n, dtype=np.intp)[first], 0)
        marked_at = _positions(marked)
        rows.append(pos), firsts.append(first), preds.append(marked_at)
    rows, first, pred = (np.concatenate(x[::-1]) for x in (rows, firsts, preds))
    start = np.searchsorted(rows, level)
    return rows, start, _runs(first, np.searchsorted(rows, pred), start)


@functools.lru_cache(maxsize=32)
def _embedding(n: int, keep: tuple[int, ...], degree: int) -> np.ndarray:
    """Positions in basis_multi_indices(n, degree) of the monomials in the
    variables keep alone, in basis_multi_indices(len(keep), degree) order:
    leaving out variables that are 0 keeps both the grading and the
    lex-descending order within a degree.  Read-only, shared."""
    exps = np.zeros((math.comb(len(keep) + degree, degree), n), dtype=np.intp)
    exps[:, list(keep)] = _exponents(len(keep), degree)
    out = _positions(exps)
    out.flags.writeable = False
    return out


def _power_levels(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: float, g: _Graded, plan):
    """Yield, level by level, (lo, block): the truncated series of phi^beta
    for the exponents of the plan, one column each, of which block holds
    rows lo:lo + len(block); the other rows are zero, those below degree
    |beta| when b = 0 and those above it when c = 0.

    phi = (A z + b) / (d + <z, c>) is given by its blocks, in g's variables
    (all of a map's, or those _compose_vector keeps).  In one variable every
    level is one column, and _power_table fills all of them at once; in more,
    _power_recurrence makes one level from the one below.  Both give each
    entry the same operations in the same order, so the same bits."""
    count = len(plan) + 1
    deg = np.minimum(np.arange(count + 1), g.degree + 1)
    lo = g.level[deg[:-1]] if not b.any() else np.zeros(count, dtype=int)
    hi = g.level[deg[1:]] if not c.any() else np.full(count, g.size)
    levels = _power_table if len(g.up) == 1 else _power_recurrence
    return levels(a, b, c, d, g, plan, list(zip(lo.tolist(), hi.tolist())))


def _power_recurrence(a, b, c, d, g: _Graded, plan, windows):
    """_power_levels level by level, windows[k] the rows (lo, hi) of level k:
    phi^beta = phi^(beta - e_j) num_j / den, with num_j = b_j + (A z)_j and
    den = d + <z, c> both affine; one division serves a whole level."""
    lo, hi = windows[0]
    block = np.zeros((hi - lo, 1), dtype=complex)
    block[0, 0] = 1.0
    yield lo, block
    den_lin = np.conj(c)
    for runs, (nlo, nhi) in zip(plan, windows[1:]):
        nxt = np.empty((nhi - nlo, runs[-1][2]), dtype=complex)
        for j, c0, c1, pred in runs:
            nxt[:, c0:c1] = g.mul_affine(block[:, pred], lo, b[j], a[j], nlo, nhi)
        lo, block = nlo, g.div_affine(nxt, nlo, d, den_lin)
        yield lo, block


def _power_table(a, b, c, d, g: _Graded, plan, windows):
    """_power_levels in one variable, phi = (a z + b) / (d + conj(c) z): the
    table T[k, r], the coefficient of z^r in phi^k, is filled whole and level
    k is the view T[k, lo:hi, None], (lo, hi) = windows[k].

    Entry (k, r) of a window gets the operations _power_recurrence gives it,
    in its order: b T[k-1, r] (or +0 when b = 0, or when row r lies above
    level k - 1's window), plus a T[k-1, r-1] when a != 0 and r - 1 lies in
    that window below the top degree, divided by d, less t T[k, r-1] with
    t = conj(c) / d when r is not the window's first row.  Entries outside
    the windows are never computed: they stay zero.  With c = 0, or D = 0,
    there is no last term and rows k are filled one at a time.  Otherwise T[k, r] reads
    T[k-1, r], T[k-1, r-1] and T[k, r-1], so each anti-diagonal k + r = s
    needs only the two before it; on the flat C-ordered table it, and each
    of those three sources, is a slice of stride D, the top degree."""
    a, b, c = a[0, 0], b[0], c[0]
    rows, count, by_a, by_b = g.size, len(windows), bool(a != 0), bool(b != 0)
    tab = np.zeros((count, rows), dtype=complex)
    tab[0, 0] = 1.0
    if c == 0 or rows == 1:
        for prev, row, (plo, phi), (lo, hi) in zip(tab, tab[1:], windows, windows[1:]):
            if lo == hi:
                continue
            if by_b:
                np.multiply(b, prev[plo:phi], out=row[plo:phi])
            low = min(phi, rows - 1)
            if by_a and low > plo:
                row[plo + 1:low + 1] += a * prev[plo:low]
            row[lo:hi] /= d
    else:
        t, flat, step = np.conj(c) / d, tab.reshape(-1), rows - 1
        for s in range(1, count + step):
            k0, k1 = max(1, s - step), min(count - 1, s if by_b else s // 2)
            if k1 < k0:
                continue

            def run(k_last, shift):  # entries (k, s - k), k = k0..k_last, moved by shift
                return flat[s + k0 * step + shift:s + k_last * step + shift + 1:step]

            new = b * run(k1, -rows) if by_b else np.zeros(k1 - k0 + 1, dtype=complex)
            k_add = min(k1, s - 1)  # r >= 1
            if by_a and k_add >= k0:
                new[:k_add - k0 + 1] += a * run(k_add, -rows - 1)
            new /= d
            k_sub = min(k1, s - 1 if by_b else (s - 1) // 2)  # r above the window's first row
            if k_sub >= k0:
                new[:k_sub - k0 + 1] -= t * run(k_sub, -1)
            run(k1, 0)[:] = new
    for k, (lo, hi) in enumerate(windows):
        yield lo, tab[k, lo:hi, None]


def _diagonal_map_eigenvalues(f: LinearFractionalMap, g: _Graded) -> np.ndarray:
    """compression_spectrum for phi(0) = 0 and a diagonal A = diag(lambda),
    from one vector: every diagonal block is diagonal, entry lambda^beta / d^|beta|.

    v holds the diagonals of all blocks over the basis, v[0] = 1.  Degree k
    is +0 plus lambda_j v[beta - e_j] (a slice of lambda[g.first] times v
    gathered through g.pred), then divided by d: the operations that
    _power_levels with c = 0 gives a diagonal entry, in the same order, so
    the same bits (a zero lambda_j adds +0 times a finite entry, a zero, to
    +0).  The eigenvalues are the scaled diagonal v * norms / norms, read
    off at every scale as in _eigenvalues."""
    v, lam, pred = np.zeros(g.size, dtype=complex), np.diagonal(f.a)[g.first], g.pred
    v[0] = 1.0
    for lo, hi in zip(g.level[1:-1].tolist(), g.level[2:].tolist()):
        cur = v[lo:hi]
        cur += lam[lo:hi] * v[pred[lo:hi]]
        cur /= f.d
    eigs = _finite(v * g.norms / g.norms)
    return eigs[_spectral_order(eigs)]


def _compose_vector(series: TruncatedSeries, f: LinearFractionalMap, g: _Graded) -> np.ndarray:
    """Coefficient vector of series(phi(z)) through g's degree.

    Every term of the input contributes, including terms above that degree:
    a monomial phi^beta generally has components of all degrees, so
    truncating the input first would corrupt low-order coefficients.

    The composition is made in the variables it couples: the smallest set S
    holding the variables of the series' terms and every i with c_i != 0,
    and holding i whenever A[j, i] != 0 for some j in S.  Then phi^beta, for
    beta in z_S, is a series in z_S, made in the graded space of z_S from
    the blocks A[S, S], b[S], c[S], d and scattered back; every other
    coefficient is 0.  The rows kept see the same operations in the same
    order as in all n variables, so they keep those bits.  A constant under
    c = 0 couples no variable and is composed in z_1.  The plan is that of
    the support's predecessor closure in z_S (see _closure)."""
    idx, support = _support(series)
    used = support.any(axis=0) | (f.c != 0)
    for _ in range(f.n):  # each pass adds the variables that those used read
        used = used | (f.a[used] != 0).any(axis=0)
    keep = np.flatnonzero(used).tolist() or [0]
    rows, bounds, plan = _closure(len(keep), support[:, keep])
    coeffs = np.zeros(len(rows), dtype=complex)  # the closure's other rows are 0
    coeffs[np.searchsorted(rows, _positions(support[:, keep]))] = series.vector[idx]
    gs = _graded(len(keep), g.degree)
    part = np.zeros(gs.size, dtype=complex)
    blocks = _power_levels(f.a[np.ix_(keep, keep)], f.b[keep], f.c[keep], f.d, gs, plan)
    for c0, c1, (lo, block) in zip(bounds, bounds[1:], blocks):
        part[lo:lo + len(block)] += block @ coeffs[c0:c1]
    out = np.zeros(g.size, dtype=complex)
    out[_embedding(f.n, tuple(keep), g.degree)] = part
    return out


# ---------------------------------------------------------------------------
# Galerkin compression


@dataclass(frozen=True)
class Compression:
    """Matrix of the compressed composition operator on polynomials of
    degree <= degree, in the orthonormal monomial basis, grlex order."""

    matrix: np.ndarray
    basis: tuple[tuple[int, ...], ...]
    norms: np.ndarray
    n: int
    degree: int


def _check_compression_cap(n: int, degree: int) -> None:
    if degree < 0:
        raise ParameterConstraintViolated("degree must be nonnegative, got %d" % degree)
    cap = MAX_COMPRESSION_DEGREE.get(n)
    if cap is not None and degree > cap:
        raise SizeCapExceeded("degree %d exceeds the compression cap %d for %d variables" % (degree, cap, n))
    size = math.comb(n + degree, n)
    if size > MAX_BASIS_SIZE:
        raise SizeCapExceeded("basis has %d monomials, cap is %d" % (size, MAX_BASIS_SIZE))


def build_compression(f: LinearFractionalMap, degree: int) -> Compression:
    """Assemble the matrix M[i, j] = <C_phi e_j, e_i> for the orthonormal
    monomial basis e_j = z^beta_j / ||z^beta_j||.

    When phi(0) = 0 the matrix is exactly block lower triangular in the
    graded order (phi^beta has no components below degree |beta|), so its
    eigenvalues are those of the diagonal blocks."""
    _check_compression_cap(f.n, degree)
    g = _graded(f.n, degree)
    m = np.zeros((g.size, g.size), dtype=complex)
    for c0, c1, (lo, block) in zip(g.level, g.level[1:], _power_levels(f.a, f.b, f.c, f.d, g, g.plan)):
        rows = slice(lo, lo + len(block))
        m[rows, c0:c1] = block * g.norms[rows, None] / g.norms[c0:c1]
    basis = tuple(basis_multi_indices(f.n, degree))  # tuples only at the API edge
    return Compression(matrix=m, basis=basis, norms=g.norms.copy(), n=f.n, degree=degree)


def _spectral_order(eigs: np.ndarray) -> np.ndarray:
    """Decreasing modulus (hypot, as abs() of one entry), ties by real then imaginary part."""
    return np.lexsort((eigs.imag, eigs.real, -np.hypot(eigs.real, eigs.imag)))


def _eigenvalues(block: np.ndarray, norms=None) -> np.ndarray:
    """Eigenvalues of block * norms[:, None] / norms, the scaling of
    build_compression (of block itself without norms).  A triangular block,
    with no nonzero entry on one side of its diagonal, has its scaled
    diagonal, read off at every scale; any other block goes to eigvals."""
    if not (np.triu(block, 1).any() and np.tril(block, -1).any()):
        diag = np.diagonal(block)
        return diag if norms is None else diag * norms / norms
    return np.linalg.eigvals(_finite(block if norms is None else block * norms[:, None] / norms))


def _finite(x: np.ndarray, what: str = "the compression") -> np.ndarray:
    """x, refused with ParameterConstraintViolated if an entry is nan or
    inf: so it is when the powers of a map that is not a self-map overflow,
    and LAPACK would raise an untyped LinAlgError on it."""
    if not np.isfinite(x).all():
        raise ParameterConstraintViolated("%s leaves the float range" % what)
    return x


def _block_eigenvalues(blocks) -> np.ndarray:
    """The _eigenvalues of the (block, norms) pairs together, in
    _spectral_order; refused if one is not finite (see _finite)."""
    eigs = _finite(np.concatenate([_eigenvalues(*pair) for pair in blocks]))
    return eigs[_spectral_order(eigs)]


def _block_eigenpairs(m: np.ndarray, level: np.ndarray):
    """Eigenvalues and unit eigenvector columns of a block lower triangular
    m, its diagonal blocks m[a:b, a:b] for a, b consecutive in level, by
    block forward substitution; None when a check fails.

    Block k gives its columns' eigenvalues mu and vectors W from one
    eig(m_kk); on blocks of 75 x 75 and up, mu may differ in the last bits
    from the eigenvalue-only path's.  Each earlier column j, eigenvalue
    lambda_j, needs rows a:b with (m_kk - lambda_j) x = -m[a:b, :a] v_j, so
    x = W (W^-1 (-m[a:b, :a] v_j) / (mu - lambda_j)), one solve for all j.

    Before dividing, a resonance, some |mu - lambda_j| at most
    TOLERANCES.eigenvalue_resonance times max(|mu|, |lambda_j|), gives None;
    so does a singular W, or, once the columns are scaled to unit 2-norm, a
    largest ||m v - lambda v|| that is not at most
    TOLERANCES.block_eigenpair_residual (nan included: an overflow here
    leaves nan or inf, not a warning)."""
    size = len(m)
    lam, vecs = np.empty(size, dtype=complex), np.zeros((size, size), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b in zip(level, level[1:]):
            block = m[a:b, a:b]
            mu, w = np.linalg.eig(block)
            if a:
                gap = mu[:, None] - lam[:a]
                if (np.abs(gap) <= TOLERANCES.eigenvalue_resonance
                        * np.maximum(np.abs(mu)[:, None], np.abs(lam[:a]))).any():
                    return None
                try:
                    vecs[a:b, :a] = w @ (np.linalg.solve(w, -m[a:b, :a] @ vecs[:a, :a]) / gap)
                except np.linalg.LinAlgError:
                    return None
            lam[a:b], vecs[a:b, a:b] = mu, w
        vecs /= np.linalg.norm(vecs, axis=0)
        worst = np.linalg.norm(m @ vecs - vecs * lam, axis=0).max()
    return (lam, vecs) if worst <= TOLERANCES.block_eigenpair_residual else None


def compression_spectrum(f: LinearFractionalMap, degree: int, return_vectors: bool = False):
    """Eigenvalues of the compression by decreasing modulus, ties by real
    then imaginary part.  For phi(0) = 0 only the diagonal blocks by degree
    are built, by _power_levels with c = 0: column beta of block |beta| is
    the degree-|beta| part of phi^beta, (A z / d)^beta whatever c is, with
    the operations and bits of the whole build.  Each gives its eigenvalues
    by _eigenvalues: a triangular block its scaled diagonal.
    When A is also diagonal, as in one variable, one vector carries every
    block's diagonal (see _diagonal_map_eigenvalues) and no block is built.
    For phi(0) != 0, or with return_vectors, the whole matrix is built.

    With return_vectors the result is the eigenvalues and the unit
    eigenvector columns, in that order, and the Compression itself.  For
    phi(0) = 0 in two or more variables they come from the degree blocks by
    _block_eigenpairs, one eig per block, so the eigenvalues may differ from
    the eigenvalue-only path's in the last bits; on a resonance between two
    degrees, when its checks fail, and otherwise, from one eig of the whole
    matrix.  In one variable the matrix is triangular, and LAPACK's eig does
    that substitution itself.  A compression that leaves the float range, as
    the powers of a map that is not a self-map can, is refused with
    ParameterConstraintViolated."""
    if not (return_vectors or f.b.any()):
        _check_compression_cap(f.n, degree)
        g = _graded(f.n, degree)
        if np.count_nonzero(f.a) == np.count_nonzero(np.diagonal(f.a)):
            return _diagonal_map_eigenvalues(f, g)
        levels = _power_levels(f.a, f.b, np.zeros_like(f.c), f.d, g, g.plan)
        return _block_eigenvalues((block, g.norms[a:b]) for a, b, (_, block) in zip(g.level, g.level[1:], levels))
    comp = build_compression(f, degree)
    if not return_vectors:
        return _block_eigenvalues([(comp.matrix,)])
    m = _finite(comp.matrix)
    pairs = _block_eigenpairs(m, _graded(f.n, degree).level) if f.n > 1 and not f.b.any() else None
    eigs, vecs = pairs or np.linalg.eig(m)
    order = _spectral_order(eigs)
    return eigs[order], vecs[:, order], comp


def series_from_vector(comp: Compression, vec: np.ndarray) -> TruncatedSeries:
    """Polynomial with coordinates vec in the orthonormal monomial basis."""
    out = TruncatedSeries(comp.n, comp.degree, np.asarray(vec).reshape(-1))
    out.vector /= comp.norms
    return out


# ---------------------------------------------------------------------------
# norms and residuals


def eigenfunction_residual(
    f: LinearFractionalMap,
    eigenvalue: complex,
    func: TruncatedSeries,
    degree: int,
) -> float:
    """Relative Hardy-norm residual ||F o phi - lambda F|| / ||F|| through
    the comparison degree.

    The composition uses every supplied term of F, so F may (and for
    boundary-singular eigenfunctions should) carry far more terms than the
    comparison degree; see _compose_vector.  A non-finite eigenvalue or
    coefficient, or a residual that leaves the float range, is refused
    rather than returned as nan or inf.  A comparison degree with more than
    MAX_SERIES_TERMS monomials is refused with SizeCapExceeded before any
    table is built.
    """
    lam = complex(eigenvalue)
    if not np.isfinite(lam):
        raise ParameterConstraintViolated("the eigenvalue %r is not finite" % lam)
    if func.n != f.n:
        raise DimensionMismatch("series in %d variables, map on the %d-ball" % (func.n, f.n))
    if not np.isfinite(func.vector).all():
        raise ParameterConstraintViolated("the candidate eigenfunction has a non-finite coefficient")
    if not func.vector.any():
        raise ZeroFunction("candidate eigenfunction is identically zero")
    _series_size(f.n, degree)
    g = _graded(f.n, degree)
    comp = _compose_vector(func, f, g)
    ftrunc = np.pad(func.vector[:g.size], (0, max(g.size - func.vector.size, 0)))
    denom = float(g.norm_sq @ np.abs(ftrunc) ** 2)
    if denom == 0.0:
        raise ZeroFunction("candidate eigenfunction vanishes through the comparison degree")
    diff = comp - ftrunc * lam
    residual = math.sqrt(float(g.norm_sq @ np.abs(diff) ** 2) / denom)
    if not math.isfinite(residual):
        raise ParameterConstraintViolated("the residual leaves the float range")
    return residual


def _refuse_overflow(what: str, *logs: float) -> None:
    """ParameterConstraintViolated unless every log is at most 700 (nan is not)."""
    if not all(x <= 700.0 for x in logs):
        raise ParameterConstraintViolated("%s leaves the float range" % what)


def _terms(series: TruncatedSeries, log_power):
    """Degrees k, moduli and squared monomial norms of the nonzero terms,
    each sized in logs first as _refuse_overflow does: a term whose 2 log|c|
    or log_power(k) is above 700 (or nan) is refused by its degree."""
    idx, exps = _support(series)
    k, mod = exps.sum(axis=1), np.abs(series.vector[idx])
    fits = (2.0 * np.log(mod) <= 700.0) & (log_power(k) <= 700.0)
    if not fits.all():
        raise ParameterConstraintViolated("a degree-%d term leaves the float range" % k[np.argmin(fits)])
    return k, mod, _norm_sq(exps)


def weighted_norm_sq(series: TruncatedSeries, nu: float) -> float:
    """Graded norm sum_k (k+1)^(2 nu) ||f_k||^2 with f_k the degree-k
    homogeneous part in the Hardy norm; powers are sized in logs first."""
    with np.errstate(over="ignore", invalid="ignore"):
        k, mod, nsq = _terms(series, lambda k: 2.0 * nu * np.log(k + 1.0))
        total = float(np.sum((k + 1.0) ** (2.0 * nu) * mod ** 2 * nsq))
    _refuse_overflow("the weighted norm", math.log(total or 1.0))
    return total


def _radial_exponent(s: float, nu: float) -> float:
    """c = 2s - 2 nu - 1, refused below -1 where the radial weight is not integrable."""
    c = 2.0 * s - 2.0 * nu - 1.0
    if c < -1.0 - 1e-12:
        raise ParameterConstraintViolated(
            "need 2 s - 2 nu - 1 >= -1 (got %.6g) for an integrable radial weight" % c
        )
    return c


def _log_radial_moment(c: float, k: int) -> float:
    """log of Gamma(c+1) k! / Gamma(c+k+2); 0 when c = -1 (boundary case)."""
    if c <= -1.0 + 1e-12:
        return 0.0
    return math.lgamma(c + 1.0) + math.lgamma(k + 1.0) - math.lgamma(c + k + 2.0)


def sobolev_norm_sq(series: TruncatedSeries, s: float, nu: float) -> float:
    """Smoothness-weighted squared norm
    |f(0)|^2 + sum_{k>=1} k^(2s) R(c,k) ||f_k||^2 with c = 2s - 2 nu - 1.

    Requires c >= -1 so the radial weight is integrable; powers (R <= 1) are
    sized in logs first."""
    c = _radial_exponent(s, nu)
    with np.errstate(over="ignore", invalid="ignore"):
        k, mod, nsq = _terms(series, lambda k: 2.0 * s * np.log(np.maximum(k, 1)))
        radial = np.exp([_log_radial_moment(c, j) if j else 0.0 for j in k.tolist()])
        total = float(np.sum(np.maximum(k, 1) ** (2.0 * s) * radial * mod ** 2 * nsq))
    _refuse_overflow("the Sobolev norm", math.log(total or 1.0))
    return total


def _norm_factors(s: float, nu: float, k_max: int) -> list[tuple[float, float, float]]:
    """Per degree k <= k_max: the weighted factor (k+1)^(2 nu), the Sobolev
    factor k^(2s) R(c, k) and their ratio, all 1 at k = 0.

    Each is first sized in logs; one beyond e^700 either way, which would
    overflow or which JSON could not carry, is refused; so is k_max beyond
    MAX_NORM_DEGREE, before any row is made."""
    c = _radial_exponent(s, nu)
    if k_max < 0:
        raise ParameterConstraintViolated("k_max must be nonnegative")
    if k_max > MAX_NORM_DEGREE:
        raise SizeCapExceeded("k_max %d exceeds %d degrees" % (k_max, MAX_NORM_DEGREE))
    rows = [(1.0, 1.0, 1.0)]
    for k in range(1, k_max + 1):
        lw, lp, lr = 2.0 * nu * math.log(k + 1.0), 2.0 * s * math.log(k), _log_radial_moment(c, k)
        _refuse_overflow("a degree-%d norm factor (s = %.6g, nu = %.6g)" % (k, s, nu),
                         *(abs(x) for x in (lw, lp, lp + lr, lw - lp - lr)))
        wf, sf = (k + 1.0) ** (2.0 * nu), float(k) ** (2.0 * s) * math.exp(lr)
        rows.append((wf, sf, wf / sf))
    return rows


def norm_equivalence_interval(s: float, nu: float, k_max: int) -> tuple[float, float]:
    """[min, max] over degrees k <= k_max of the per-degree ratio of the
    weighted norm to the Sobolev norm.

    For any series supported in degrees <= k_max the ratio of the two
    squared norms lies in this interval (a weighted mediant of the
    per-degree ratios)."""
    ratios = [r for _, _, r in _norm_factors(s, nu, k_max)]
    return (min(ratios), max(ratios))
