"""Planted maps and independent oracles for the benchmark.

Nothing here imports lfmspec.  Every expected answer comes from the
construction of the map (its planted kind, eigenvalues, dilation and fixed
point) or from a computation written from the formulas alone:

* maps are stored as plain (A, B, C, d) arrays and evaluated here;
* compression eigenvalues of maps fixing the origin are the products
  lambda^beta, |beta| <= D, of the eigenvalues of the linear part;
* compression columns of general maps are Taylor coefficients of phi^beta,
  read off an FFT of phi^beta sampled on a torus inside the closed ball,
  with monomial norms from lgamma;
* the binomial identity (1 - phi_1)^s = 2^(-s) (1 - z_1)^s for
  phi = ((1 + z_1)/2, z'/2) gives exact eigenpairs.

Each ``check_*`` function returns a list of problems; an empty list means
the answer agrees with the oracle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

KINDS = (
    "elliptic_automorphism",
    "elliptic_unitary_part",
    "elliptic_interior_only",
    "elliptic_boundary_fixed",
    "parabolic",
    "hyperbolic_one_fixed",
    "hyperbolic_two_fixed",
    "other_automorphism",
)
# N = 1 has no unitary part without being an automorphism (Schwarz) and no
# non-automorphism with two boundary fixed points.
KINDS_N1 = tuple(k for k in KINDS if k not in ("elliptic_unitary_part", "hyperbolic_two_fixed"))
UNSUPPORTED = ("parabolic", "other_automorphism")

TOL_VALUE = 1e-7  # eigenvalues, radii, alpha, fixed points
TOL_MEMBER = 1e-7  # spectrum membership
ESTIMATE_REL = 0.05  # estimator against the closed form (the CLI's criterion)
RESIDUAL_MAX = 1e-9  # binomial eigenfunctions
EIGVEC_RESIDUAL_MAX = 1e-8  # compression eigenvectors of maps fixing 0
COLUMN_TOL = 1e-10  # torus-scaled Taylor coefficients
PRODUCT_FLOOR = 1e-10  # smallest eigenvalue product enumerated here
# Moduli of the contractive eigenvalues that spectra enumerate products of.
# A narrow band keeps the size of those families, and so the cost of one
# operation, nearly the same from seed to seed.
GEN_MODULI = (0.3, 0.4)


# ---------------------------------------------------------------------------
# maps as matrices


def assoc(a, b, c, d) -> np.ndarray:
    """Associated matrix [[A, B], [C^*, d]] of phi(z) = (Az + B)/(<z,C> + d)."""
    n = a.shape[0]
    m = np.zeros((n + 1, n + 1), dtype=complex)
    m[:n, :n] = a
    m[:n, n] = b
    m[n, :n] = np.conj(c)
    m[n, n] = d
    return m


def blocks(m: np.ndarray):
    n = m.shape[0] - 1
    m = m / np.linalg.norm(m)
    return m[:n, :n].copy(), m[:n, n].copy(), np.conj(m[n, :n]), complex(m[n, n])


def evaluate(m: np.ndarray, z: np.ndarray) -> np.ndarray:
    """phi at points z of shape (..., N), from the associated matrix."""
    n = m.shape[0] - 1
    z = np.asarray(z, dtype=complex)
    num = z @ m[:n, :n].T + m[:n, n]
    den = z @ m[n, :n] + m[n, n]
    return num / den[..., None]


def involution(p: np.ndarray) -> np.ndarray:
    """Matrix of the ball automorphism swapping p and 0 (an involution)."""
    p = np.asarray(p, dtype=complex)
    n = p.size
    r2 = float(np.vdot(p, p).real)
    proj = np.outer(p, np.conj(p)) / r2
    s = math.sqrt(1.0 - r2)
    return assoc(-(proj + s * (np.eye(n) - proj)), p, -p, 1.0)


def cayley(n: int) -> np.ndarray:
    """Ball -> Siegel domain {Re z > |w|^2}: (z1, w) -> ((1+z1), w) / (1-z1)."""
    k = np.eye(n + 1, dtype=complex)
    k[0, n] = 1.0
    k[n, 0] = -1.0
    return k


def siegel_affine(alpha: float, c0: complex, a_block: np.ndarray, d_vec: np.ndarray) -> np.ndarray:
    """Ball matrix of the Siegel-domain map (z, w) -> (z + c0, A w + d) / alpha."""
    n = a_block.shape[0] + 1
    h = np.zeros((n + 1, n + 1), dtype=complex)
    h[0, 0] = 1.0
    h[0, n] = c0
    h[1:n, 1:n] = a_block
    h[1:n, n] = d_vec
    h[:n, :] /= alpha
    h[n, n] = 1.0
    k = cayley(n)
    return np.linalg.inv(k) @ h @ k


# ---------------------------------------------------------------------------
# planted maps


@dataclass
class Plant:
    """A map with its planted answers.

    ``kind`` is the expected MapClass value; ``alpha`` the Denjoy-Wolff
    dilation (None for elliptic maps); ``ess`` the closed-form essential
    radius where the theory gives one.  ``spec`` describes the exact
    spectrum as ("points", values) / ("circle", r) / ("disk", r) /
    ("annulus", lo, hi) parts; ``must_in`` / ``must_out`` are points on
    either side of it.
    """

    name: str
    n: int
    m: np.ndarray
    kind: str | None
    self_map: bool = True
    alpha: float | None = None
    radius: float | None = None
    ess: float | None = None
    eigenvalues: tuple = ()
    fixed_point: np.ndarray | None = None
    spec: list = field(default_factory=list)
    must_in: list = field(default_factory=list)
    must_out: list = field(default_factory=list)

    @property
    def abcd(self):
        return blocks(self.m)


def _unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _normal(rng, eigs):
    q = _unitary(rng, len(eigs))
    return q @ np.diag(eigs) @ q.conj().T


def _phase(rng):
    return cmath.exp(2j * math.pi * rng.random())


def _irrational_angle(rng) -> float:
    """An angle (in turns) at least 1e-6 away from every p/q with q <= 64."""
    while True:
        t = float(rng.random())
        fr = Fraction(t).limit_denominator(64)
        if abs(t - float(fr)) > 1e-6:
            return t


def products(gens, floor: float = PRODUCT_FLOOR) -> np.ndarray:
    """Every product gens^beta (beta >= 0, empty product included) of
    modulus >= floor, for contractive generators, with multiplicity."""
    vals = np.array([1.0 + 0.0j])
    for g in gens:
        out = [vals]
        cur = vals
        while True:
            cur = cur * g
            cur = cur[np.abs(cur) >= floor]
            if cur.size == 0 or abs(g) == 0.0:
                break
            out.append(cur)
        vals = np.concatenate(out)
    return vals


def _between(lo: float, hi: float) -> float:
    return 0.5 * (lo + hi)


def plant(kind: str, n: int, rng: np.random.Generator, variant: int = 0) -> Plant:
    """A canonical map of the given kind in dimension n (before conjugation)."""
    th = _phase(rng)
    if kind == "elliptic_automorphism":
        if variant % 2 == 0:
            qs = [int(rng.integers(2, 7)) for _ in range(n)]
            turns = [Fraction(int(rng.integers(1, q)), q) for q in qs]
            eigs = [cmath.exp(2j * math.pi * float(t)) for t in turns]
            order = math.lcm(*[t.denominator for t in turns])
            step = math.gcd(order, *[t.numerator * (order // t.denominator) for t in turns])
            size = order // step
            group = np.exp(2j * math.pi * np.arange(size) / size)
            spec = [("points", group)]
            must_out = [cmath.exp(1j * math.pi / size), 0.0, 0.5 * th]
            must_in = list(group[:4])
        else:
            eigs = [cmath.exp(2j * math.pi * _irrational_angle(rng))]
            eigs += [cmath.exp(2j * math.pi * float(rng.random())) for _ in range(n - 1)]
            spec = [("circle", 1.0)]
            must_in = [th, 1.0, eigs[0]]
            must_out = [0.0, 0.5 * th, 1.2 * th]
        m = assoc(_normal(rng, eigs), np.zeros(n), np.zeros(n), 1.0)
        return Plant("aut", n, m, kind, radius=1.0, eigenvalues=tuple(eigs),
                     fixed_point=np.zeros(n), spec=spec, must_in=must_in, must_out=must_out)

    if kind == "elliptic_unitary_part":
        p = 1 if n == 2 else int(rng.integers(1, n))
        contr = [float(rng.uniform(*GEN_MODULI)) * _phase(rng) for _ in range(n - p)]
        gens = products(contr)
        top = max(abs(c) for c in contr)
        if variant % 2 == 0:
            q = int(rng.integers(2, 7))
            turns = [Fraction(int(rng.integers(1, q)), q) for _ in range(p)]
            uni = [cmath.exp(2j * math.pi * float(t)) for t in turns]
            order = math.lcm(*[t.denominator for t in turns])
            step = math.gcd(order, *[t.numerator * (order // t.denominator) for t in turns])
            group = np.exp(2j * math.pi * np.arange(order // step) / (order // step))
            pts = (group[:, None] * gens[None, :]).ravel()
            spec = [("points", np.concatenate([pts, [0.0]]))]
            must_in = [uni[0], uni[0] * contr[0], contr[0], 1.0, 0.0]
            must_out = [_between(top, 1.0) * th]
        else:
            uni = [cmath.exp(2j * math.pi * _irrational_angle(rng)) for _ in range(p)]
            radii = np.unique(np.round(np.abs(gens), 14))
            spec = [("circle", float(r)) for r in radii] + [("points", np.array([0.0]))]
            must_in = [th, abs(contr[0]) * th, 0.0]
            must_out = [_between(top, 1.0) * th]
        eigs = uni + contr
        m = assoc(_normal(rng, eigs), np.zeros(n), np.zeros(n), 1.0)
        return Plant("unitary_part", n, m, kind, radius=1.0, eigenvalues=tuple(eigs),
                     fixed_point=np.zeros(n), spec=spec, must_in=must_in, must_out=must_out)

    if kind == "elliptic_interior_only":
        return dense_origin_map(n, rng, name="interior_only")

    if kind == "elliptic_boundary_fixed":
        c = float(rng.uniform(0.55, 0.65))
        mu = [float(rng.uniform(*GEN_MODULI)) * _phase(rng) for _ in range(n - 1)]
        return boundary_fixed(n, c, _normal(rng, mu) if n > 1 else np.zeros((0, 0)), mu, th)

    if kind == "parabolic":
        c0 = float(rng.uniform(0.5, 1.5))
        blk = _normal(rng, [float(rng.uniform(0.2, 0.8)) * _phase(rng) for _ in range(n - 1)])
        m = siegel_affine(1.0, c0, blk, np.zeros(n - 1))
        return Plant("parabolic", n, m, kind, alpha=1.0, radius=1.0)

    if kind == "hyperbolic_one_fixed":
        alpha = float(rng.uniform(0.45, 0.85))
        c0 = float(rng.uniform(0.5, 1.5))
        blk = math.sqrt(alpha) * _normal(
            rng, [float(rng.uniform(0.2, 0.9)) * _phase(rng) for _ in range(n - 1)])
        # self-map iff ||A||^2 <= alpha and |d|^2 <= (alpha - ||A||^2) c0
        dv = (rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1))
        if n > 1:
            room = (alpha - float(np.linalg.norm(blk, 2)) ** 2) * c0
            dv *= math.sqrt(0.5 * room) * rng.random() / np.linalg.norm(dv)
        return hyperbolic_one(n, alpha, c0, blk, dv, th)

    if kind == "hyperbolic_two_fixed":
        alpha = float(rng.uniform(0.45, 0.85))
        mu = [float(rng.uniform(*GEN_MODULI)) * _phase(rng) for _ in range(n - 1)]
        m = siegel_affine(alpha, 0.0, math.sqrt(alpha) * _normal(rng, mu), np.zeros(n - 1))
        lo, hi = alpha ** (n / 2.0), alpha ** (-n / 2.0)
        mods = products([abs(x) for x in mu], PRODUCT_FLOOR / hi).real
        spec = [("annulus", float(x) * lo, float(x) * hi) for x in np.unique(np.round(mods, 14))]
        spec.append(("points", np.array([0.0])))
        return Plant("hyperbolic_two", n, m, kind, alpha=alpha, radius=hi, spec=spec,
                     must_in=[0.0, 1.0, 0.999 * hi * th, 1.001 * lo * th],
                     must_out=[1.05 * hi * th])

    if kind == "other_automorphism":
        alpha = float(rng.uniform(0.45, 0.85))
        u = _unitary(rng, n - 1) if n > 1 else np.zeros((0, 0))
        m = siegel_affine(alpha, 0.0, math.sqrt(alpha) * u, np.zeros(n - 1))
        return Plant("other_aut", n, m, kind, alpha=alpha, radius=alpha ** (-n / 2.0))

    raise ValueError("unknown kind %r" % kind)


def boundary_fixed(n: int, c: float, w_block: np.ndarray, mu, th: complex = 1j) -> Plant:
    """phi(z) = ((1 - c) z_1, W z') / (1 - c z_1): fixes 0 and e_1, where the
    dilation is 1/(1 - c); a self-map when ||W||^2 <= 1 - c."""
    rho = (1.0 - c) ** (n / 2.0)
    a = np.zeros((n, n), dtype=complex)
    a[0, 0] = 1.0 - c
    a[1:, 1:] = w_block
    cvec = np.zeros(n, dtype=complex)
    cvec[0] = -c
    eigs = [1.0 - c] + list(mu)
    prods = products(eigs)
    big = prods[(np.abs(prods) > rho * (1 + 1e-6)) & (np.abs(prods) < 1 - 1e-9)]
    top = max([rho] + [abs(x) for x in eigs])
    return Plant("boundary_fixed", n, assoc(a, np.zeros(n), cvec, 1.0), "elliptic_boundary_fixed",
                 radius=1.0, ess=rho, eigenvalues=tuple(eigs), fixed_point=np.zeros(n),
                 spec=[("disk", rho), ("points", np.concatenate([[1.0], big]))],
                 must_in=[0.0, 1.0, 0.999 * rho * th] + list(big[:3]),
                 must_out=[_between(top, 1.0) * th])


def hyperbolic_one(n: int, alpha: float, c0: float, blk: np.ndarray, dv: np.ndarray,
                   th: complex = 1j) -> Plant:
    """Siegel-domain map (z + c0, A w + d) / alpha with one boundary fixed point."""
    r = alpha ** (-n / 2.0)
    return Plant("hyperbolic_one", n, siegel_affine(alpha, c0, blk, dv), "hyperbolic_one_fixed",
                 alpha=alpha, radius=r, ess=r, spec=[("disk", r)],
                 must_in=[0.0, 1.0, 0.999 * r * th], must_out=[1.05 * r * th])


def dense_origin_map(n: int, rng: np.random.Generator, name: str = "dense") -> Plant:
    """phi(z) = A z / (1 - <z, c>) with A = S diag(lambda) S^-1 and
    ||A|| + |c| <= 0.9: an elliptic map fixing 0 and no boundary point."""
    lam = [float(rng.uniform(*GEN_MODULI)) * _phase(rng) for _ in range(n)]
    pert = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    s = np.eye(n) + 0.2 * pert / np.linalg.norm(pert, 2)
    a = s @ np.diag(lam) @ np.linalg.inv(s)
    room = 0.9 - float(np.linalg.norm(a, 2))
    cv = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    cv *= float(rng.uniform(0.3, 1.0)) * room / np.linalg.norm(cv)
    m = assoc(a, np.zeros(n), -cv, 1.0)
    prods = products(lam)
    spec = [("points", np.concatenate([[0.0, 1.0], prods[1:]]))]
    top = max(abs(x) for x in lam)
    must_in = [0.0, 1.0] + lam + [lam[0] * lam[-1]]
    th = _phase(rng)
    return Plant(name, n, m, "elliptic_interior_only", radius=1.0, eigenvalues=tuple(lam),
                 fixed_point=np.zeros(n), spec=spec, must_in=must_in,
                 must_out=[_between(top, 1.0) * th])


def general_map(n: int, rng: np.random.Generator) -> Plant:
    """phi(z) = (A z + B) / (1 - <z, c>) with B != 0, ||A|| + |B| + |c| <= 0.9."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a *= 0.4 / np.linalg.norm(a, 2)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b *= 0.2 / np.linalg.norm(b)
    cv = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    cv *= 0.3 / np.linalg.norm(cv)
    return Plant("general", n, assoc(a, b, -cv, 1.0), None)


def sparse_map(n: int, rng: np.random.Generator) -> Plant:
    """phi(z) = diag(lambda) z."""
    lam = [float(rng.uniform(0.2, 0.7)) * _phase(rng) for _ in range(n)]
    m = assoc(np.diag(lam), np.zeros(n), np.zeros(n), 1.0)
    return Plant("sparse", n, m, None, eigenvalues=tuple(lam), fixed_point=np.zeros(n))


def non_self_map(n: int, rng: np.random.Generator) -> Plant:
    """phi(z) = 0.7 U z + B with |B| = 0.6: sup |phi| = 1.3 on the sphere."""
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b *= 0.6 / np.linalg.norm(b)
    m = assoc(0.7 * _unitary(rng, n), b, np.zeros(n), 1.0)
    return Plant("non_self_map", n, m, None, self_map=False)


def conjugate(p: Plant, centre: np.ndarray) -> Plant:
    """psi o phi o psi for the involution psi swapping centre and 0; every
    planted invariant is unchanged and the fixed point moves to psi(0)."""
    s = involution(centre)
    m = s @ p.m @ s
    fp = None if p.fixed_point is None else evaluate(s, p.fixed_point)
    return replace(p, m=m / np.linalg.norm(m), fixed_point=fp)


def random_centre(n: int, rng: np.random.Generator, lo: float = 0.1, hi: float = 0.5) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v * float(rng.uniform(lo, hi)) / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# spectrum membership


def _parts_from_json(sj: dict) -> list:
    parts = []
    for comp in sj["components"]:
        t = comp["type"]
        if t == "points":
            vals = np.array([complex(*v) for v in comp["values"]], dtype=complex)
            parts.append(("points", vals))
        elif t == "circle":
            parts.append(("circle", float(comp["radius"])))
        elif t == "disk":
            parts.append(("disk", float(comp["radius"])))
        elif t == "annulus":
            parts.append(("annulus", float(comp["r_in"]), float(comp["r_out"])))
        else:
            raise ValueError("unknown component type %r" % t)
    return parts


def member(parts: list, z, tol: float = TOL_MEMBER) -> np.ndarray:
    """Which of the points z lie within tol of the union of parts."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    hit = np.zeros(z.shape, dtype=bool)
    spans = []
    for part in parts:
        t = part[0]
        if t == "points":
            hit |= _near_any(z, part[1], tol)
        elif t == "circle":
            spans.append((part[1] - tol, part[1] + tol))
        elif t == "disk":
            spans.append((-1.0, part[1] + tol))
        else:
            spans.append((part[1] - tol, part[2] + tol))
    if spans:
        # merge the radial intervals, then one binary search per point
        spans.sort()
        merged = [list(spans[0])]
        for lo, hi in spans[1:]:
            if lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        edges = np.array(merged)
        r = np.abs(z)
        k = np.searchsorted(edges[:, 0], r, side="right") - 1
        hit |= (k >= 0) & (r <= edges[np.maximum(k, 0), 1])
    return hit


def _near_any(z: np.ndarray, pts: np.ndarray, tol: float) -> np.ndarray:
    """Grid-hash nearest-point test, O(len(z) + len(pts))."""
    if pts.size == 0:
        return np.zeros(z.shape, dtype=bool)
    cell = 2.0 * tol

    def keys(v, dx=0, dy=0):
        return (np.floor(v.real / cell).astype(np.int64) + dx) * 4_000_000_007 + (
            np.floor(v.imag / cell).astype(np.int64) + dy)

    base = np.unique(keys(pts))
    hit = np.zeros(z.shape, dtype=bool)
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            hit |= np.isin(keys(z, dx, dy), base)
    return hit


def check_spectrum(p: Plant, sj: dict, cloud: np.ndarray | None = None,
                   cloud_index: np.ndarray | None = None) -> list[str]:
    """Spectrum JSON against the planted spectrum, both ways round."""
    bad = []
    if sj.get("kind") != p.kind:
        bad.append("spectrum kind %r, planted %r" % (sj.get("kind"), p.kind))
    if abs(sj["spectral_radius"] - p.radius) > TOL_VALUE * max(1.0, p.radius):
        bad.append("spectral radius %.12g, planted %.12g" % (sj["spectral_radius"], p.radius))
    got = _parts_from_json(sj)
    for z in p.must_in:
        if not member(got, z)[0]:
            bad.append("%r missing from the spectrum" % complex(z))
    for z in p.must_out:
        if member(got, z)[0]:
            bad.append("%r wrongly in the spectrum" % complex(z))
    if cloud is not None:
        bad += check_spectrum_cloud(p, cloud)
    if cloud_index is not None and set(np.unique(cloud_index).tolist()) != set(range(len(got))):
        bad.append("some spectrum component has no discretized point")
    return bad


def check_spectrum_cloud(p: Plant, cloud: np.ndarray) -> list[str]:
    """Every discretized point must lie in the planted spectrum."""
    outside = ~member(p.spec, cloud, TOL_MEMBER * max(1.0, p.radius))
    if cloud.size == 0 or outside.any():
        return ["%d of %d discretized points outside the planted spectrum"
                % (int(outside.sum()), cloud.size)]
    return []


def check_unsupported(p: Plant, kind: str, radius: float | None) -> list[str]:
    bad = []
    if p.kind not in UNSUPPORTED:
        bad.append("spectrum refused for supported kind %r" % p.kind)
    if kind != p.kind:
        bad.append("refusal names kind %r, planted %r" % (kind, p.kind))
    if radius is None or abs(radius - p.radius) > TOL_VALUE * max(1.0, p.radius):
        bad.append("refusal radius %r, planted %.12g" % (radius, p.radius))
    return bad


# ---------------------------------------------------------------------------
# validation, classification, essential radius


def check_validation(p: Plant, ok: bool, witness) -> list[str]:
    if p.self_map:
        return [] if ok else ["self-map rejected"]
    if ok:
        return ["non-self-map accepted"]
    if witness is None:
        return ["non-self-map rejected without a witness"]
    w = np.asarray(witness, dtype=complex).reshape(-1)
    if np.linalg.norm(w) > 1.0 + 1e-9:
        return ["witness |w| = %.12g lies outside the closed ball" % np.linalg.norm(w)]
    val = float(np.linalg.norm(evaluate(p.m, w)))
    if not val > 1.0:
        return ["witness maps to |phi(w)| = %.12g, not beyond the ball" % val]
    return []


def multiset_distance(expected, got) -> float:
    """Largest distance in a greedy nearest matching of two equal-size
    multisets (inf when sizes differ)."""
    e = np.asarray(expected, dtype=complex).ravel()
    g = np.asarray(got, dtype=complex).ravel()
    if e.size != g.size:
        return math.inf
    order_e = np.lexsort((e.imag, e.real))
    order_g = np.lexsort((g.imag, g.real))
    e, g = e[order_e], g[order_g]
    if e.size and np.max(np.abs(e - g)) <= TOL_VALUE:
        return float(np.max(np.abs(e - g)))
    # sorting can interleave near-ties; fall back to greedy nearest matching
    used = np.zeros(g.size, dtype=bool)
    worst = 0.0
    for v in e[np.argsort(-np.abs(e))]:
        d = np.abs(g - v)
        d[used] = np.inf
        j = int(np.argmin(d))
        used[j] = True
        worst = max(worst, float(d[j]))
    return worst


def check_classification(p: Plant, kind: str, alpha, eigenvalues, fixed_point) -> list[str]:
    bad = []
    if kind != p.kind:
        return ["kind %r, planted %r" % (kind, p.kind)]
    if p.alpha is None:
        if alpha is not None:
            bad.append("alpha %r reported for an elliptic map" % alpha)
        if multiset_distance(p.eigenvalues, eigenvalues) > TOL_VALUE:
            bad.append("differential eigenvalues %r, planted %r" % (eigenvalues, p.eigenvalues))
        if fixed_point is None or np.linalg.norm(np.asarray(fixed_point) - p.fixed_point) > TOL_VALUE:
            bad.append("interior fixed point %r, planted %r" % (fixed_point, p.fixed_point))
    elif alpha is None or abs(alpha - p.alpha) > TOL_VALUE:
        bad.append("alpha %r, planted %.12g" % (alpha, p.alpha))
    return bad


def check_essential_radius(p: Plant, closed, estimate) -> list[str]:
    if closed is None or abs(closed - p.ess) > TOL_VALUE * max(1.0, p.ess):
        return ["closed-form essential radius %r, planted %.12g" % (closed, p.ess)]
    if not abs(estimate - p.ess) <= ESTIMATE_REL * p.ess:
        return ["estimate %.6g disagrees with the essential radius %.6g" % (estimate, p.ess)]
    return []


# ---------------------------------------------------------------------------
# Galerkin compression


def grlex(n: int, degree: int) -> list[tuple[int, ...]]:
    """Exponents of total degree <= degree, graded, lex-descending within a degree."""

    def comps(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total, -1, -1):
            for rest in comps(total - first, parts - 1):
                yield (first,) + rest

    return [a for k in range(degree + 1) for a in comps(k, n)]


def monomial_norm(alpha) -> float:
    """||z^alpha|| in H^2 of the n-ball: sqrt((n-1)! alpha! / (n-1+|alpha|)!)."""
    n = len(alpha)
    logv = math.lgamma(n) + sum(math.lgamma(a + 1) for a in alpha) - math.lgamma(n + sum(alpha))
    return math.exp(0.5 * logv)


def expected_compression_eigenvalues(eigs, n: int, degree: int) -> np.ndarray:
    """{lambda^beta : |beta| <= degree} with multiplicity."""
    eigs = np.asarray(eigs, dtype=complex)
    return np.array([np.prod(eigs ** np.array(b)) for b in grlex(n, degree)])


def check_multiset(expected, got, what: str = "eigenvalues") -> list[str]:
    d = multiset_distance(expected, got)
    if d > TOL_VALUE:
        return ["%s differ from the planted multiset by %.3g" % (what, d)]
    return []


_GRID = {1: 256, 2: 64, 3: 48}


class TorusCoefficients:
    """Taylor coefficients of phi^beta from an FFT on the torus
    |z_j| = N^(-1/2), which lies on the sphere, where |phi| <= 1."""

    def __init__(self, m: np.ndarray):
        self.n = n = m.shape[0] - 1
        self.k = k = _GRID[n]
        self.r = n ** -0.5
        ang = np.exp(2j * math.pi * np.arange(k) / k)
        grids = np.meshgrid(*([self.r * ang] * n), indexing="ij")
        pts = np.stack(grids, axis=-1)
        self.phi = evaluate(m, pts)

    def scaled(self, beta) -> np.ndarray:
        """c_alpha r^|alpha| for all alpha in the K^N grid (index = alpha)."""
        vals = np.ones(self.phi.shape[:-1], dtype=complex)
        for j, bj in enumerate(beta):
            if bj:
                vals = vals * self.phi[..., j] ** bj
        return np.fft.fftn(vals) / vals.size


def check_compression_columns(p: Plant, basis, matrix: np.ndarray, columns, torus=None) -> list[str]:
    """Columns of M[i, j] = c_alpha_i(phi^beta_j) ||z^alpha_i|| / ||z^beta_j||
    against the torus FFT."""
    torus = torus or TorusCoefficients(p.m)
    basis = [tuple(b) for b in basis]
    if basis != grlex(p.n, max(sum(b) for b in basis)):
        return ["basis is not the graded lex-descending order"]
    norms = np.array([monomial_norm(a) for a in basis])
    deg = np.array([sum(a) for a in basis])
    idx = tuple(np.array(basis).T)
    bad = []
    for j in columns:
        want = torus.scaled(basis[j])[idx]
        got = matrix[:, j] * norms[j] / norms * torus.r ** deg
        err = float(np.max(np.abs(got - want)))
        if err > COLUMN_TOL:
            bad.append("column %d (beta=%r) differs from the torus FFT by %.3g" % (j, basis[j], err))
    return bad


def binomial_eigenvalue(s: complex) -> complex:
    return cmath.exp(-s * math.log(2.0))


def binomial_map(n: int) -> np.ndarray:
    """phi = ((1 + z_1)/2, z'/2): then 1 - phi_1 = (1 - z_1)/2."""
    a = 0.5 * np.eye(n, dtype=complex)
    b = np.zeros(n, dtype=complex)
    b[0] = 0.5
    return assoc(a, b, np.zeros(n), 1.0)


def check_residual(value: float, limit: float) -> list[str]:
    if not value <= limit:
        return ["eigenfunction residual %.3g exceeds %.1g" % (value, limit)]
    return []


def sobolev_ratio(k: int, s: float, nu: float) -> float:
    """Weighted over Sobolev factor at degree k (1 at k = 0)."""
    if k == 0:
        return 1.0
    c = 2.0 * s - 2.0 * nu - 1.0
    moment = 1.0 if c <= -1.0 + 1e-12 else math.exp(
        math.lgamma(c + 1.0) + math.lgamma(k + 1.0) - math.lgamma(c + k + 2.0))
    return (k + 1.0) ** (2.0 * nu) / (float(k) ** (2.0 * s) * moment)
