"""Workload ``galerkin``: compressions, compression eigenvectors and
binomial eigenfunctions.

One round, with shapes fixed and coefficients drawn from the seed:

* dense maps fixing 0, phi = A z / (1 - <z, c>): compression eigenvalues
  against the products lambda^beta, at (N, D) = (1, 60), (2, 12) and two
  maps at (3, 8);
* the same kind of map at (2, 8) and (3, 6) with eigenvectors, and three
  eigenfunction residuals of each;
* general maps with B != 0 at (1, 40), (2, 10), (3, 6): columns of the
  compression against Taylor coefficients from a torus FFT;
* sparse diagonal maps phi = diag(lambda) z: 22 at the N = 3 cap (3, 12),
  two each at the other caps (1, 60) and (2, 25), and two each at (1, 30),
  (2, 12), (3, 8);
* binomial eigenfunctions (1 - z_1)^s as degree-300 series in two
  variables, compared at degree 60, for two seeded exponents s.
"""

from __future__ import annotations

import numpy as np

import oracles as O
from common import interleave, run_op

# A round takes a few seconds, so that a short run still holds several whole
# rounds.  The median falls inside the block of 22 sparse compressions at the
# N = 3 cap, so it reads one kind of operation rather than the edge between
# two.  The dense (2, 25) cap (about 3 s on its own) is left out; the sparse
# maps reach every cap.
DENSE = ((1, 60), (2, 12), (3, 8), (3, 8))
DENSE_VECTORS = ((2, 8), (3, 6))
EIGVEC_INDICES = (1, 2, 4)
GENERAL = ((1, 40), (2, 10), (3, 6))
SPARSE = ((3, 12),) * 22 + ((1, 60), (2, 25)) * 2 + ((1, 30), (2, 12), (3, 8)) * 2
BINOMIAL_DEGREE, BINOMIAL_COMPARE, BINOMIAL_COUNT = 300, 60, 2


class Galerkin:
    name = "galerkin"

    def build(self, L, seed: int) -> None:
        rng = np.random.default_rng(seed)

        def lfm(p):
            return L.LinearFractionalMap(*p.abcd)

        self.dense = [(O.dense_origin_map(n, rng), n, d) for n, d in DENSE]
        self.vectors = [(O.dense_origin_map(n, rng), n, d) for n, d in DENSE_VECTORS]
        self.general = [(O.general_map(n, rng), n, d) for n, d in GENERAL]
        self.sparse = [(O.sparse_map(n, rng), n, d) for n, d in SPARSE]
        svals = rng.uniform(-0.4, 5.0, BINOMIAL_COUNT) + 1j * rng.uniform(-1.0, 1.0, BINOMIAL_COUNT)
        bmap = O.binomial_map(2)
        self.binomial = [(complex(s), L.binomial_series(complex(s), BINOMIAL_DEGREE, n=2, var=0))
                         for s in svals]
        self.maps = {id(p): lfm(p) for p, _, _ in self.dense + self.vectors + self.general + self.sparse}
        self.bmap = L.LinearFractionalMap(*O.blocks(bmap))
        self.L = L

    def prepare(self) -> None:
        """Oracle answers, computed once per run outside the timed region."""
        self._oracles = {}
        for p, n, d in self.dense + self.vectors + self.sparse:
            self._oracles[id(p)] = O.expected_compression_eigenvalues(p.eigenvalues, n, d)
        for p, n, d in self.general:
            self._oracles[id(p)] = O.TorusCoefficients(p.m)

    def round(self, tracer=None) -> list:
        """One pass over every unit, in the fixed interleaved order."""
        ops = []
        for unit in interleave(self._units()):
            for label, fn, tag in unit:
                ops.append(run_op(label, fn, tracer, tag=tag))
        return ops

    def _units(self) -> list:
        """Operations as units of (label, fn(clock) -> problems, span tag);
        a unit's operations run back to back."""
        L = self.L

        def eigenvalues(p, d):
            return lambda clk: O.check_multiset(
                self._oracles[id(p)], clk(L.compression_spectrum, self.maps[id(p)], d))

        units = [[("galerkin.dense.n%d.d%d" % (n, d), eigenvalues(p, d), "dense")]
                 for p, n, d in self.dense]
        units += [[("galerkin.sparse.n%d.d%d" % (n, d), eigenvalues(p, d), "sparse")]
                  for p, n, d in self.sparse]
        units += [[("galerkin.general.n%d.d%d" % (n, d),
                    lambda clk, p=p, d=d: self._general(clk, p, d), "general")]
                  for p, n, d in self.general]
        for p, n, d in self.vectors:
            found: dict = {}
            unit = [("galerkin.dense_vectors.n%d.d%d" % (n, d),
                     lambda clk, p=p, d=d, found=found: self._vectors(clk, p, d, found), "dense")]
            unit += [("galerkin.eigvec.n%d.d%d" % (n, d),
                      lambda clk, p=p, d=d, found=found, k=k: self._eigvec(clk, p, d, found, k),
                      "eigvec") for k in EIGVEC_INDICES]
            units.append(unit)
        for s, series in self.binomial:
            units.append([("galerkin.binomial.n2.d%d" % BINOMIAL_COMPARE,
                           lambda clk, s=s, series=series: O.check_residual(
                               clk(L.eigenfunction_residual, self.bmap, O.binomial_eigenvalue(s),
                                   series, BINOMIAL_COMPARE), O.RESIDUAL_MAX),
                           "binomial")])
        return units

    def _general(self, clk, p, d) -> list:
        eigs, vecs, comp = clk(self.L.compression_spectrum, self.maps[id(p)], d, return_vectors=True)
        m = comp.matrix
        size = m.shape[0]
        cols = sorted({1, size // 2, size - 1})
        bad = O.check_compression_columns(p, comp.basis, m, cols, self._oracles[id(p)])
        # each returned pair must be an eigenpair of the returned matrix
        res = np.linalg.norm(m @ vecs - vecs * eigs[None, :], axis=0)
        if float(np.max(res)) > 1e-9 * max(1.0, float(np.linalg.norm(m, 2))):
            bad.append("eigenpair residual %.3g" % float(np.max(res)))
        return bad

    def _vectors(self, clk, p, d, found) -> list:
        eigs, vecs, comp = clk(self.L.compression_spectrum, self.maps[id(p)], d, return_vectors=True)
        found.update(eigs=eigs, vecs=vecs, comp=comp)
        return O.check_multiset(self._oracles[id(p)], eigs)

    def _eigvec(self, clk, p, d, found, k) -> list:
        if not found:
            return ["no eigenvectors: the compression operation failed"]
        L = self.L
        with clk:
            func = L.series_from_vector(found["comp"], found["vecs"][:, k])
            res = L.eigenfunction_residual(self.maps[id(p)], found["eigs"][k], func, d)
        return O.check_residual(res, O.EIGVEC_RESIDUAL_MAX)
