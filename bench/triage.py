"""Workload ``triage``: one full report per map over a planted corpus.

Per seed: two maps of every kind that exists in each dimension N = 1, 2, 3
(6 kinds for N = 1, all 8 for N = 2 and 3), each conjugated by the ball
involution at a random complex centre, plus five maps that are not
self-maps (about a tenth of the seeded corpus).  Every round also reports
on a fixed set of estimator probes that does not depend on the seed: six
maps on which the estimator is known to work and six that hit a named fault.
"""

from __future__ import annotations

import math

import numpy as np

import oracles as O
from common import interleave, run_op

RESOLUTION = 64
FAULT_CONJUGATE_C = "estimator conjugates the denominator row twice (spectra.py:538)"
FAULT_SATURATION = "estimator saturates at r = 1 - 1e-8 (spectra.py:541, 577)"


def _one_dim(alpha: float, c0: float) -> O.Plant:
    return O.hyperbolic_one(1, alpha, c0, np.zeros((0, 0)), np.zeros(0))


def _hyp(n: int, alpha: float) -> O.Plant:
    return O.hyperbolic_one(n, alpha, 1.0, 0.5 * math.sqrt(alpha) * np.eye(n - 1), np.zeros(n - 1))


def _bfix(n: int, c: float) -> O.Plant:
    return O.boundary_fixed(n, c, 0.4 * np.eye(n - 1), [0.4] * (n - 1))


def probes() -> list[tuple[O.Plant, str | None]]:
    """Fixed estimator probes: (plant, expected fault or None)."""
    real2 = np.array([0.2, 0.1], dtype=complex)
    real3 = np.array([0.2, 0.1, 0.1], dtype=complex)
    cplx2 = np.array([0.2 + 0.1j, 0.1], dtype=complex)
    return [
        (_one_dim(0.5, 0.5), None),  # (1 + z) / 2, essential radius sqrt 2
        (_bfix(1, 0.5), None),  # z / (2 - z), essential radius 2^(-1/2)
        (O.conjugate(_hyp(2, 0.6), real2), None),
        (O.conjugate(_bfix(2, 0.5), real2), None),
        (O.conjugate(_hyp(3, 0.7), real3), None),
        (O.conjugate(_bfix(3, 0.4), real3), None),
        (O.conjugate(_one_dim(0.5, 0.5), np.array([0.3 + 0.1j])), FAULT_CONJUGATE_C),
        (O.conjugate(_bfix(1, 0.5), np.array([0.2 - 0.3j])), FAULT_CONJUGATE_C),
        (O.conjugate(_bfix(2, 0.5), cplx2), FAULT_CONJUGATE_C),
        (O.conjugate(_hyp(2, 0.8), cplx2), FAULT_CONJUGATE_C),
        (_one_dim(0.25, 0.75), FAULT_SATURATION),  # 0.25 z + 0.75
        (_hyp(2, 0.3), FAULT_SATURATION),
    ]


class Triage:
    name = "triage"

    def build(self, L, seed: int) -> None:
        rng = np.random.default_rng(seed)
        corpus = []
        for n in (1, 2, 3):
            for kind in O.KINDS_N1 if n == 1 else O.KINDS:
                for variant in range(2):
                    p = O.plant(kind, n, rng, variant)
                    corpus.append((O.conjugate(p, O.random_centre(n, rng)), None, False))
        for n in (1, 2, 3, 2, 3):
            p = O.non_self_map(n, rng)
            corpus.append((O.conjugate(p, O.random_centre(n, rng, 0.1, 0.4)), None, False))
        corpus += [(p, fault, True) for p, fault in probes()]
        self.items = interleave([(p, L.LinearFractionalMap(*p.abcd), fault, probe)
                                 for p, fault, probe in corpus])
        self.L = L

    def prepare(self) -> None:
        """The planted answers are made with the corpus; nothing to add."""

    def round(self, tracer=None) -> list:
        ops = []
        for p, f, fault, probe in self.items:
            label = "triage.%s.n%d" % (p.name, p.n)
            ops.append(run_op(label, lambda clk: self._report(clk, p, f, probe), tracer, fault))
        return ops

    def _report(self, clk, p: O.Plant, f, probe: bool) -> list:
        L = self.L
        rep = clk(L.validate_self_map, f)
        clk.count("maps.validate_self_map.samples", rep.samples)
        bad = O.check_validation(p, rep.ok, rep.witness)
        if bad or not p.self_map:
            return bad
        cl = clk(L.classify, f)
        data = cl.spectral_data
        bad += O.check_classification(p, cl.kind.value, cl.alpha,
                                      data.eigenvalues if data else (), cl.interior_fixed_point)
        try:
            with clk:
                s = L.spectrum(f, cl)
        except L.UnsupportedMapClass as exc:
            bad += O.check_unsupported(p, exc.kind, exc.spectral_radius)
        else:
            with clk:
                sj = s.to_json_dict()
                values, index = s.discretize(RESOLUTION)
            bad += O.check_spectrum(p, sj, values, index)
        if probe:
            with clk:
                est = L.essential_radius_estimate(f)
                closed = L.essential_radius_closed_form(cl)
            est_bad = O.check_essential_radius(p, closed, est.limit)
            clk.count("spectra.essential_radius_estimate.failed", len(est_bad) > 0)
            bad += est_bad
        return bad
