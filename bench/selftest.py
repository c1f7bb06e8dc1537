"""Self-test of the benchmark's oracles.

Feeds every oracle one right answer, which it must accept, and deliberately
wrong ones (a perturbed eigenvalue, a wrong kind, a radius off by 10%, a
wrong compression entry, a witness inside the ball, ...), which it must
flag.  Right answers come from the planted construction or from lfmspec.
Run from the root of a checkout:

    python3 bench/selftest.py

Exits 0 when every right answer passes and every wrong one is flagged.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import numpy as np  # noqa: E402

import lfmspec as L  # noqa: E402
import oracles as O  # noqa: E402

RESULTS: list[tuple[str, bool]] = []


def expect(label: str, problems: list, wrong: bool) -> None:
    ok = bool(problems) == wrong
    RESULTS.append((label, ok))
    verdict = ("flagged" if problems else "MISSED") if wrong else ("accepted" if not problems else "REJECTED")
    print("%-58s %s%s" % (label, verdict, "" if ok else "  <-- oracle fault: %s" % problems))


def spectrum_json(p: O.Plant, radius_scale: float = 1.0, disk_scale: float = 1.0,
                  drop_point: bool = False) -> dict:
    """A spectrum report built from the planted parts, optionally spoiled."""
    comps = []
    for part in p.spec:
        if part[0] == "points":
            vals = list(part[1][1:] if drop_point else part[1])
            comps.append({"type": "points", "values": [[v.real, v.imag] for v in map(complex, vals)]})
        elif part[0] == "disk":
            comps.append({"type": "disk", "radius": part[1] * disk_scale})
        elif part[0] == "circle":
            comps.append({"type": "circle", "radius": part[1]})
        else:
            comps.append({"type": "annulus", "r_in": part[1], "r_out": part[2]})
    return {"kind": p.kind, "spectral_radius": p.radius * radius_scale, "components": comps}


def main() -> int:
    rng = np.random.default_rng(2024)

    # classification: kind, alpha, differential eigenvalues, fixed point
    ell = O.conjugate(O.plant("elliptic_interior_only", 2, rng), O.random_centre(2, rng))
    right = (ell.kind, None, ell.eigenvalues, ell.fixed_point)
    expect("classification: planted answer", O.check_classification(ell, *right), False)
    expect("classification: wrong kind",
           O.check_classification(ell, "elliptic_boundary_fixed", *right[1:]), True)
    bumped = (ell.eigenvalues[0] + 1e-4,) + tuple(ell.eigenvalues[1:])
    expect("classification: perturbed eigenvalue",
           O.check_classification(ell, ell.kind, None, bumped, ell.fixed_point), True)
    hyp = O.plant("hyperbolic_one_fixed", 3, rng)
    expect("classification: alpha off by 10%",
           O.check_classification(hyp, hyp.kind, 1.1 * hyp.alpha, (), None), True)

    # spectrum: radius, parts, discretized cloud
    for kind, n in (("elliptic_boundary_fixed", 2), ("hyperbolic_two_fixed", 3),
                    ("elliptic_unitary_part", 3), ("elliptic_automorphism", 2)):
        p = O.plant(kind, n, rng)
        expect("spectrum %s: planted answer" % kind, O.check_spectrum(p, spectrum_json(p)), False)
        expect("spectrum %s: radius off by 10%%" % kind,
               O.check_spectrum(p, spectrum_json(p, radius_scale=1.1)), True)
    bfix = O.plant("elliptic_boundary_fixed", 2, rng)
    expect("spectrum: essential disk 10% too small",
           O.check_spectrum(bfix, spectrum_json(bfix, disk_scale=0.9)), True)
    aut = O.plant("elliptic_automorphism", 1, rng, 0)
    expect("spectrum: a group element missing",
           O.check_spectrum(aut, spectrum_json(aut, drop_point=True)), True)
    disk = O.plant("hyperbolic_one_fixed", 2, rng)
    cloud = disk.radius * np.exp(1j * np.linspace(0, 6, 50)) * np.linspace(0, 1, 50)
    expect("cloud: inside the planted disk", O.check_spectrum_cloud(disk, cloud), False)
    expect("cloud: one point 10% outside",
           O.check_spectrum_cloud(disk, np.append(cloud, 1.1 * disk.radius)), True)
    expect("refusal: radius off by 10%",
           O.check_unsupported(O.plant("parabolic", 2, rng), "parabolic", 1.1), True)

    # essential radius: closed form and estimate
    expect("essential radius: right estimate",
           O.check_essential_radius(bfix, bfix.ess, 1.01 * bfix.ess), False)
    expect("essential radius: estimate off by 10%",
           O.check_essential_radius(bfix, bfix.ess, 1.1 * bfix.ess), True)
    expect("essential radius: closed form off by 10%",
           O.check_essential_radius(bfix, 1.1 * bfix.ess, bfix.ess), True)

    # self-map validation and the witness of a non-self-map
    bad = O.non_self_map(2, rng)
    f = L.LinearFractionalMap(*bad.abcd)
    rep = L.validate_self_map(f)
    expect("witness: lfmspec's witness", O.check_validation(bad, rep.ok, rep.witness), False)
    expect("witness: the origin", O.check_validation(bad, False, np.zeros(2)), True)
    expect("witness: outside the ball", O.check_validation(bad, False, 2.0 * rep.witness), True)
    expect("validation: non-self-map accepted", O.check_validation(bad, True, None), True)
    expect("validation: self-map rejected", O.check_validation(ell, False, None), True)

    # compression eigenvalues of a map fixing 0
    dense = O.dense_origin_map(2, rng)
    want = O.expected_compression_eigenvalues(dense.eigenvalues, 2, 6)
    got = L.compression_spectrum(L.LinearFractionalMap(*dense.abcd), 6)
    expect("multiset: lfmspec's compression eigenvalues", O.check_multiset(want, got), False)
    spoiled = got.copy()
    spoiled[3] += 1e-5
    expect("multiset: one eigenvalue perturbed by 1e-5", O.check_multiset(want, spoiled), True)
    expect("multiset: one eigenvalue missing", O.check_multiset(want, got[1:]), True)

    # compression columns of a general map against the torus FFT
    for n, d in ((1, 20), (2, 8), (3, 5)):
        gen = O.general_map(n, rng)
        comp = L.build_compression(L.LinearFractionalMap(*gen.abcd), d)
        cols = [1, len(comp.basis) - 1]
        expect("columns N=%d: lfmspec's compression" % n,
               O.check_compression_columns(gen, comp.basis, comp.matrix, cols), False)
        m = comp.matrix.copy()
        m[len(comp.basis) // 2, cols[-1]] += 1e-6
        expect("columns N=%d: one entry off by 1e-6" % n,
               O.check_compression_columns(gen, comp.basis, m, cols), True)

    # binomial eigenfunctions
    bmap = L.LinearFractionalMap(*O.blocks(O.binomial_map(2)))
    s = 1.3 + 0.4j
    series = L.binomial_series(s, 300, n=2, var=0)
    lam = O.binomial_eigenvalue(s)
    expect("binomial: 2^-s", O.check_residual(
        L.eigenfunction_residual(bmap, lam, series, 60), O.RESIDUAL_MAX), False)
    expect("binomial: eigenvalue perturbed by 1e-6", O.check_residual(
        L.eigenfunction_residual(bmap, lam * (1 + 1e-6), series, 60), O.RESIDUAL_MAX), True)

    missed = [label for label, ok in RESULTS if not ok]
    print("%d checks, %d oracle faults" % (len(RESULTS), len(missed)))
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
