"""Exact spectra for maps in each supported class, with component listings.

Run:  python3 demos/spectra_tour.py
"""

import cmath
import math

import numpy as np

import lfmspec as L
from lfmspec.spectra import Annulus, Circle, ClosedDisk, Point, PointFamily


def describe(name, f, tail_tol=1e-6):
    try:
        s = L.spectrum(f, tail_tol=tail_tol)
    except L.UnsupportedMapClass as exc:
        print(f"\n{name}: {exc.kind} is outside the supported table")
        print(f"  spectral radius is still available: {exc.spectral_radius:.6f}")
        return
    print(f"\n{name}: kind={s.kind}, spectral radius {s.spectral_radius:.6f}"
          + ("  (set is a closure)" if s.is_closure else ""))
    for comp in s.components:
        if isinstance(comp, Point):
            print(f"  point   {comp.value:.6g}")
        elif isinstance(comp, PointFamily):
            pts = comp.points[:6]
            body = ", ".join(f"{p:.4g}" for p in pts)
            more = f" ... ({len(comp.points)} total)" if len(comp.points) > 6 else ""
            print(f"  points  {body}{more}")
        elif isinstance(comp, Circle):
            print(f"  circle  radius {comp.radius:.6g}")
        elif isinstance(comp, ClosedDisk):
            print(f"  disk    radius {comp.radius:.6g}")
        elif isinstance(comp, Annulus):
            print(f"  annulus {comp.r_inner:.6g} .. {comp.r_outer:.6g}")


def main():
    theta = 2 * math.pi * (math.sqrt(2) - 1)

    describe("irrational rotation", L.LinearFractionalMap([[cmath.exp(1j * theta)]], [0], [0], 1))
    describe("rotation x contraction", L.LinearFractionalMap(np.diag([cmath.exp(1j * theta), 0.5]), [0, 0], [0, 0], 1), tail_tol=1e-3)
    describe("(z/2, w/3)", L.LinearFractionalMap(np.diag([0.5, 1 / 3]), [0, 0], [0, 0], 1), tail_tol=1e-3)
    describe("z/(2-z)", L.LinearFractionalMap([[1]], [0], [-1], 2))
    describe("(1+z)/2", L.LinearFractionalMap([[0.5]], [0.5], [0], 1))

    hp = L.HalfPlaneMap(n=2, alpha=0.5, b=np.zeros(1), c=0.0,
                        a_block=np.array([[0.6 * math.sqrt(0.5)]]), d=np.zeros(1))
    describe("two boundary fixed points", hp.pulled_back_to_ball(), tail_tol=1e-2)

    describe("parabolic (z+1)/(3-z)", L.LinearFractionalMap([[1]], [1], [-1], 3))


if __name__ == "__main__":
    main()
