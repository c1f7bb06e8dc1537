"""Classify one representative map of every kind and print the summary.

Run:  python3 demos/classification_gallery.py
"""

import math

import numpy as np

import lfmspec as L


def lfm_1d(a, b, c, d):
    return L.LinearFractionalMap([[a]], [b], [c], d)


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


GALLERY = [
    ("rotation by i", lfm_1d(1j, 0, 0, 1)),
    ("rotation x contraction", L.LinearFractionalMap(np.diag([1j, 0.5]), [0, 0], [0, 0], 1)),
    ("interior contraction", L.LinearFractionalMap(np.diag([0.5, 1 / 3]), [0, 0], [0, 0], 1)),
    ("z/(2-z)", lfm_1d(1, 0, -1, 2)),
    ("(z+1)/(3-z)", lfm_1d(1, 1, -1, 3)),
    ("(1+z)/2", lfm_1d(0.5, 0.5, 0, 1)),
    ("two-fixed plant a=0.6", two_fixed_plant(0.6)),
    ("hyperbolic disk automorphism", lfm_1d(1, 0.5, 0.5, 1)),
]


def main():
    print(f"{'map':32s} {'kind':28s} {'alpha':>8s} {'p':>4s} {'radius':>10s}")
    for name, f in GALLERY:
        cl = L.classify(f)
        alpha = "-" if cl.alpha is None else f"{cl.alpha:.4f}"
        p = "-" if cl.p is None else str(cl.p)
        radius = f"{L.spectral_radius(f, cl):.6f}"
        print(f"{name:32s} {cl.kind.value:28s} {alpha:>8s} {p:>4s} {radius:>10s}")
        if cl.denjoy_wolff_point is not None:
            loc = np.round(cl.denjoy_wolff_point.location, 6)
            print(f"{'':32s}   attracting boundary point at {loc}")


if __name__ == "__main__":
    main()
