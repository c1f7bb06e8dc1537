"""Contact-point estimation of the essential spectral radius.

At a boundary fixed point tau the angular derivative d of phi (the
Denjoy-Wolff dilation alpha for hyperbolic maps, the boundary dilation for
elliptic maps fixing a boundary point) gives the essential spectral radius
d^(-N/2).  For the n-th iterate the estimator reads d_n off the associated
matrix M_n as the J-form pairing Re((M_n u)* J (M_n v)) / |(M_n v)_N|^2 with
u = (tau, 0) and v = (tau, 1).  By the chain rule d_n = d^n, so every root
d_n^(-N/(2n)) is the same number; their spread is the estimator's own check.
The demo prints the roots and compares the last against the closed form.

Run:  python3 demos/essential_radius_demo.py
"""

import numpy as np

import lfmspec as L


def trace(name, f):
    cl = L.classify(f)
    closed = L.essential_radius_closed_form(cl)
    est = L.essential_radius_estimate(f, n_max=20)
    print(f"\n{name}  (kind {cl.kind.value})")
    print(f"  boundary point tau = {np.round(est.tau, 6)}")
    print(f"  roots d_n^(-N/2n)     : "
          + ", ".join(f"{r:.10f}" for r in est.roots[-6:]))
    print(f"  relative spread       : {est.spread:.2e}")
    print(f"  limit, root at n_max  : {est.limit:.10f}")
    if closed is not None:
        rel = abs(est.limit - closed) / closed
        print(f"  closed form           : {closed:.10f}   (relative error {rel:.1e})")


def main():
    trace("z/(2-z)", L.LinearFractionalMap([[1]], [0], [-1], 2))
    trace("(1+z)/2", L.LinearFractionalMap([[0.5]], [0.5], [0], 1))
    trace("((1+z)/2, w/2) on the two-ball",
          L.LinearFractionalMap(np.diag([0.5, 0.5]), [0.5, 0], [0, 0], 1))


if __name__ == "__main__":
    main()
