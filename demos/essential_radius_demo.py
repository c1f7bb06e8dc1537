"""Contact-point estimation of the essential spectral radius.

At a boundary fixed point tau the angular derivative d of phi (the
Denjoy-Wolff dilation alpha for hyperbolic maps, the boundary dilation for
elliptic maps fixing a boundary point) gives the essential spectral radius
d^(-N/2).  The estimator reads d off the associated matrix M as the J-form
pairing Re((M u)* J (M v)) / |(M v)_N|^2 with u = (tau, 0) and v = (tau, 1).
The closed form takes the same d from the classification, which
differentiates phi through its Jacobian, so the two are independent paths.
By the chain rule phi^n has angular derivative d^n, so no iterate would add
more than rounding.  The demo prints tau, d, the estimate and the closed form.

Run:  python3 demos/essential_radius_demo.py
"""

import numpy as np

import lfmspec as L


def trace(name, f):
    cl = L.classify(f)
    closed = L.essential_radius_closed_form(cl)
    est = L.essential_radius_estimate(f)
    print(f"\n{name}  (kind {cl.kind.value})")
    print(f"  boundary point tau    : {np.round(est.tau, 6)}")
    print(f"  angular derivative d  : {est.angular_derivative:.10f}")
    print(f"  estimate d^(-N/2)     : {est.limit:.10f}")
    if closed is not None:
        rel = abs(est.limit - closed) / closed
        print(f"  closed form           : {closed:.10f}   (relative difference {rel:.1e})")


def main():
    trace("z/(2-z)", L.LinearFractionalMap([[1]], [0], [-1], 2))
    trace("(1+z)/2", L.LinearFractionalMap([[0.5]], [0.5], [0], 1))
    trace("((1+z)/2, w/2) on the two-ball",
          L.LinearFractionalMap(np.diag([0.5, 0.5]), [0.5, 0], [0, 0], 1))
    small = L.LinearFractionalMap([[0.01]], [0.99], [0], 1)
    trace("0.01 z + 0.99 conjugated at 0.3 + 0.1i",
          L.conjugated(small, L.ball_automorphism_to_origin(np.array([0.3 + 0.1j]))))


if __name__ == "__main__":
    main()
