"""Known wrong answers, each pinned by the planted right one.

Every case asserts what the map's construction says the answer is and is
marked strict xfail with the ROADMAP item that owns the fault: the suite
passes while the fault stands, and a change that mends it turns the case
into an XPASS, which fails, so that change drops the marker and the case
stays as a plain test of the planted answer.
"""

import numpy as np
import pytest

import lfmspec as L
from lfmspec import LinearFractionalMap, MapClass
from lfmspec.maps import _cayley_matrix

CHAIN = ("ROADMAP item 2: the chain residual is judged against a fixed 1e-10, not against "
         "the error bound of the Denjoy-Wolff eigenvector it rotates")


def siegel_plant(c, alpha):
    """The 2-ball map whose Cayley transport at e_1 is ((z + c) / alpha, 0.5 w / alpha)."""
    hp = L.HalfPlaneMap(
        n=2,
        alpha=alpha,
        b=np.zeros(1, dtype=complex),
        c=complex(c),
        a_block=np.array([[0.5 + 0j]]),
        d=np.zeros(1, dtype=complex),
    )
    return hp.pulled_back_to_ball()


@pytest.mark.parametrize("c,kind", [
    (0, MapClass.HYPERBOLIC_TWO_FIXED),  # mended: gave NotAFixedPoint
    (1j, MapClass.HYPERBOLIC_TWO_FIXED),  # mended: gave parabolic
    (0.5 + 1j, MapClass.HYPERBOLIC_ONE_FIXED),  # mended: raised NoQualifyingBoundaryPoint
], ids=["c=0", "c=i", "c=0.5+i"])
def test_near_parabolic_plant_keeps_its_class(c, kind):
    assert L.classify(siegel_plant(c, 1.0 - 1e-6)).kind == kind


@pytest.mark.xfail(strict=True, reason=CHAIN)
@pytest.mark.parametrize("c,centre,kind", [
    # rounding puts the conjugate's fixed points 2.6e-10 off the sphere; residual 1.2e-10
    (0, [0.1j, -0.6], MapClass.HYPERBOLIC_TWO_FIXED),
    (0.5 + 1j, [0.2 + 0.1j, 0.3], MapClass.HYPERBOLIC_ONE_FIXED),  # residual 1.1e-10
], ids=["c=0", "c=0.5+i"])
def test_conjugated_near_parabolic_plant_keeps_its_class(c, centre, kind):
    f = L.conjugated(siegel_plant(c, 1.0 - 1e-6), L.ball_automorphism_to_origin(np.array(centre)))
    assert L.classify(f).kind == kind


def _rounded(m, rounding):
    """The ball matrix m as given, with d rotated to real, or divided by d."""
    d = m[-1, -1]
    return {"raw": m, "real_d": m * np.conj(d) / abs(d), "over_d": m / d}[rounding]


@pytest.mark.parametrize("rounding", ["raw", "real_d", "over_d"])
@pytest.mark.parametrize("c", [1 + 100j, 1 + 150j, 2 + 100j], ids=["1+100i", "1+150i", "2+100i"])
def test_siegel_shift_is_hyperbolic_one_fixed(c, rounding):
    # mended: 1 + 150i gave parabolic, and 2 + 100i raised NoQualifyingBoundaryPoint;
    # the exterior fixed point of 1 + 150i lies 8.9e-9 outside the sphere
    m = np.array([[1, 0, c], [0, 0.5, 0], [0, 0, 0.9999]]) / 0.9999
    ball = np.linalg.inv(_cayley_matrix(2)) @ m @ _cayley_matrix(2)
    f = LinearFractionalMap.from_matrix(_rounded(ball, rounding))
    assert L.classify(f).kind == MapClass.HYPERBOLIC_ONE_FIXED


@pytest.mark.parametrize("value", [[1], [1j], [0.6, 0.8j]], ids=["1", "i", "(0.6,0.8i)"])
def test_constant_onto_the_sphere_is_not_a_self_map(value):
    # mended: the open ball goes to one point of the sphere, and sup |phi| = 1
    # on the closed ball passed the check against 1 + tol
    n = len(value)
    assert not L.validate_self_map(LinearFractionalMap(np.zeros((n, n)), value, np.zeros(n), 1)).ok


@pytest.mark.parametrize("alpha", [0.1, 0.05, 0.01])
def test_estimate_of_a_conjugated_small_dilation(alpha):
    # mended: the root at order 20 raised NumericalInconsistency at 0.1 and
    # 0.05 and reported 2.46 at 0.01; the order-1 estimate is exact to rounding
    f = LinearFractionalMap([[alpha]], [1 - alpha], [0], 1)
    g = L.conjugated(f, L.ball_automorphism_to_origin(np.array([0.3 + 0.1j])))
    assert abs(L.essential_radius_estimate(g).limit - alpha ** -0.5) <= 1e-6
