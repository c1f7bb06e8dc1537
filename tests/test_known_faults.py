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

CLUSTER = "ROADMAP item 3: fixed points within eigenvalue_cluster share one eigenspace"


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


@pytest.mark.xfail(strict=True, reason=CLUSTER)
@pytest.mark.parametrize("c,kind", [
    (0, MapClass.HYPERBOLIC_TWO_FIXED),  # gives NotAFixedPoint
    (1j, MapClass.HYPERBOLIC_TWO_FIXED),  # gives parabolic
    (0.5 + 1j, MapClass.HYPERBOLIC_ONE_FIXED),  # raises NoQualifyingBoundaryPoint
], ids=["c=0", "c=i", "c=0.5+i"])
def test_near_parabolic_plant_keeps_its_class(c, kind):
    assert L.classify(siegel_plant(c, 1.0 - 1e-6)).kind == kind


@pytest.mark.xfail(strict=True, reason=CLUSTER)
@pytest.mark.parametrize("c", [1 + 150j, 2 + 100j], ids=["1+150i", "2+100i"])
def test_siegel_shift_is_hyperbolic_one_fixed(c):
    # 1 + 150i gives parabolic, and 2 + 100i raises NoQualifyingBoundaryPoint
    assert L.classify(siegel_plant(c, 0.9999)).kind == MapClass.HYPERBOLIC_ONE_FIXED


@pytest.mark.parametrize("alpha", [0.1, 0.05, 0.01])
def test_estimate_of_a_conjugated_small_dilation(alpha):
    # mended: the root at order 20 raised NumericalInconsistency at 0.1 and
    # 0.05 and reported 2.46 at 0.01; the order-1 estimate is exact to rounding
    f = LinearFractionalMap([[alpha]], [1 - alpha], [0], 1)
    g = L.conjugated(f, L.ball_automorphism_to_origin(np.array([0.3 + 0.1j])))
    assert abs(L.essential_radius_estimate(g).limit - alpha ** -0.5) <= 1e-6
