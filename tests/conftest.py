"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from lipbound.network import Network, generate_random


@pytest.fixture
def float_range_nets():
    """Networks whose product bound leaves the float range or is a bare 0.

    P80's product and gamma overflow, TINY's underflow (its true constant is
    about 1e-400), HUGE's first Gram product overflows, and MIXED's
    cumulative product underflows although a recursion still finds a bound.
    ZERO's zero first layer makes the product 0 under a nonzero output
    layer, and ZERO_HUGE adds a middle layer whose square overflows.
    """
    eye = np.eye(2)
    p80 = generate_random(80, 4, 4, 2, seed=0)
    return {
        "P80": Network(tuple(100.0 * W for W in p80.weights)),
        "TINY": Network((1e-200 * eye, 1e-200 * eye)),
        "MIXED": Network((1e-200 * eye, 1e100 * eye, eye)),
        "HUGE": Network((1e160 * eye, eye)),
        "ZERO": Network((0.0 * eye, eye, eye)),
        "ZERO_HUGE": Network((0.0 * eye, 1e200 * eye, eye)),
    }
