import math

import pytest

import moebius_kit as mk


@pytest.fixture(scope="session")
def circle_2pi():
    return mk.unit_circle(2.0 * math.pi)


@pytest.fixture(scope="session")
def circle_1():
    return mk.unit_circle(1.0)


@pytest.fixture(scope="session")
def ellipse_06():
    return mk.arclength_reparametrize(mk.ellipse(1.0, 0.6))


@pytest.fixture(scope="session")
def trefoil():
    return mk.arclength_reparametrize(mk.torus_knot(2, 3, 2.0, 1.0))


@pytest.fixture(scope="session")
def minimizer_report():
    # the criterion-8 study; each n's seeded descents are independent of the
    # other sizes, so tests that need fewer sizes filter its rows
    return mk.minimizer_study([8, 16, 32, 64], seeds=10, dim=3)
