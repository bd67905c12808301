"""Shared fixtures for the test suite."""

import pytest
from hypothesis import settings

import mfkit as mk

# every run draws the same examples, so a run's outcome and time depend on
# the tree alone; each test keeps its own max_examples
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def curve():
    """Default rational curve y^2 z = x^3 + z^3."""
    return mk.default_curve()


@pytest.fixture(scope="session")
def ring(curve):
    return curve.ring


@pytest.fixture(scope="session")
def potential(curve):
    return curve.f


@pytest.fixture(scope="session")
def points(curve):
    return mk.default_points(curve, 5)


@pytest.fixture(scope="session")
def point(points):
    return points[0]


@pytest.fixture(scope="session")
def curve101():
    return mk.default_curve(mk.Field(101))


@pytest.fixture(scope="session")
def point_presentation(curve):
    """The degree-one coordinate module of a rational point, as a cyclic presentation."""

    def build(pt, cv=curve):
        ring = cv.ring
        X, Y, Z = ring.gens()
        rel = mk.GradedMatrix(
            ring, [0], [1, 1], [[Y - Z.scale(pt.mu), X - Z.scale(pt.lam)]]
        )
        return mk.Presentation(ring, cv.f, [0], rel)

    return build


@pytest.fixture(scope="session")
def residue_presentation(curve):
    """The residue field K = A/(X, Y, Z) as a cyclic presentation."""

    def build(cv=curve):
        ring = cv.ring
        X, Y, Z = ring.gens()
        rel = mk.GradedMatrix(ring, [0], [1, 1, 1], [[X, Y, Z]])
        return mk.Presentation(ring, cv.f, [0], rel)

    return build
