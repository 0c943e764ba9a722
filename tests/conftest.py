"""Shared fixtures: a per-test time limit and the worked cyclic examples
used across the suite."""

import signal
from fractions import Fraction

import pytest

from gconstellations import GroupData, build_lattice, make_fan

# the slowest test takes a few seconds; a hang (for example Dijkstra on a
# negative cost) fails at this limit instead of stalling the suite
TIME_LIMIT_S = 120


class TimeLimitExceeded(BaseException):
    """Not an Exception, so hypothesis reports it without shrinking."""


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs longer than TIME_LIMIT_S, where SIGALRM exists."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"test ran longer than {TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _fan(group, rays, cones):
    lattice = build_lattice(group)
    vectors = [tuple(Fraction(x) for x in ray) for ray in rays]
    return make_fan(lattice, vectors, cones)


@pytest.fixture(scope="session")
def g8():
    return GroupData.cyclic(8, (1, 2, 5))


@pytest.fixture(scope="session")
def fan8(g8):
    rays = [
        ("1", "0", "0"),
        ("0", "1", "0"),
        ("0", "0", "1"),
        ("1/8", "2/8", "5/8"),
        ("2/8", "4/8", "2/8"),
        ("4/8", "0", "4/8"),
        ("5/8", "2/8", "1/8"),
    ]
    cones = [
        (1, 2, 7), (7, 2, 5), (4, 2, 5), (4, 3, 2),
        (3, 4, 6), (4, 6, 5), (6, 5, 7), (1, 6, 7),
    ]
    return _fan(g8, rays, cones)


@pytest.fixture(scope="session")
def g2():
    return GroupData.cyclic(2, (1, 1))


@pytest.fixture(scope="session")
def fan2(g2):
    return _fan(g2, [("1", "0"), ("0", "1"), ("1/2", "1/2")], [(1, 3), (3, 2)])


@pytest.fixture(scope="session")
def g3():
    return GroupData.cyclic(3, (1, 2))


@pytest.fixture(scope="session")
def fan3(g3):
    rays = [("1", "0"), ("0", "1"), ("1/3", "2/3"), ("2/3", "1/3")]
    return _fan(g3, rays, [(1, 4), (4, 3), (3, 2)])


@pytest.fixture(scope="session")
def g31():
    return GroupData.cyclic(3, (1, 1, 1))


@pytest.fixture(scope="session")
def fan31(g31):
    rays = [("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1"),
            ("1/3", "1/3", "1/3")]
    return _fan(g31, rays, [(1, 2, 4), (2, 3, 4), (1, 3, 4)])


@pytest.fixture(scope="session")
def g4():
    # contains a quasi-reflection; the x-axis primitive drops to (1/2, 0)
    return GroupData.cyclic(4, (1, 2))


@pytest.fixture(scope="session")
def fan4(g4):
    return _fan(g4, [("1/2", "0"), ("0", "1"), ("1/4", "1/2")],
                [(1, 3), (3, 2)])


@pytest.fixture(scope="session")
def g1():
    return GroupData.cyclic(1, (0,))


@pytest.fixture(scope="session")
def fan1(g1):
    return _fan(g1, [("1",)], [(1,)])
