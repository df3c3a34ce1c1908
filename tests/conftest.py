from functools import cache

import pytest

from kronkit.search import enumerate_ressayre


@pytest.fixture(scope="session")
def enumerate_once():
    """enumerate_ressayre(m) at the default seed, computed once per session.

    The m = 3 enumeration is the slowest step of the suite; the tests that
    need it share one result.  The first caller pays the full cost inside
    its own body.
    """
    return cache(enumerate_ressayre)
