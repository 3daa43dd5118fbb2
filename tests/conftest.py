import tracemalloc

import pytest

from wreathlab import construct_named, group_to_json


@pytest.fixture(scope="session")
def s3():
    return construct_named("S:3")


@pytest.fixture(scope="session")
def s4():
    return construct_named("S:4")


@pytest.fixture(scope="session")
def d4():
    return construct_named("D:4")


@pytest.fixture(scope="session")
def q8():
    return construct_named("Q8")


@pytest.fixture
def peak_mb():
    """Run a thunk under tracemalloc; returns (its result, the peak of Python and
    numpy allocations in MB while it ran)."""
    def run(thunk):
        tracemalloc.start()
        try:
            result = thunk()
            return result, tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    return run


@pytest.fixture
def c600_loop():
    """C:600 as exchange JSON with the intercalate at rows 130, 430 and columns
    41, 341 swapped (171 <-> 471).

    The result is a loop, not a group: 9552 triples fail associativity, too
    few for a spot check of random triples to find.
    """
    data = group_to_json(construct_named("C:600"))
    for a in (130, 430):
        for b in (41, 341):
            data["table"][a][b] = 171 + 471 - data["table"][a][b]
    return data
