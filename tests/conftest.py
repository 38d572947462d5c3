import pytest
from hypothesis import settings

from jahangir import JahangirParams, LabeledGraph, build_jahangir

# Hypothesis draws the same examples on every run, so a run that passes or
# fails does so again
settings.register_profile("default", derandomize=True)
# fresh examples on each run, each failure printed with the blob that
# replays it (@reproduce_failure): the scheduled CI run's profile
settings.register_profile("random", derandomize=False, print_blob=True)


@pytest.fixture
def four_cycle():
    # edge i joins vertices i and i+1, closing edge is index 3
    return LabeledGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))


@pytest.fixture
def triangle():
    return LabeledGraph(3, ((0, 1), (1, 2), (0, 2)))


@pytest.fixture
def k4():
    return LabeledGraph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))


@pytest.fixture
def star5():
    return LabeledGraph(5, ((0, 1), (0, 2), (0, 3), (0, 4)))


@pytest.fixture
def path4():
    return LabeledGraph(4, ((0, 1), (1, 2), (2, 3)))


@pytest.fixture
def disconnected():
    return LabeledGraph(4, ((0, 1), (2, 3)))


@pytest.fixture
def corpus(four_cycle, triangle, k4, star5, path4, disconnected):
    """Every constructed graph the identity tests sweep over."""
    graphs = [four_cycle, triangle, k4, star5, path4, disconnected]
    for n, m in [(2, 3), (2, 4), (2, 5), (3, 3), (3, 5), (4, 3)]:
        graphs.append(build_jahangir(JahangirParams(n, m)))
    return graphs
