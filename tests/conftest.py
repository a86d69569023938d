import os

# One BLAS thread per calling thread, set before numpy loads: criterion 06
# contracts on two worker threads, and a multithreaded BLAS under each of
# them oversubscribes the cores (README, "--threads").
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest

from traceinv import ColoredGraph, build_graph, cyclic, fig7, melonic, search, two_vertex


@pytest.fixture
def mst3():
    """3 colors, 3 pairs, one face per color pair."""
    return build_graph(3, [[0, 1, 2], [1, 2, 0], [2, 0, 1]])


@pytest.fixture
def twov3():
    return two_vertex(3)


@pytest.fixture
def fig7_graph():
    return fig7()


@pytest.fixture
def melon2():
    """Single insertion on the 2-vertex graph: k=2, planar, compatible."""
    return melonic(3, [(0, 0)])


@pytest.fixture
def cyc2_d3():
    return cyclic(3, {0}, 2)


@pytest.fixture
def graph_builds(monkeypatch):
    """Number of ColoredGraph constructions (each one validates) during the test, as a one-item list."""
    count = [0]
    check = ColoredGraph.__init__

    def counted(self, *args, **kwargs):
        count[0] += 1
        check(self, *args, **kwargs)

    monkeypatch.setattr(ColoredGraph, "__init__", counted)
    return count


@pytest.fixture
def walks(monkeypatch):
    """(sigma, member_of) of every pairing walk started during the test."""
    seen = []
    walk = search._enumerate

    def counted(sigmas, member_of, *rest):
        seen.append((sigmas, None if member_of is None else tuple(member_of)))
        return walk(sigmas, member_of, *rest)

    monkeypatch.setattr(search, "_enumerate", counted)
    return seen
