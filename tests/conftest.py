import random

import pytest

from minclique import Graph, WitnessCatalog, circulant, complete_graph

from brute import from_edges


@pytest.fixture(scope="session")
def catalog() -> WitnessCatalog:
    return WitnessCatalog()


@pytest.fixture
def c5() -> Graph:
    return circulant(5, {1})


@pytest.fixture
def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return from_edges(10, edges)


@pytest.fixture
def k4() -> Graph:
    return complete_graph(4)


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edges(n, edges)


def random_triangle_free(rng: random.Random, n: int) -> Graph:
    """Greedy random maximal-ish triangle-free graph."""
    rows = [0] * n
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    for u, v in pairs:
        if rows[u] & rows[v] == 0 and rng.random() < 0.8:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return Graph(n, tuple(rows))
