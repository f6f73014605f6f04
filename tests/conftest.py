import pytest

import qgraph as qg


@pytest.fixture
def interval_graph():
    """Single bond of length 1 with Dirichlet ends."""
    return qg.Graph(((0, qg.DIRICHLET), (1, qg.DIRICHLET)), (qg.Bond(0, 1, 1.0),))


@pytest.fixture
def star3_graph():
    """Three equal bonds of length 1, Kirchhoff center, Dirichlet tips."""
    return qg.Graph(
        ((0, qg.KIRCHHOFF), (1, qg.DIRICHLET), (2, qg.DIRICHLET), (3, qg.DIRICHLET)),
        (qg.Bond(0, 1, 1.0), qg.Bond(0, 2, 1.0), qg.Bond(0, 3, 1.0)),
    )


def dirichlet_interval(ell: float) -> qg.Graph:
    return qg.Graph(((0, qg.DIRICHLET), (1, qg.DIRICHLET)), (qg.Bond(0, 1, ell),))
