import math

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


def interval_mode_sum_config() -> qg.RegularizationConfig:
    """Default-window config used for the tight interval benchmarks."""
    return qg.RegularizationConfig(tau_values=qg.geometric_taus(*qg.DEFAULT_TAU_WINDOW), fit_order=5)


def analytic_interval_spectrum(ell: float, cfg: qg.RegularizationConfig) -> list[float]:
    """Dirichlet spectrum reaching k_max * tau_min >= 34 for the given window."""
    tau_min = min(cfg.tau_values)
    k_max = 34.0 / tau_min
    n_max = int(math.ceil(k_max * ell / math.pi)) + 1
    return qg.dirichlet_eigenvalues(ell, n_max)
