"""qgraph: spectra, exact Green functions, and regularized vacuum energies
for one-dimensional metric graphs."""

from .casimir import (
    CasimirResult,
    Method,
    casimir_green_method,
    casimir_mode_sum,
    casimir_sweep,
)
from .errors import (
    ExtrapolationError,
    GraphFormatError,
    InputError,
    NumericalError,
    PoleProximityError,
    QGraphError,
    ResonantBondError,
    SingularWavenumberError,
    UnsupportedTopologyError,
)
from .graph import (
    DIRICHLET,
    KIRCHHOFF,
    Bond,
    CouplingKind,
    Graph,
    Lead,
    VertexCoupling,
    delta,
    emit_graph,
    parse_graph,
    total_length,
)
from .greens import (
    GreenDecomposition,
    bond_wavefunction,
    free_green,
    star_green,
    trace_gamma,
    two_vertex_green,
)
from .scattering import (
    CavityAmplitudes,
    RTPair,
    VertexSMatrix,
    build_vertex_smatrix,
    cavity_amplitudes,
    vertex_reflection_transmission,
)
from .spectrum import (
    SpectrumResult,
    dirichlet_eigenvalues,
    find_eigenvalues,
    secular_function,
    weyl_count,
)

__version__ = "0.1.0"

__all__ = [
    "Bond",
    "CasimirResult",
    "CavityAmplitudes",
    "CouplingKind",
    "DIRICHLET",
    "ExtrapolationError",
    "Graph",
    "GraphFormatError",
    "GreenDecomposition",
    "InputError",
    "KIRCHHOFF",
    "Lead",
    "Method",
    "NumericalError",
    "PoleProximityError",
    "QGraphError",
    "RTPair",
    "ResonantBondError",
    "SingularWavenumberError",
    "SpectrumResult",
    "UnsupportedTopologyError",
    "VertexCoupling",
    "VertexSMatrix",
    "bond_wavefunction",
    "build_vertex_smatrix",
    "casimir_green_method",
    "casimir_mode_sum",
    "casimir_sweep",
    "cavity_amplitudes",
    "delta",
    "dirichlet_eigenvalues",
    "emit_graph",
    "find_eigenvalues",
    "free_green",
    "parse_graph",
    "secular_function",
    "star_green",
    "total_length",
    "trace_gamma",
    "two_vertex_green",
    "vertex_reflection_transmission",
    "weyl_count",
]
