import ast
import math
from pathlib import Path

import pytest

import qgraph as qg


def test_public_names_resolve_and_are_unique():
    assert len(qg.__all__) == len(set(qg.__all__))
    assert [name for name in qg.__all__ if not hasattr(qg, name)] == []


_INTERVAL = qg.Graph(((0, qg.DIRICHLET), (1, qg.DIRICHLET)), (qg.Bond(0, 1, 1.0),))
REFUSED_ARGUMENTS = {
    "find_eigenvalues-k_max": lambda: qg.find_eigenvalues(_INTERVAL, 0.0),
    "dirichlet_eigenvalues-length-nan": lambda: qg.dirichlet_eigenvalues(math.nan, 3),
    "dirichlet_eigenvalues-length-inf": lambda: qg.dirichlet_eigenvalues(math.inf, 3),
    "weyl_count-k-nan": lambda: qg.weyl_count(_INTERVAL, math.nan),
    "weyl_count-k-inf": lambda: qg.weyl_count(_INTERVAL, math.inf),
    "secular_function-k-nan": lambda: qg.secular_function(_INTERVAL, math.nan),
    "secular_function-k-inf": lambda: qg.secular_function(_INTERVAL, math.inf),
    "extrapolate_tau-fit_order": lambda: qg.extrapolate_tau([(0.2, 1.0), (0.1, 2.0)], 0),
    "extrapolate_tau-fit_order-float": lambda: qg.extrapolate_tau([(0.2, 1.0), (0.1, 2.0)], 1.5),
    "extrapolate_tau-fit_order-bool": lambda: qg.extrapolate_tau([(0.2, 1.0), (0.1, 2.0)], True),
    "scaled": lambda: _INTERVAL.scaled(0.0),
    "scaled-nan": lambda: _INTERVAL.scaled(math.nan),
    "scaled-inf": lambda: _INTERVAL.scaled(math.inf),
    "vertex_reflection_transmission-valency": lambda: qg.vertex_reflection_transmission(
        0, qg.KIRCHHOFF, 1.0
    ),
    "dirichlet_eigenvalues-n_max": lambda: qg.dirichlet_eigenvalues(1.0, 0),
    "find_eigenvalues-no-bonds": lambda: qg.find_eigenvalues(qg.Graph((), ()), 1.0),
    "bond_wavefunction-x-beyond-bond": lambda: qg.bond_wavefunction(1, 1, 1.0, 1.0, 2.0),
    "effective_gamma-dirichlet": lambda: qg.DIRICHLET.effective_gamma(),
    "VertexCoupling-kirchhoff-gamma": lambda: qg.VertexCoupling(qg.CouplingKind.KIRCHHOFF, 1.0),
}


@pytest.mark.parametrize("call", REFUSED_ARGUMENTS.values(), ids=REFUSED_ARGUMENTS.keys())
def test_refused_arguments_raise_input_error(call):
    with pytest.raises(qg.InputError) as err:
        call()
    assert isinstance(err.value, ValueError)


def test_library_raises_no_bare_value_error():
    # every argument refusal is an InputError, which callers can tell from a bug
    found = []
    for path in sorted(Path(qg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "ValueError":
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []
