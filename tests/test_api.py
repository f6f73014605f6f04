import ast
import math
from pathlib import Path

import numpy as np
import pytest

import qgraph as qg


def test_public_names_resolve_and_are_unique():
    assert len(qg.__all__) == len(set(qg.__all__))
    assert [name for name in qg.__all__ if not hasattr(qg, name)] == []


_INTERVAL = qg.Graph(((0, qg.DIRICHLET), (1, qg.DIRICHLET)), (qg.Bond(0, 1, 1.0),))
_STAR3 = qg.build_vertex_smatrix(3, qg.KIRCHHOFF, 1.0)
REFUSED_ARGUMENTS = {
    "find_eigenvalues-k_max": lambda: qg.find_eigenvalues(_INTERVAL, 0.0),
    "dirichlet_eigenvalues-length-nan": lambda: qg.dirichlet_eigenvalues(math.nan, 3),
    "dirichlet_eigenvalues-length-inf": lambda: qg.dirichlet_eigenvalues(math.inf, 3),
    "weyl_count-k-nan": lambda: qg.weyl_count(_INTERVAL, math.nan),
    "weyl_count-k-inf": lambda: qg.weyl_count(_INTERVAL, math.inf),
    "secular_function-k-nan": lambda: qg.secular_function(_INTERVAL, math.nan),
    "secular_function-k-inf": lambda: qg.secular_function(_INTERVAL, math.inf),
    "scaled": lambda: _INTERVAL.scaled(0.0),
    "scaled-nan": lambda: _INTERVAL.scaled(math.nan),
    "scaled-inf": lambda: _INTERVAL.scaled(math.inf),
    "vertex_reflection_transmission-valency": lambda: qg.vertex_reflection_transmission(
        0, qg.KIRCHHOFF, 1.0
    ),
    "dirichlet_eigenvalues-n_max": lambda: qg.dirichlet_eigenvalues(1.0, 0),
    "find_eigenvalues-no-bonds": lambda: qg.find_eigenvalues(qg.Graph((), ()), 1.0),
    "bond_wavefunction-x-beyond-bond": lambda: qg.bond_wavefunction(1, 1, 1.0, 1.0, 2.0),
    "VertexCoupling-kirchhoff-gamma": lambda: qg.VertexCoupling(qg.CouplingKind.KIRCHHOFF, 1.0),
    # lead indices are integers: a bool would index the S-matrix as a mask
    "star_green-lead-bool": lambda: qg.star_green(True, 0, 0.1, 0.2, _STAR3),
    "star_green-lead-float": lambda: qg.star_green(1.0, 0, 0.1, 0.2, _STAR3),
    "star_green-lead-out-bool": lambda: qg.star_green(0, False, 0.1, 0.2, _STAR3),
    "star_green-lead-str": lambda: qg.star_green("0", 0, 0.1, 0.2, _STAR3),
}


def test_extrapolate_tau_is_not_public():
    # the mode sum's tau fit is a fixed map inside qgraph.casimir
    assert not hasattr(qg, "extrapolate_tau")
    assert not hasattr(qg.casimir, "extrapolate_tau")


def test_star_green_takes_numpy_integer_leads():
    assert qg.star_green(np.int64(1), np.int32(0), 0.1, 0.2, _STAR3) == qg.star_green(1, 0, 0.1, 0.2, _STAR3)


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
