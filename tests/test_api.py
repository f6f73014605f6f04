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
    # 2 i k overflows at the top of the search: refused before the secular matrix
    "find_eigenvalues-amplitude-overflow": lambda: qg.find_eigenvalues(
        qg.Graph(((0, qg.DIRICHLET), (1, qg.DIRICHLET)), (qg.Bond(0, 1, 1e-305),)), 9e307),
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


_CAVITY = qg.cavity_amplitudes(qg.DIRICHLET, 1.0, 1.3)
_REAL_OUT, _INT_OUT, _COMPLEX_OUT = [1 + 1j], [2.5, 3.0, 1 + 1j], [complex(math.nan, 1.0), complex(1.0, -math.inf)]
#: Every numeric argument of a public function, as (the call with that argument
#: left open, the name its InputError starts with, a value inside its range,
#: values outside it beside those that no argument takes).
ARGUMENTS = {
    "find_eigenvalues-k_max": (lambda v: qg.find_eigenvalues(_INTERVAL, v), "k_max", 7.5, [0.0, -1.0, *_REAL_OUT]),
    "secular_function-k": (lambda v: qg.secular_function(_INTERVAL, v), "k", 1.3 - 0.2j, _COMPLEX_OUT),
    "weyl_count-k": (lambda v: qg.weyl_count(_INTERVAL, v), "k", 1.3, [-1.0, *_REAL_OUT]),
    "dirichlet_eigenvalues-length": (lambda v: qg.dirichlet_eigenvalues(v, 3), "length", 0.7, [0.0, *_REAL_OUT]),
    "dirichlet_eigenvalues-n_max": (lambda v: qg.dirichlet_eigenvalues(1.0, v), "n_max", 3,
                                    [0, qg.spectrum._MAX_ROOTS + 1, *_INT_OUT]),
    "vertex_reflection_transmission-valency": (lambda v: qg.vertex_reflection_transmission(v, qg.KIRCHHOFF, 1.0),
                                               "valency", 3, [0, -1, *_INT_OUT]),
    "vertex_reflection_transmission-k": (lambda v: qg.vertex_reflection_transmission(3, qg.delta(0.5), v), "k",
                                         1.3 - 0.2j, _COMPLEX_OUT),
    "build_vertex_smatrix-valency": (lambda v: qg.build_vertex_smatrix(v, qg.KIRCHHOFF, 1.0), "valency", 3,
                                     [0, 4097, 10**9, *_INT_OUT]),
    "build_vertex_smatrix-k": (lambda v: qg.build_vertex_smatrix(3, qg.delta(0.5), v), "k", 1.3 - 0.2j, _COMPLEX_OUT),
    "cavity_amplitudes-ell": (lambda v: qg.cavity_amplitudes(qg.DIRICHLET, v, 1.3), "ell", 0.7,
                              [0.0, -1.0, *_REAL_OUT]),
    "cavity_amplitudes-k": (lambda v: qg.cavity_amplitudes(qg.delta(0.5), 1.0, v), "k", 1.3 - 0.2j, _COMPLEX_OUT),
    "free_green-k": (lambda v: qg.free_green(v, 0.1, 0.2), "k", 1.3 - 0.2j, _COMPLEX_OUT),
    "free_green-x_i": (lambda v: qg.free_green(1.3, v, 0.2), "x_i", -0.4, _REAL_OUT),
    "free_green-x_f": (lambda v: qg.free_green(1.3, 0.1, v), "x_f", -0.4, _REAL_OUT),
    "star_green-n": (lambda v: qg.star_green(v, 0, 0.1, 0.2, _STAR3), "n", 1, [-1, 3, *_INT_OUT]),
    "star_green-l": (lambda v: qg.star_green(0, v, 0.1, 0.2, _STAR3), "l", 1, [-1, 3, *_INT_OUT]),
    "star_green-x_i": (lambda v: qg.star_green(0, 1, v, 0.2, _STAR3), "x_i", 0.4, [-0.1, *_REAL_OUT]),
    "star_green-x_f": (lambda v: qg.star_green(0, 1, 0.1, v, _STAR3), "x_f", 0.4, [-0.1, *_REAL_OUT]),
    "two_vertex_green-x_i": (lambda v: qg.two_vertex_green(v, 0.2, _CAVITY), "x_i", 0.4, [-0.1, 1.5, *_REAL_OUT]),
    "two_vertex_green-x_f": (lambda v: qg.two_vertex_green(0.1, v, _CAVITY), "x_f", 0.4, [-0.1, 1.5, *_REAL_OUT]),
    "bond_wavefunction-phi_i": (lambda v: qg.bond_wavefunction(v, 1, 1.0, 1.0, 0.5), "phi_i", 0.5 + 2j, _COMPLEX_OUT),
    "bond_wavefunction-phi_j": (lambda v: qg.bond_wavefunction(1, v, 1.0, 1.0, 0.5), "phi_j", 0.5 + 2j, _COMPLEX_OUT),
    "bond_wavefunction-k": (lambda v: qg.bond_wavefunction(1, 1, v, 1.0, 0.5), "k", 1.3 - 0.2j, _COMPLEX_OUT),
    "bond_wavefunction-length": (lambda v: qg.bond_wavefunction(1, 1, 1.0, v, 0.5), "length", 0.7,
                                 [0.0, -1.0, *_REAL_OUT]),
    "bond_wavefunction-x": (lambda v: qg.bond_wavefunction(1, 1, 1.0, 1.0, v), "x", 0.4, [-0.1, 1.5, *_REAL_OUT]),
    "Graph.scaled-factor": (_INTERVAL.scaled, "scale factor", 0.7, [0.0, -1.0, *_REAL_OUT]),
    # the text of a graph description: a str, whose errors name what is wrong in it
    "parse_graph-text": (qg.parse_graph, "", '{"vertices": [], "bonds": []}', [b"[]", ""]),
}


@pytest.mark.parametrize("call, name, inside, outside", ARGUMENTS.values(), ids=ARGUMENTS.keys())
def test_every_numeric_argument_refuses_what_is_not_a_number_in_its_range(call, name, inside, outside):
    # no NaN, infinity, bool, str, None or int beyond the doubles reaches a
    # formula, and no refusal is a raw TypeError or OverflowError
    call(inside)
    for value in [None, "1", True, False, math.nan, math.inf, -math.inf, 10**400, -10**400, object(), *outside]:
        with pytest.raises(qg.InputError) as err:
            call(value)
        assert str(err.value).startswith(name), (value, str(err.value))


def _bits(result) -> str:
    # repr writes every float in full and names a numpy scalar's type
    return repr(result.entries.tobytes()) + repr(result.k) if isinstance(result, qg.VertexSMatrix) else repr(result)


@pytest.mark.parametrize("call, name, inside, outside", ARGUMENTS.values(), ids=ARGUMENTS.keys())
def test_numpy_scalars_give_the_bits_of_python_numbers(call, name, inside, outside):
    twin = {float: np.float64, int: np.int64, complex: np.complex128, str: str}[type(inside)]
    assert _bits(call(twin(inside))) == _bits(call(inside))
    if isinstance(inside, float):  # a real argument takes an integer as the same float
        assert _bits(call(np.int64(1))) == _bits(call(1)) == _bits(call(1.0))


@pytest.mark.parametrize("k", [0, 0.0, 0j, np.complex128(0), -0.0])
def test_k_zero_stays_a_singular_wavenumber(k):
    for call in (lambda: qg.vertex_reflection_transmission(3, qg.KIRCHHOFF, k),
                 lambda: qg.build_vertex_smatrix(3, qg.KIRCHHOFF, k),
                 lambda: qg.cavity_amplitudes(qg.DIRICHLET, 1.0, k), lambda: qg.free_green(k, 0.1, 0.2),
                 lambda: qg.secular_function(_INTERVAL, k),
                 lambda: qg.star_green(0, 1, 0.1, 0.2, qg.VertexSMatrix(_STAR3.entries, k))):
        with pytest.raises(qg.SingularWavenumberError):
            call()


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


def test_only_the_document_format_reads_a_coupling_kind():
    # past the JSON format a vertex is Dirichlet or delta(gamma), Kirchhoff
    # being delta(0): only VertexCoupling, parse_graph and emit_graph read .kind
    readers = set()
    for path in sorted(Path(qg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope in tree.body:
            if any(isinstance(node, ast.Attribute) and node.attr == "kind" for node in ast.walk(scope)):
                readers.add(f"{path.stem}.{getattr(scope, 'name', type(scope).__name__)}")
    assert readers <= {"graph.VertexCoupling", "graph.parse_graph", "graph.emit_graph"}
