import math
from fractions import Fraction

import numpy as np
import pytest

import qgraph as qg
from qgraph import Bond, CouplingKind, Graph, GraphFormatError, InputError

MINIMAL = """
{
  "vertices": [
    {"id": 0, "coupling": {"kind": "dirichlet"}},
    {"id": 1, "coupling": {"kind": "dirichlet"}}
  ],
  "bonds": [{"from": 0, "to": 1, "length": 1.0}],
  "leads": []
}
"""


def test_parse_minimal_interval():
    g = qg.parse_graph(MINIMAL)
    assert len(g.vertices) == 2
    assert len(g.bonds) == 1
    assert qg.total_length(g) == 1.0
    assert g.coupling(0).is_dirichlet


def test_parse_negative_length_rejected():
    doc = MINIMAL.replace('"length": 1.0', '"length": -1.0')
    with pytest.raises(GraphFormatError, match="non-positive length"):
        qg.parse_graph(doc)


def test_parse_delta_coupling_roundtrip():
    doc = """
    {"vertices": [
        {"id": 0, "coupling": {"kind": "delta", "gamma": 0.5}},
        {"id": 1, "coupling": {"kind": "dirichlet"}},
        {"id": 2, "coupling": {"kind": "dirichlet"}},
        {"id": 3, "coupling": {"kind": "dirichlet"}}],
     "bonds": [{"from": 0, "to": 1, "length": 1.0},
               {"from": 0, "to": 2, "length": 1.0},
               {"from": 0, "to": 3, "length": 1.0}]}
    """
    g = qg.parse_graph(doc)
    assert g.coupling(0).kind is CouplingKind.DELTA
    assert g.coupling(0).gamma == 0.5
    assert g.valency(0) == 3


@pytest.mark.parametrize(
    "mutation,message",
    [
        (lambda d: d.replace('"kind": "dirichlet"', '"kind": "neumann"', 1), "unknown coupling kind"),
        (lambda d: d.replace('"from": 0, ', ""), "missing field 'from'"),
        (lambda d: d.replace('"id": 0, ', ""), "id must be an integer"),
        (lambda d: d.replace('"length": 1.0', '"length": 1.0, "color": 3'), "unknown key"),
        (lambda d: d.replace('"to": 1', '"to": 7'), "unknown vertex 7"),
        (lambda d: d.replace("}\n", "", 1), "syntax error at line"),
        (lambda d: d.replace('"length": 1.0', '"length": NaN'), "bond 0: non-finite length"),
        (lambda d: d.replace('"length": 1.0', '"length": 1e400'), "bond 0: non-finite length"),
    ],
)
def test_parse_errors(mutation, message):
    with pytest.raises(GraphFormatError, match=message):
        qg.parse_graph(mutation(MINIMAL))


_DIRICHLET_END = '{"id": 1, "coupling": {"kind": "dirichlet"}}'
_BOND = '{"from": 0, "to": 1, "length": 1.0}'

#: One document per refusal of parse_graph's own, then one that Graph refuses
#: for ids and a length at once.
PARSE_REFUSALS = {
    "bytes": (b"\xff", "^a graph description is a str, not bytes$"),
    "not-an-object": ("[]", "^top-level document must be a JSON object$"),
    "no-vertices": ('{"bonds": []}', "^missing field 'vertices'$"),
    "no-bonds": ('{"vertices": []}', "^missing field 'bonds'$"),
    "section-not-a-list": ('{"vertices": {}, "bonds": []}', "^'vertices' must be a list$"),
    "vertex-not-an-object": ('{"vertices": [0], "bonds": []}', "^vertex 0: must be an object$"),
    "bond-not-an-object": (f'{{"vertices": [{_DIRICHLET_END}], "bonds": [[0, 1, 1.0]]}}',
                           "^bond 0: must be an object$"),
    "lead-not-an-object": (f'{{"vertices": [{_DIRICHLET_END}], "bonds": [], "leads": [1]}}',
                           "^lead 0: must be an object$"),
    "no-coupling": ('{"vertices": [{"id": 0}], "bonds": []}', "^vertex 0: missing field 'coupling'$"),
    "no-coupling-kind": ('{"vertices": [{"id": 0, "coupling": {}}], "bonds": []}',
                         "^vertex 0: missing field 'coupling.kind'$"),
    "lead-without-vertex": (f'{{"vertices": [{_DIRICHLET_END}], "bonds": [], "leads": [{{}}]}}',
                            "^lead 0: missing field 'vertex'$"),
    "gamma-not-a-number": (f'{{"vertices": [{{"id": 0, "coupling": {{"kind": "delta", "gamma": "1"}}}}, '
                           f'{_DIRICHLET_END}], "bonds": [{_BOND}]}}', "^vertex 0: gamma must be a number$"),
    "potential-not-a-number": (MINIMAL.replace('"length": 1.0', '"length": 1.0, "potential": [0]'),
                               "^bond 0: potential must be a number$"),
    "ids-and-length": ('{"vertices": [{"id": 0.5, "coupling": {"kind": "dirichlet"}}, ' + _DIRICHLET_END + '], '
                       '"bonds": [{"from": 0, "to": true, "length": "1"}]}',
                       "^vertex 0: id must be an integer, got 0.5; bond 0: vertex id must be an integer, got True; "
                       "bond 0: length must be a real number, got '1'$"),
}


@pytest.mark.parametrize("doc, message", PARSE_REFUSALS.values(), ids=PARSE_REFUSALS.keys())
def test_parse_refusals_name_their_cause(doc, message):
    with pytest.raises(GraphFormatError, match=message):
        qg.parse_graph(doc)


_HUGE = 10**400
_HUGE_INPUTS = {
    "bond-length": (lambda: Graph(_ENDS, (Bond(0, 1, _HUGE),)), "^bond 0: non-finite length$"),
    "delta": (lambda: qg.delta(_HUGE), "^delta coupling requires a finite real gamma, got inf$"),
    "scale": (lambda: Graph(_ENDS, (Bond(0, 1, 1.0),)).scaled(_HUGE), "^scale factor must be positive and finite$"),
    "file-length": (lambda: qg.parse_graph(MINIMAL.replace('"length": 1.0', f'"length": {_HUGE}')),
                    "^bond 0: non-finite length$"),
    "file-gamma": (lambda: qg.parse_graph(MINIMAL.replace('"dirichlet"', f'"delta", "gamma": {_HUGE}', 1)),
                   "^vertex 0: delta coupling requires a finite real gamma, got inf$"),
    "file-potential": (lambda: qg.parse_graph(MINIMAL.replace('"length": 1.0', f'"length": 1, "potential": {_HUGE}')),
                       "^bond 0: nonzero potential inf is unsupported"),
    # past 4300 digits, Python's default limit on int-str conversion, json refuses
    # the literal itself (a Python without the limit reads it as an int), and
    # the int's repr, which an error message would show, raises
    "file-length-past-the-digit-limit": (
        lambda: qg.parse_graph(MINIMAL.replace('"length": 1.0', '"length": ' + "1" * 5000)),
        "^(unreadable number: .*|bond 0: non-finite length)$"),
    "gamma-past-the-digit-limit": (lambda: qg.delta(10**5000),
                                   "^delta coupling requires a finite real gamma, got inf$"),
}


@pytest.mark.parametrize("call, message", _HUGE_INPUTS.values(), ids=_HUGE_INPUTS.keys())
def test_an_integer_beyond_the_doubles_is_refused(call, message):
    with pytest.raises(InputError, match=message):
        call()


@pytest.mark.parametrize("value", [3, np.int64(3), np.float16(0.1), np.float32(0.1), np.float64(0.1), Fraction(1, 3)],
                         ids=lambda v: type(v).__name__)
def test_a_gamma_of_any_real_type_is_stored_as_its_float(value):
    for coupling in (qg.delta(value), qg.VertexCoupling(CouplingKind.DELTA, value)):
        assert coupling == qg.delta(float(value)) and type(coupling.gamma) is float
    assert type(qg.VertexCoupling(CouplingKind.KIRCHHOFF, np.float32(0)).gamma) is float


def test_gamma_only_for_delta():
    doc = MINIMAL.replace('{"kind": "dirichlet"}', '{"kind": "dirichlet", "gamma": 1.0}', 1)
    with pytest.raises(GraphFormatError, match="only valid for delta"):
        qg.parse_graph(doc)


def test_delta_requires_gamma():
    doc = MINIMAL.replace('{"kind": "dirichlet"}', '{"kind": "delta"}', 1)
    with pytest.raises(GraphFormatError, match="requires 'gamma'"):
        qg.parse_graph(doc)


def test_dirichlet_never_a_large_float():
    with pytest.raises(GraphFormatError, match="finite"):
        qg.VertexCoupling(CouplingKind.DELTA, math.inf)


_ENDS = ((0, qg.DIRICHLET), (1, qg.DIRICHLET))


@pytest.mark.parametrize(
    "vertices,bonds,leads,message",
    [
        (_ENDS, (Bond(0, 7, 1.0),), (), "bond 0: unknown vertex 7"),
        (_ENDS, (Bond(0, 0, 1.0), Bond(0, 1, 1.0)), (), "bond 0: loops unsupported"),
        (_ENDS, (Bond(0, 1, 1.0), Bond(1, 0, 2.0)), (), r"bond 1: duplicate of bond 0 \(multi-edges unsupported\)"),
        (_ENDS + ((2, qg.KIRCHHOFF),), (Bond(0, 1, 1.0),), (), r"vertex 2: isolated \(valency 0\)"),
        (_ENDS + ((0, qg.KIRCHHOFF),), (Bond(0, 1, 1.0),), (), "vertex 0: duplicate id"),
        (_ENDS, (Bond(0, 1, -1.0),), (), "bond 0: non-positive length"),
        (_ENDS, (Bond(0, 1, 0.0),), (), "bond 0: non-positive length"),
        (_ENDS, (Bond(0, 1, math.nan),), (), "bond 0: non-finite length"),
        (_ENDS, (Bond(0, 1, math.inf),), (), "bond 0: non-finite length"),
        (_ENDS, (Bond(0, 1, True),), (), "^bond 0: length must be a real number, got True$"),
        (_ENDS, (Bond(0, 1, "1"),), (), "^bond 0: length must be a real number, got '1'$"),
        (_ENDS, (Bond(0, 1, None),), (), "^bond 0: length must be a real number, got None$"),
        (_ENDS, (Bond(0, 1, 1.0),), (qg.Lead(3),), "lead 0: unknown vertex 3"),
        # every violation is named, in order
        (_ENDS, (Bond(0, 0, -1.0), Bond(0, 1, 1.0)), (),
         "^bond 0: loops unsupported; bond 0: non-positive length$"),
    ],
    ids=["unknown-vertex", "loop", "multi-edge", "isolated", "duplicate-id", "negative-length", "zero-length",
         "nan-length", "inf-length", "bool-length", "str-length", "none-length", "lead-unknown-vertex",
         "all-named"],
)
def test_graph_refuses_structural_violations_when_built(vertices, bonds, leads, message):
    with pytest.raises(GraphFormatError, match=message):
        Graph(vertices, bonds, leads)


def test_lead_valency_counts():
    g = Graph(((0, qg.KIRCHHOFF),), (), (qg.Lead(0), qg.Lead(0), qg.Lead(0)))
    assert g.valency(0) == 3
    assert not g.is_compact


@pytest.mark.parametrize(
    "lengths,expected",
    [((1.0,), 1.0), ((1.0, 1.0, 1.0), 3.0), ((0.5, 2.5), 3.0)],
)
def test_total_length(lengths, expected):
    vertices = tuple((i, qg.DIRICHLET) for i in range(len(lengths) + 1))
    bonds = tuple(Bond(i, i + 1, length) for i, length in enumerate(lengths))
    assert qg.total_length(Graph(vertices, bonds)) == expected


@pytest.mark.parametrize(
    "doc",
    [
        MINIMAL,
        """
        {"vertices": [{"id": 5, "coupling": {"kind": "delta", "gamma": -0.25}},
                      {"id": 9, "coupling": {"kind": "kirchhoff"}}],
         "bonds": [{"from": 5, "to": 9, "length": 0.75, "potential": 0.0}],
         "leads": [{"vertex": 9}]}
        """,
    ],
)
def test_parse_emit_parse_idempotent(doc):
    g1 = qg.parse_graph(doc)
    g2 = qg.parse_graph(qg.emit_graph(g1))
    assert g1 == g2
    assert qg.parse_graph(qg.emit_graph(g2)) == g2


@pytest.mark.parametrize("gamma", [True, False, "1", None], ids=["true", "false", "str", "none"])
def test_delta_gamma_must_be_a_real_number(gamma):
    with pytest.raises(GraphFormatError, match="delta coupling requires a finite real gamma, got"):
        qg.VertexCoupling(CouplingKind.DELTA, gamma)
    with pytest.raises(GraphFormatError, match="delta coupling requires a finite real gamma, got"):
        qg.delta(gamma)


def test_built_graph_round_trips_through_emit_and_parse():
    # integer and numpy values are real numbers: the graph accepts them and
    # emits plain JSON numbers that its own parser reads back
    g = Graph(((0, qg.delta(2)), (1, qg.delta(np.float32(0.5))), (2, qg.KIRCHHOFF)),
              (Bond(0, 1, 3), Bond(1, 2, np.float64(0.75)), Bond(2, 0, np.float32(1.25))), (qg.Lead(2),))
    text = qg.emit_graph(g)
    assert qg.parse_graph(text) == g
    assert qg.emit_graph(qg.parse_graph(text)) == text


_BOOL_ID = "^vertex 0: id must be an integer, got True; bond 0: vertex id must be an integer, got True$"


@pytest.mark.parametrize(
    "vertices,bonds,leads,message",
    [
        # it once built, and parse_graph then refused its emitted document
        (((True, qg.DIRICHLET), (2, qg.DIRICHLET)), (Bond(True, 2, 1.0),), (), _BOOL_ID),
        # it once raised a raw TypeError from the parallel-bond check
        ((("a", qg.DIRICHLET), (2, qg.DIRICHLET)), (Bond("a", 2, 1.0), Bond(2, "a", 1.0)), (),
         "^vertex 0: id must be an integer, got 'a'; bond 0: vertex id must be an integer, got 'a'; "
         "bond 1: vertex id must be an integer, got 'a'$"),
        (_ENDS, (Bond(0, 1.0, 1.0),), (), "^bond 0: vertex id must be an integer, got 1.0$"),
        (_ENDS, (Bond(0, 1, 1.0),), (qg.Lead(None),), "^lead 0: vertex id must be an integer, got None$"),
        (((0, qg.KIRCHHOFF), ([1], qg.DIRICHLET)), (Bond(0, 1, 1.0),), (),
         r"^vertex 1: id must be an integer, got \[1\]$"),
    ],
    ids=["bool", "str-mixed-with-int", "float-bond-end", "none-lead", "unhashable"],
)
def test_vertex_ids_must_be_integers(vertices, bonds, leads, message):
    with pytest.raises(GraphFormatError, match=message):
        Graph(vertices, bonds, leads)


def test_numpy_integer_ids_build_and_round_trip():
    g = Graph(((np.int64(0), qg.KIRCHHOFF), (np.int32(1), qg.DIRICHLET)), (Bond(np.int64(0), np.int32(1), 1.0),),
              (qg.Lead(np.int8(0)),))
    text = qg.emit_graph(g)
    assert qg.parse_graph(text) == g == Graph(((0, qg.KIRCHHOFF), (1, qg.DIRICHLET)), (Bond(0, 1, 1.0),), (qg.Lead(0),))
    assert qg.emit_graph(qg.parse_graph(text)) == text


def test_accepted_documents_build_the_same_graph():
    assert qg.parse_graph(MINIMAL) == Graph(_ENDS, (Bond(0, 1, 1.0),))


def test_graph_is_immutable(interval_graph):
    with pytest.raises(AttributeError):
        interval_graph.bonds = ()


def test_scaled_lengths(interval_graph):
    assert qg.total_length(interval_graph.scaled(2.5)) == 2.5
    with pytest.raises(ValueError):
        interval_graph.scaled(0.0)


@pytest.mark.parametrize(
    "length,factor,message",
    [(1e300, 1e10, "bond 0: non-finite length"), (1e-300, 1e-300, "bond 0: non-positive length")],
    ids=["overflow", "underflow"],
)
def test_scaled_refuses_a_length_out_of_range(length, factor, message):
    g = Graph(_ENDS, (Bond(0, 1, length),))
    with pytest.raises(InputError, match=message):
        g.scaled(factor)


def test_potential_parses_only_as_zero():
    assert qg.parse_graph(MINIMAL.replace('"length": 1.0', '"length": 1.0, "potential": 0')) == qg.parse_graph(MINIMAL)
    with pytest.raises(GraphFormatError, match="bond 0: nonzero potential 0.3"):
        qg.parse_graph(MINIMAL.replace('"length": 1.0', '"length": 1.0, "potential": 0.3'))
