import math

import pytest

import qgraph as qg
from qgraph import Bond, CouplingKind, Graph, GraphFormatError

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


def test_validate_valid_interval_is_clean(interval_graph):
    assert qg.validate(interval_graph) == []


def test_validate_unknown_vertex():
    g = Graph(((0, qg.DIRICHLET), (1, qg.DIRICHLET)), (Bond(0, 7, 1.0),))
    assert "bond 0: unknown vertex 7" in qg.validate(g)


def test_validate_rejects_loops():
    g = Graph(((0, qg.DIRICHLET), (1, qg.DIRICHLET)), (Bond(0, 0, 1.0), Bond(0, 1, 1.0)))
    assert "bond 0: loops unsupported" in qg.validate(g)


def test_validate_rejects_multi_edges():
    g = Graph(((0, qg.DIRICHLET), (1, qg.DIRICHLET)), (Bond(0, 1, 1.0), Bond(1, 0, 2.0)))
    diags = qg.validate(g)
    assert any("duplicate of bond 0" in d for d in diags)


def test_validate_isolated_vertex():
    g = Graph(
        ((0, qg.DIRICHLET), (1, qg.DIRICHLET), (2, qg.KIRCHHOFF)),
        (Bond(0, 1, 1.0),),
    )
    assert "vertex 2: isolated (valency 0)" in qg.validate(g)


def test_lead_valency_counts():
    g = Graph(((0, qg.KIRCHHOFF),), (), (qg.Lead(0), qg.Lead(0), qg.Lead(0)))
    assert qg.validate(g) == []
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


def test_accepted_documents_validate_clean():
    g = qg.parse_graph(MINIMAL)
    assert qg.validate(g) == []


def test_graph_is_immutable(interval_graph):
    with pytest.raises(AttributeError):
        interval_graph.bonds = ()


def test_scaled_lengths(interval_graph):
    assert qg.total_length(interval_graph.scaled(2.5)) == 2.5
    with pytest.raises(ValueError):
        interval_graph.scaled(0.0)


def test_nonzero_potential_rejected_by_computations():
    g = Graph(((0, qg.DIRICHLET), (1, qg.DIRICHLET)), (Bond(0, 1, 1.0, potential=0.3),))
    with pytest.raises(GraphFormatError, match="potential"):
        qg.find_eigenvalues(g, 5.0)
