"""Metric-graph data model and the JSON graph-description format.

A graph is a set of vertices joined by bonds of positive length, with an
optional semi-infinite lead attached to any vertex.  Each vertex carries a
coupling condition: ``kirchhoff`` (continuity plus vanishing derivative sum),
``dirichlet`` (wavefunction vanishes), or ``delta`` with a real strength
``gamma`` (derivative sum equals gamma times the vertex value).  Kirchhoff is
exactly delta with gamma = 0; dirichlet is the gamma -> infinity limit and is
kept symbolic so downstream formulas can apply the limit analytically instead
of overflowing.

Graphs are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

from .errors import GraphFormatError, UnsupportedTopologyError


class CouplingKind(enum.Enum):
    KIRCHHOFF = "kirchhoff"
    DIRICHLET = "dirichlet"
    DELTA = "delta"


@dataclass(frozen=True)
class VertexCoupling:
    """Boundary condition at a vertex.

    ``gamma`` is meaningful only for ``DELTA`` (dimension 1/length) and must
    be finite; ``DIRICHLET`` is a symbolic case, never a large float.
    """

    kind: CouplingKind
    gamma: float = 0.0

    def __post_init__(self):
        if self.kind is CouplingKind.DELTA:
            g = float(self.gamma)
            if g != g or g in (float("inf"), float("-inf")):
                raise GraphFormatError("delta coupling requires a finite real gamma")
        elif self.gamma != 0.0:
            raise GraphFormatError(f"gamma is only valid for delta couplings, not {self.kind.value}")

    @property
    def is_dirichlet(self) -> bool:
        return self.kind is CouplingKind.DIRICHLET

    def effective_gamma(self) -> float:
        """Coupling strength entering the scattering formulas (kirchhoff = 0)."""
        if self.kind is CouplingKind.DIRICHLET:
            raise ValueError("dirichlet coupling has no finite gamma; handle symbolically")
        return float(self.gamma) if self.kind is CouplingKind.DELTA else 0.0


KIRCHHOFF = VertexCoupling(CouplingKind.KIRCHHOFF)
DIRICHLET = VertexCoupling(CouplingKind.DIRICHLET)


def delta(gamma: float) -> VertexCoupling:
    return VertexCoupling(CouplingKind.DELTA, float(gamma))


@dataclass(frozen=True)
class Bond:
    """Bond between two vertices; ``potential`` is the stored magnetic
    parameter A_b, which every shipped computation requires to be zero."""

    from_vertex: int
    to_vertex: int
    length: float
    potential: float = 0.0


@dataclass(frozen=True)
class Lead:
    """Semi-infinite lead attached to a vertex."""

    vertex: int


@dataclass(frozen=True)
class Graph:
    vertices: tuple[tuple[int, VertexCoupling], ...]
    bonds: tuple[Bond, ...]
    leads: tuple[Lead, ...] = ()
    _coupling_by_id: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "_coupling_by_id", {vid: c for vid, c in self.vertices})

    def coupling(self, vertex_id: int) -> VertexCoupling:
        return self._coupling_by_id[vertex_id]

    def vertex_ids(self) -> list[int]:
        return [vid for vid, _ in self.vertices]

    def valency(self, vertex_id: int) -> int:
        n = sum(1 for b in self.bonds if vertex_id in (b.from_vertex, b.to_vertex))
        n += sum(1 for lead in self.leads if lead.vertex == vertex_id)
        return n

    @property
    def is_compact(self) -> bool:
        return not self.leads

    def scaled(self, factor: float) -> "Graph":
        """New graph with every bond length multiplied by ``factor`` > 0."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        bonds = tuple(
            Bond(b.from_vertex, b.to_vertex, b.length * factor, b.potential) for b in self.bonds
        )
        return Graph(self.vertices, bonds, self.leads)


def total_length(g: Graph) -> float:
    """Sum of all bond lengths."""
    return float(sum(b.length for b in g.bonds))


def validate(g: Graph) -> list[str]:
    """Check all structural invariants; returns one diagnostic per violation.

    An empty list means the graph is valid.
    """
    diags: list[str] = []
    ids = [vid for vid, _ in g.vertices]
    known = set(ids)
    if len(known) != len(ids):
        seen: set[int] = set()
        for vid in ids:
            if vid in seen:
                diags.append(f"vertex {vid}: duplicate id")
            seen.add(vid)

    pairs: dict[tuple[int, int], int] = {}
    for i, b in enumerate(g.bonds):
        for endpoint in (b.from_vertex, b.to_vertex):
            if endpoint not in known:
                diags.append(f"bond {i}: unknown vertex {endpoint}")
        if b.from_vertex == b.to_vertex:
            diags.append(f"bond {i}: loops unsupported")
        if b.length <= 0:
            diags.append(f"bond {i}: non-positive length")
        key = (min(b.from_vertex, b.to_vertex), max(b.from_vertex, b.to_vertex))
        if b.from_vertex != b.to_vertex and key in pairs:
            diags.append(f"bond {i}: duplicate of bond {pairs[key]} (multi-edges unsupported)")
        else:
            pairs.setdefault(key, i)

    for i, lead in enumerate(g.leads):
        if lead.vertex not in known:
            diags.append(f"lead {i}: unknown vertex {lead.vertex}")

    for vid in ids:
        if g.valency(vid) == 0:
            diags.append(f"vertex {vid}: isolated (valency 0)")

    return diags


def require_zero_potential(g: Graph) -> None:
    """All shipped computations are derived for A_b = 0; reject anything else."""
    for i, b in enumerate(g.bonds):
        if b.potential != 0.0:
            raise GraphFormatError(
                f"bond {i}: nonzero potential {b.potential} is stored but unsupported "
                "by the shipped computations (set potential = 0)"
            )


def two_vertex_form(g: Graph) -> tuple[VertexCoupling, float]:
    """(coupling, bond length) of a valid compact graph of two vertices joined
    by one bond, with the same coupling at both ends.
    """
    diags = validate(g)
    if diags:
        raise UnsupportedTopologyError("invalid graph: " + "; ".join(diags))
    if len(g.vertices) != 2 or len(g.bonds) != 1 or g.leads:
        raise UnsupportedTopologyError("only two-vertex graphs (one bond, no leads) are supported")
    require_zero_potential(g)
    c0 = g.coupling(g.vertices[0][0])
    if c0 != g.coupling(g.vertices[1][0]):
        raise UnsupportedTopologyError("two-vertex form requires identical couplings at both vertices")
    return c0, g.bonds[0].length


_COUPLING_KEYS = {"kind", "gamma"}
_VERTEX_KEYS = {"id", "coupling"}
_BOND_KEYS = {"from", "to", "length", "potential"}
_LEAD_KEYS = {"vertex"}
_TOP_KEYS = {"vertices", "bonds", "leads"}


def parse_graph(text: str) -> Graph:
    """Parse and validate a JSON graph description (strict mode).

    Unknown keys, missing fields, unknown coupling kinds, and structural
    violations all raise :class:`GraphFormatError`.  Syntax errors carry the
    line/column reported by the JSON parser.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc

    if not isinstance(doc, dict):
        raise GraphFormatError("top-level document must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "document")
    for required in ("vertices", "bonds"):
        if required not in doc:
            raise GraphFormatError(f"missing field '{required}'")

    vertices = []
    for i, entry in enumerate(_expect_list(doc["vertices"], "vertices")):
        if not isinstance(entry, dict):
            raise GraphFormatError(f"vertex {i}: must be an object")
        _reject_unknown(entry, _VERTEX_KEYS, f"vertex {i}")
        vid = _expect_int(entry.get("id"), f"vertex {i}: id")
        coupling_doc = entry.get("coupling")
        if not isinstance(coupling_doc, dict):
            raise GraphFormatError(f"vertex {i}: missing field 'coupling'")
        _reject_unknown(coupling_doc, _COUPLING_KEYS, f"vertex {i} coupling")
        kind_raw = coupling_doc.get("kind")
        if kind_raw is None:
            raise GraphFormatError(f"vertex {i}: missing field 'coupling.kind'")
        try:
            kind = CouplingKind(kind_raw)
        except ValueError:
            raise GraphFormatError(f"vertex {i}: unknown coupling kind {kind_raw!r}") from None
        if kind is CouplingKind.DELTA:
            if "gamma" not in coupling_doc:
                raise GraphFormatError(f"vertex {i}: delta coupling requires 'gamma'")
            gamma = _expect_number(coupling_doc["gamma"], f"vertex {i}: gamma")
            coupling = VertexCoupling(kind, gamma)
        else:
            if "gamma" in coupling_doc:
                raise GraphFormatError(f"vertex {i}: 'gamma' is only valid for delta couplings")
            coupling = VertexCoupling(kind)
        vertices.append((vid, coupling))

    bonds = []
    for i, entry in enumerate(_expect_list(doc["bonds"], "bonds")):
        if not isinstance(entry, dict):
            raise GraphFormatError(f"bond {i}: must be an object")
        _reject_unknown(entry, _BOND_KEYS, f"bond {i}")
        for required in ("from", "to", "length"):
            if required not in entry:
                raise GraphFormatError(f"bond {i}: missing field '{required}'")
        length = _expect_number(entry["length"], f"bond {i}: length")
        if length <= 0:
            raise GraphFormatError(f"bond {i}: non-positive length")
        potential = _expect_number(entry.get("potential", 0.0), f"bond {i}: potential")
        bonds.append(
            Bond(
                _expect_int(entry["from"], f"bond {i}: from"),
                _expect_int(entry["to"], f"bond {i}: to"),
                length,
                potential,
            )
        )

    leads = []
    for i, entry in enumerate(_expect_list(doc.get("leads", []), "leads")):
        if not isinstance(entry, dict):
            raise GraphFormatError(f"lead {i}: must be an object")
        _reject_unknown(entry, _LEAD_KEYS, f"lead {i}")
        if "vertex" not in entry:
            raise GraphFormatError(f"lead {i}: missing field 'vertex'")
        leads.append(Lead(_expect_int(entry["vertex"], f"lead {i}: vertex")))

    graph = Graph(tuple(vertices), tuple(bonds), tuple(leads))
    diags = validate(graph)
    if diags:
        raise GraphFormatError("; ".join(diags))
    return graph


def emit_graph(g: Graph) -> str:
    """Serialize a graph back to the JSON description format."""
    doc: dict = {"vertices": [], "bonds": [], "leads": []}
    for vid, coupling in g.vertices:
        cdoc: dict = {"kind": coupling.kind.value}
        if coupling.kind is CouplingKind.DELTA:
            cdoc["gamma"] = coupling.gamma
        doc["vertices"].append({"id": vid, "coupling": cdoc})
    for b in g.bonds:
        bdoc = {"from": b.from_vertex, "to": b.to_vertex, "length": b.length}
        if b.potential != 0.0:
            bdoc["potential"] = b.potential
        doc["bonds"].append(bdoc)
    for lead in g.leads:
        doc["leads"].append({"vertex": lead.vertex})
    return json.dumps(doc, indent=2)


def _reject_unknown(entry: dict, allowed: set, where: str) -> None:
    unknown = set(entry) - allowed
    if unknown:
        raise GraphFormatError(f"{where}: unknown key(s) {sorted(unknown)}")


def _expect_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise GraphFormatError(f"'{where}' must be a list")
    return value


def _expect_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise GraphFormatError(f"{where} must be an integer")
    return value


def _expect_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise GraphFormatError(f"{where} must be a number")
    return float(value)
