"""Metric-graph data model and the JSON graph-description format.

A graph is a set of vertices joined by bonds of positive length, with an
optional semi-infinite lead attached to any vertex.  Each vertex carries a
coupling condition: ``kirchhoff`` (continuity plus vanishing derivative sum),
``dirichlet`` (wavefunction vanishes), or ``delta`` with a real strength
``gamma`` (derivative sum equals gamma times the vertex value).  Kirchhoff is
exactly delta with gamma = 0; dirichlet is the gamma -> infinity limit and is
kept symbolic so downstream formulas can apply the limit analytically instead
of overflowing.

A :class:`Graph` checks its structure when it is built and raises
:class:`GraphFormatError` naming every violation, so any graph that exists is
valid.  Graphs are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import enum
import json
import math
import numbers
from collections import Counter
from dataclasses import dataclass, field

from .errors import GraphFormatError, InputError, UnsupportedTopologyError


class CouplingKind(enum.Enum):
    KIRCHHOFF = "kirchhoff"
    DIRICHLET = "dirichlet"
    DELTA = "delta"


@dataclass(frozen=True)
class VertexCoupling:
    """Boundary condition at a vertex.

    ``gamma`` (1/length) is meaningful only for ``DELTA``: a finite real number,
    not a bool, kept as a float.  ``DIRICHLET`` is symbolic, never a large float.
    """

    kind: CouplingKind
    gamma: float = 0.0

    def __post_init__(self):
        if self.kind is CouplingKind.DELTA:
            gamma = self.gamma
            if isinstance(gamma, bool) or not isinstance(gamma, numbers.Real) or not math.isfinite(gamma):
                raise GraphFormatError(f"delta coupling requires a finite real gamma, got {self.gamma!r}")
            object.__setattr__(self, "gamma", float(gamma))
        elif self.gamma != 0.0:
            raise GraphFormatError(f"gamma is only valid for delta couplings, not {self.kind.value}")

    @property
    def is_dirichlet(self) -> bool:
        return self.kind is CouplingKind.DIRICHLET

    def effective_gamma(self) -> float:
        """Coupling strength entering the scattering formulas (kirchhoff = 0)."""
        if self.kind is CouplingKind.DIRICHLET:
            raise InputError("dirichlet coupling has no finite gamma; handle symbolically")
        return float(self.gamma) if self.kind is CouplingKind.DELTA else 0.0


KIRCHHOFF = VertexCoupling(CouplingKind.KIRCHHOFF)
DIRICHLET = VertexCoupling(CouplingKind.DIRICHLET)


def delta(gamma: float) -> VertexCoupling:
    return VertexCoupling(CouplingKind.DELTA, gamma)


@dataclass(frozen=True)
class Bond:
    """Bond between two vertices."""

    from_vertex: int
    to_vertex: int
    length: float


@dataclass(frozen=True)
class Lead:
    """Semi-infinite lead attached to a vertex."""

    vertex: int


@dataclass(frozen=True)
class Graph:
    """Vertices with their couplings, bonds and leads.  Construction raises
    :class:`GraphFormatError` naming every violation: a duplicate vertex id,
    a bond end or lead on an unknown vertex, a loop, a parallel bond, a
    length that is not a real number (a bool, a str, None) or is non-finite
    or non-positive, or a vertex without bonds or leads.  A vertex id, bond
    end or lead vertex that is not an integer (a bool, a str, a float; numpy
    integers are integers) is named first, alone: the other checks hash and
    compare ids."""

    vertices: tuple[tuple[int, VertexCoupling], ...]
    bonds: tuple[Bond, ...]
    leads: tuple[Lead, ...] = ()
    _coupling_by_id: dict = field(init=False, repr=False, compare=False, hash=False)
    _valency: Counter = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        diags = _id_violations(self)
        if diags:
            raise GraphFormatError("; ".join(diags))
        object.__setattr__(self, "_coupling_by_id", {vid: c for vid, c in self.vertices})
        ends = [v for b in self.bonds for v in (b.from_vertex, b.to_vertex)]
        object.__setattr__(self, "_valency", Counter(ends + [lead.vertex for lead in self.leads]))
        diags = _violations(self)
        if diags:
            raise GraphFormatError("; ".join(diags))

    def coupling(self, vertex_id: int) -> VertexCoupling:
        return self._coupling_by_id[vertex_id]

    def vertex_ids(self) -> list[int]:
        return [vid for vid, _ in self.vertices]

    def valency(self, vertex_id: int) -> int:
        return self._valency[vertex_id]

    @property
    def is_compact(self) -> bool:
        return not self.leads

    def scaled(self, factor: float) -> "Graph":
        """New graph with every bond length multiplied by a finite ``factor`` > 0;
        a length that overflows or underflows raises :class:`GraphFormatError`."""
        if not 0 < factor < math.inf:
            raise InputError("scale factor must be positive and finite")
        bonds = tuple(Bond(b.from_vertex, b.to_vertex, b.length * factor) for b in self.bonds)
        return Graph(self.vertices, bonds, self.leads)


def total_length(g: Graph) -> float:
    """Sum of all bond lengths."""
    return float(sum(b.length for b in g.bonds))


def _is_id(value) -> bool:
    # the exact-type test first: the ABC check costs about 1 us, on every scaled graph of a sweep
    return type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))


def _id_violations(g: Graph) -> list[str]:
    """One diagnostic per vertex id, bond end or lead vertex that is not an integer."""
    diags = [f"vertex {i}: id must be an integer, got {vid!r}" for i, (vid, _) in enumerate(g.vertices)
             if not _is_id(vid)]
    diags += [f"bond {i}: vertex id must be an integer, got {v!r}" for i, b in enumerate(g.bonds)
              for v in (b.from_vertex, b.to_vertex) if not _is_id(v)]
    diags += [f"lead {i}: vertex id must be an integer, got {lead.vertex!r}" for i, lead in enumerate(g.leads)
              if not _is_id(lead.vertex)]
    return diags


def _violations(g: Graph) -> list[str]:
    """One diagnostic per structural violation, in O(V + B + L)."""
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
        if isinstance(b.length, bool) or not isinstance(b.length, numbers.Real):
            diags.append(f"bond {i}: length must be a real number, got {b.length!r}")
        elif not math.isfinite(b.length):
            diags.append(f"bond {i}: non-finite length")
        elif b.length <= 0:
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


def two_vertex_form(g: Graph) -> tuple[VertexCoupling, float]:
    """(coupling, bond length) of a compact graph of two vertices joined by
    one bond, with the same coupling at both ends.
    """
    if len(g.vertices) != 2 or len(g.bonds) != 1 or g.leads:
        raise UnsupportedTopologyError("only two-vertex graphs (one bond, no leads) are supported")
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
    """Parse a JSON graph description (strict mode).

    Unknown keys, missing fields, unknown coupling kinds, a nonzero bond
    ``potential`` (the magnetic parameter, which no computation supports) and
    structural violations all raise :class:`GraphFormatError`.  Syntax errors
    carry the line/column reported by the JSON parser.
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
        potential = _expect_number(entry.get("potential", 0.0), f"bond {i}: potential")
        if potential != 0.0:
            raise GraphFormatError(f"bond {i}: nonzero potential {potential} is unsupported (set potential = 0)")
        bonds.append(
            Bond(
                _expect_int(entry["from"], f"bond {i}: from"),
                _expect_int(entry["to"], f"bond {i}: to"),
                length,
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

    return Graph(tuple(vertices), tuple(bonds), tuple(leads))


def emit_graph(g: Graph) -> str:
    """Serialize a graph back to the JSON description format."""
    doc: dict = {"vertices": [], "bonds": [], "leads": []}
    for vid, coupling in g.vertices:
        cdoc: dict = {"kind": coupling.kind.value}
        if coupling.kind is CouplingKind.DELTA:
            cdoc["gamma"] = coupling.gamma
        doc["vertices"].append({"id": int(vid), "coupling": cdoc})
    for b in g.bonds:
        doc["bonds"].append({"from": int(b.from_vertex), "to": int(b.to_vertex), "length": float(b.length)})
    for lead in g.leads:
        doc["leads"].append({"vertex": int(lead.vertex)})
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
