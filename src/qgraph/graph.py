"""Metric-graph data model and the JSON graph-description format.

A graph is a set of vertices joined by bonds of positive length, with an
optional semi-infinite lead attached to any vertex.  Each vertex carries a
coupling condition: ``kirchhoff`` (continuity plus vanishing derivative sum),
``dirichlet`` (wavefunction vanishes), or ``delta`` with a real strength
``gamma`` (derivative sum equals gamma times the vertex value).  Kirchhoff is
exactly delta with gamma = 0; dirichlet is the gamma -> infinity limit and is
kept symbolic so downstream formulas can apply the limit analytically instead
of overflowing.

Lengths, gammas and the library's numeric arguments are checked and converted
here only, to Python numbers (one beyond the doubles is an infinity, refused).  A
:class:`Graph` checks its structure when it is built and raises
:class:`GraphFormatError` naming every violation, so any graph that exists
is valid.  Graphs are immutable after construction and safe to share.
"""

from __future__ import annotations

import cmath
import enum
import json
import math
import numbers
from collections import Counter
from dataclasses import dataclass, field, replace

from .errors import GraphFormatError, InputError, UnsupportedTopologyError


class CouplingKind(enum.Enum):
    KIRCHHOFF = "kirchhoff"
    DIRICHLET = "dirichlet"
    DELTA = "delta"


def _to_float(value) -> float | None:
    """``value`` as a Python float, an infinity if it is beyond the double range,
    or None if it is a bool or not a real number."""
    if type(value) is float:  # a sweep converts each scale: this skips a 0.7 us ABC check
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _argument(value, name: str, low: float = -math.inf, high: float = math.inf, *, positive: bool = False,
              real: bool = True):
    """``value`` as a Python float, or a complex if not ``real``, if it is a finite
    number (not a bool, a str or None) and, if real, in [low, high] and > 0 if
    ``positive``; otherwise an :class:`InputError` naming ``name``."""
    number = _to_float(value) if real else None
    if not real and isinstance(value, numbers.Complex) and not isinstance(value, bool):
        number = complex(_to_float(value.real), _to_float(value.imag))
    if number is not None and cmath.isfinite(number) and (not real or low <= number <= high and
                                                          (number > 0 or not positive)):
        return number
    what = ("be positive and finite" if positive else f"lie in [{low:g}, {high}]" if high < math.inf
            else f"be >= {low:g} and finite" if low > -math.inf else f"be a finite {'real ' * real}number")
    raise InputError(f"{name} must {what}")


def _integer(value, name: str, low: int, high: float = math.inf) -> int:
    """``value`` as a Python int if it is an integer (not a bool) in [low, high]
    and within the doubles; otherwise an :class:`InputError` naming ``name``."""
    if _is_id(value) and low <= value <= high and _to_float(value) < math.inf:
        return int(value)
    raise InputError(f"{name} must be an integer in [{low}, {high}]" if high < math.inf
                     else f"{name} must be a finite integer >= {low}")


@dataclass(frozen=True)
class VertexCoupling:
    """Boundary condition at a vertex.

    ``gamma`` (1/length) is meaningful only for ``DELTA``: a finite real number,
    not a bool, stored as a Python float; 0.0 otherwise.  ``DIRICHLET`` is
    symbolic, never a large float.
    """

    kind: CouplingKind
    gamma: float = 0.0

    def __post_init__(self):
        gamma = _to_float(self.gamma)
        if self.kind is not CouplingKind.DELTA and gamma != 0.0:
            raise GraphFormatError(f"gamma is only valid for delta couplings, not {self.kind.value}")
        if gamma is None or not math.isfinite(gamma):  # only a delta coupling gets here with such a gamma
            shown = self.gamma if gamma is None else gamma  # the repr of an int past 4300 digits raises
            raise GraphFormatError(f"delta coupling requires a finite real gamma, got {shown!r}")
        object.__setattr__(self, "gamma", gamma)

    @property
    def is_dirichlet(self) -> bool:
        return self.kind is CouplingKind.DIRICHLET


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
    :class:`GraphFormatError` naming every violation: an id that is not an
    integer (a bool, a str, a float; numpy integers are integers), then, once
    all are, a duplicate vertex id, a bond end or lead on an unknown vertex,
    a loop, a parallel bond or a vertex without bonds or leads; and a length
    that is not a real number (a bool, a str, None) or is non-finite or
    non-positive.  ``bonds`` holds the lengths as Python floats; ids are kept
    as given."""

    vertices: tuple[tuple[int, VertexCoupling], ...]
    bonds: tuple[Bond, ...]
    leads: tuple[Lead, ...] = ()
    _coupling_by_id: dict = field(init=False, repr=False, compare=False, hash=False)
    _valency: Counter = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        lengths = [_to_float(b.length) for b in self.bonds]
        diags = _id_violations(self)
        if not diags:
            object.__setattr__(self, "_coupling_by_id", {vid: c for vid, c in self.vertices})
            ends = [v for b in self.bonds for v in (b.from_vertex, b.to_vertex)]
            object.__setattr__(self, "_valency", Counter(ends + [lead.vertex for lead in self.leads]))
            diags = _violations(self)
        diags += _length_violations(self.bonds, lengths)
        if diags:
            raise GraphFormatError("; ".join(diags))
        object.__setattr__(self, "bonds", tuple(replace(b, length=ell) for b, ell in zip(self.bonds, lengths)))

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
        """New graph with every bond length multiplied by a real ``factor`` in
        (0, inf); a length that overflows or underflows raises :class:`GraphFormatError`."""
        factor = _argument(factor, "scale factor", positive=True)
        bonds = tuple(Bond(b.from_vertex, b.to_vertex, b.length * factor) for b in self.bonds)
        return Graph(self.vertices, bonds, self.leads)


def total_length(g: Graph) -> float:
    """Sum of all bond lengths."""
    return float(sum(b.length for b in g.bonds))


def _is_id(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
    """One diagnostic per structural violation of a graph whose ids are all
    integers, in O(V + B + L)."""
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


def _length_violations(bonds, lengths: list[float | None]) -> list[str]:
    """One diagnostic per bond whose length, converted by ``_to_float``, is not in (0, inf)."""
    return [f"bond {i}: length must be a real number, got {b.length!r}" if ell is None
            else f"bond {i}: {'non-finite' if not math.isfinite(ell) else 'non-positive'} length"
            for i, (b, ell) in enumerate(zip(bonds, lengths)) if ell is None or not 0 < ell < math.inf]


def two_vertex_form(g: Graph) -> tuple[VertexCoupling, float]:
    """(coupling, bond length) of a compact graph of two vertices joined by
    one bond, with the same vertex physics at both ends: both Dirichlet, or
    both delta with one gamma (Kirchhoff is delta(0)).
    """
    if len(g.vertices) != 2 or len(g.bonds) != 1 or g.leads:
        raise UnsupportedTopologyError("only two-vertex graphs (one bond, no leads) are supported")
    (_, c0), (_, c1) = g.vertices
    if (c0.is_dirichlet, c0.gamma) != (c1.is_dirichlet, c1.gamma):
        raise UnsupportedTopologyError("two-vertex form requires identical couplings at both vertices")
    return c0, g.bonds[0].length


def parse_graph(text: str) -> Graph:
    """Parse a JSON graph description (strict mode).

    Unknown keys, missing fields, unknown coupling kinds, a nonzero bond
    ``potential`` (the magnetic parameter, which no computation supports) and
    what :class:`Graph` refuses (ids, lengths, structure) raise
    :class:`GraphFormatError`, and so does a ``text`` that is not a str (bytes
    included).  Syntax errors carry the JSON parser's line/column.
    """
    if not isinstance(text, str):
        raise GraphFormatError(f"a graph description is a str, not {type(text).__name__}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal longer than Python converts
        raise GraphFormatError(f"unreadable number: {exc}") from exc

    if not isinstance(doc, dict):
        raise GraphFormatError("top-level document must be a JSON object")
    _reject_unknown(doc, {"vertices", "bonds", "leads"}, "document")
    for required in ("vertices", "bonds"):
        if required not in doc:
            raise GraphFormatError(f"missing field '{required}'")

    vertices = []
    for i, entry in _section(doc, "vertices", "vertex", {"id", "coupling"}):
        coupling_doc = entry.get("coupling")
        if not isinstance(coupling_doc, dict):
            raise GraphFormatError(f"vertex {i}: missing field 'coupling'")
        _reject_unknown(coupling_doc, {"kind", "gamma"}, f"vertex {i} coupling")
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
            try:
                coupling = VertexCoupling(kind, gamma)
            except GraphFormatError as exc:
                raise GraphFormatError(f"vertex {i}: {exc}") from None
        else:
            if "gamma" in coupling_doc:
                raise GraphFormatError(f"vertex {i}: 'gamma' is only valid for delta couplings")
            coupling = VertexCoupling(kind)
        vertices.append((entry.get("id"), coupling))

    bonds = []
    for i, entry in _section(doc, "bonds", "bond", {"from", "to", "length", "potential"}, ("from", "to", "length")):
        potential = _expect_number(entry.get("potential", 0.0), f"bond {i}: potential")
        if potential != 0.0:
            raise GraphFormatError(f"bond {i}: nonzero potential {potential} is unsupported (set potential = 0)")
        bonds.append(Bond(entry["from"], entry["to"], entry["length"]))

    leads = [Lead(entry["vertex"]) for _, entry in _section(doc, "leads", "lead", {"vertex"}, ("vertex",))]
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
        doc["bonds"].append({"from": int(b.from_vertex), "to": int(b.to_vertex), "length": b.length})
    for lead in g.leads:
        doc["leads"].append({"vertex": int(lead.vertex)})
    return json.dumps(doc, indent=2)


def _reject_unknown(entry: dict, allowed: set, where: str) -> None:
    unknown = set(entry) - allowed
    if unknown:
        raise GraphFormatError(f"{where}: unknown key(s) {sorted(unknown)}")


def _section(doc: dict, name: str, what: str, keys: set, required: tuple = ()):
    """(index, entry) for each entry of the list ``doc[name]`` (none if absent),
    once it is an object with no key outside ``keys`` and every ``required``
    one; ``what`` names an entry in the errors."""
    entries = doc.get(name, [])
    if not isinstance(entries, list):
        raise GraphFormatError(f"'{name}' must be a list")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise GraphFormatError(f"{what} {i}: must be an object")
        _reject_unknown(entry, keys, f"{what} {i}")
        for field_name in required:
            if field_name not in entry:
                raise GraphFormatError(f"{what} {i}: missing field '{field_name}'")
        yield i, entry


def _expect_number(value, where: str) -> float:
    if (number := _to_float(value)) is None:
        raise GraphFormatError(f"{where} must be a number")
    return number
