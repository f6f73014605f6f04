"""Seeded inputs and fixed job lists of the three workloads.

Each workload is a fixed list of ``qgraph`` command lines.  The seed only
chooses the graphs; it never changes how much work a job list does, so that
runs with different seeds are comparable:

* ``star-modesum`` uses pairs of arm lengths 0.5 + d and 0.5 - d, so the
  summed spectrum size (proportional to the arm length at the fixed default
  k_max) does not depend on d; d stays within 5% of 0.1 because the longest
  4-star sets the peak memory.
* ``random-spectrum`` rescales the random bond lengths to a total length of
  B, so the scan grid (8 L k_max / pi points) is the same for every seed.
* ``green-sweep`` draws the base bond length within 2% of 1; the Green
  route's cost is scale-free for Dirichlet and Kirchhoff ends but not for
  delta couplings, where it depends on gamma * l.

``known_defect`` names, per job, a failure the code had when this benchmark
was written, by a text its failure reason contains.  Such a failure still
counts in ``pass_frac`` and in the ``failed`` count; the label only keeps it
from marking the run incorrect.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

#: A seed never used while tuning; confirm a claimed gain on it too.
HELD_OUT_SEED = 20071707

STAR_ARM = 0.5
STAR_SPLIT = (0.095, 0.105)
RANDOM_BONDS = (8, 10, 12, 24, 32)
RANDOM_KMAX = 30.0
GREEN_COUPLINGS = (
    ("dirichlet", None),
    ("kirchhoff", 0.0),
    ("delta-0.5", 0.5),
    ("delta-3", 3.0),
)
GREEN_SCALES = (0.5, 2.0, 500)



@dataclass(frozen=True)
class Defect:
    signature: str  # text the failure reason contains
    reason: str


_STAR_DEFECT = Defect(
    "Weyl audit failed",
    "odd multiplicity N-1 = 3: sign-change bracketing returns the triple root "
    "once, and the Weyl audit then rejects the spectrum",
)
_RESIDUAL_DEFECT = Defect(
    "secular residual",
    "the absolute secular residual |det(I - S D)| is not scale-free: it exceeds "
    "tol = 1e-10 at 24 and 32 bonds, and at 12 bonds for a few seeds",
)
_DELTA_DEFECT = Defect(
    "E - E_logdet drifts",
    "delta couplings carry an l-independent log(tau) divergence the tau fit "
    "cannot represent, so the energy drifts against the log-det reference",
)


@dataclass
class Job:
    """One ``qgraph`` invocation and what its oracle needs to know."""

    name: str
    kind: str  # "star-casimir", "spectrum" or "green-sweep"
    doc: dict
    argv: list[str]
    graph_path: Path
    output_path: Path
    params: dict = field(default_factory=dict)
    known_defect: Defect | None = None


def _vertex(vid: int, kind: str, gamma: float | None = None) -> dict:
    coupling: dict = {"kind": kind}
    if gamma is not None:
        coupling["gamma"] = gamma
    return {"id": vid, "coupling": coupling}


def star_graph(n_arms: int, ell: float) -> dict:
    """Equal-arm star: Kirchhoff centre 0, Dirichlet tips 1..N."""
    return {
        "vertices": [_vertex(0, "kirchhoff")] + [_vertex(i, "dirichlet") for i in range(1, n_arms + 1)],
        "bonds": [{"from": 0, "to": i, "length": ell} for i in range(1, n_arms + 1)],
    }


def random_delta_graph(rng: random.Random, n_bonds: int) -> dict:
    """Connected simple graph, B/2 + 1 vertices, delta couplings gamma in [0.5, 3].

    Lengths are drawn from [0.5, 1.5] and rescaled to a total length of B.
    """
    n_vertices = n_bonds // 2 + 1
    order = list(range(n_vertices))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n_vertices):  # random spanning tree keeps the graph connected
        a, b = order[i], order[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    while len(edges) < n_bonds:
        a, b = rng.sample(range(n_vertices), 2)
        edges.add((min(a, b), max(a, b)))
    lengths = [rng.uniform(0.5, 1.5) for _ in edges]
    scale = n_bonds / sum(lengths)
    return {
        "vertices": [_vertex(v, "delta", rng.uniform(0.5, 3.0)) for v in range(n_vertices)],
        "bonds": [
            {"from": a, "to": b, "length": length * scale}
            for (a, b), length in zip(sorted(edges), lengths)
        ],
    }


def two_vertex_graph(kind: str, gamma: float | None, ell: float) -> dict:
    vertex_kind = "delta" if kind.startswith("delta") else kind
    g = gamma if vertex_kind == "delta" else None
    return {
        "vertices": [_vertex(0, vertex_kind, g), _vertex(1, vertex_kind, g)],
        "bonds": [{"from": 0, "to": 1, "length": ell}],
    }


def _star_jobs(rng: random.Random) -> list[tuple]:
    jobs = []
    for n_arms in (3, 4):
        split = rng.uniform(*STAR_SPLIT)
        for tag, ell in (("a", STAR_ARM + split), ("b", STAR_ARM - split)):
            jobs.append((
                f"star{n_arms}-{tag}",
                "star-casimir",
                star_graph(n_arms, ell),
                ["casimir", "--method", "modesum"],
                {"n_arms": n_arms, "ell": ell},
                _STAR_DEFECT if n_arms == 4 else None,
            ))
    return jobs


def _random_jobs(rng: random.Random) -> list[tuple]:
    return [
        (
            f"delta-B{n}",
            "spectrum",
            random_delta_graph(rng, n),
            ["spectrum", "--kmax", repr(RANDOM_KMAX)],
            {"k_max": RANDOM_KMAX},
            _RESIDUAL_DEFECT,
        )
        for n in RANDOM_BONDS
    ]


def _green_jobs(rng: random.Random) -> list[tuple]:
    ell = rng.uniform(0.98, 1.02)
    lo, hi, steps = GREEN_SCALES
    return [
        (
            f"sweep-{kind}",
            "green-sweep",
            two_vertex_graph(kind, gamma, ell),
            ["sweep", "--method", "green", "--from", repr(lo), "--to", repr(hi), "--steps", str(steps)],
            {"gamma": gamma, "ell": ell, "from": lo, "to": hi, "steps": steps},
            _DELTA_DEFECT if kind.startswith("delta") else None,
        )
        for kind, gamma in GREEN_COUPLINGS
    ]


WORKLOADS = {
    "star-modesum": _star_jobs,
    "random-spectrum": _random_jobs,
    "green-sweep": _green_jobs,
}


def build(workload: str, seed: int, workdir: Path) -> list[Job]:
    """Write the workload's graph files under ``workdir`` and return its jobs."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    for name, kind, doc, command, params, defect in WORKLOADS[workload](rng):
        graph_path = workdir / f"{name}.json"
        output_path = workdir / (f"{name}.csv" if kind == "green-sweep" else f"{name}.out.json")
        graph_path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
        argv = [command[0], "--graph", str(graph_path), *command[1:], "--output", str(output_path)]
        jobs.append(Job(name, kind, doc, argv, graph_path, output_path, params, defect))
    return jobs
