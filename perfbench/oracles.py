"""Reference answers computed without qgraph.

Every check here is built from the graph description alone (plain dicts, as
written to the job's input file) with numpy/scipy, so a defect in qgraph
cannot also hide in its oracle.

Vertex-matching form.  On a bond (u, w) of length l the solution with vertex
values phi_u, phi_w is [phi_u sin(k(l - x)) + phi_w sin(kx)] / sin(kl).  The
vertex condition "sum of outgoing derivatives = gamma * value" (Kirchhoff is
gamma = 0; Dirichlet vertices carry phi = 0 and drop out) becomes
A(k) phi = 0 with the real symmetric matrix

    A_uu = -sum_{b at u} k cot(k l_b) - gamma_u,   A_uw = sum_{b=(u,w)} k csc(k l_b).

Away from the bond Dirichlet values k l_b = n pi, k is an eigenvalue exactly
when A(k) is singular, and the number of eigenvalues below k is

    N(k) = sum_b floor(k l_b / pi) + (number of positive eigenvalues of A(k)),

the Dirichlet count plus the Morse index of the Dirichlet-to-Neumann form
(Friedlander's counting identity for quantum graphs).  A(k) has poles at
k l_b = n pi, so whether a returned k is a root is judged instead on the
bounded amplitude system of :func:`amplitude_matrix`.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np
from scipy.integrate import quad

#: sigma_min / sigma_max of the amplitude matrix at a returned root must be below this.
ROOT_SIGMA_RATIO = 1e-8
#: relative tolerance of energies against closed forms / the log-det reference.
ENERGY_RTOL = 1e-7


def _couplings(doc: dict) -> dict[int, tuple[str, float]]:
    out = {}
    for v in doc["vertices"]:
        c = v["coupling"]
        out[v["id"]] = (c["kind"], float(c.get("gamma", 0.0)))
    return out


def matching_matrix(doc: dict, k: float) -> np.ndarray:
    """A(k)/k on the non-Dirichlet vertices (see module docstring)."""
    couplings = _couplings(doc)
    free = [vid for vid, (kind, _) in couplings.items() if kind != "dirichlet"]
    index = {vid: i for i, vid in enumerate(free)}
    a = np.zeros((len(free), len(free)))
    for vid in free:
        a[index[vid], index[vid]] -= couplings[vid][1] / k
    for b in doc["bonds"]:
        kl = k * b["length"]
        cot, csc = math.cos(kl) / math.sin(kl), 1.0 / math.sin(kl)
        u, w = b["from"], b["to"]
        for end in (u, w):
            if end in index:
                a[index[end], index[end]] -= cot
        if u in index and w in index:
            a[index[u], index[w]] += csc
            a[index[w], index[u]] += csc
    return a


def exact_count(doc: dict, k: float) -> int:
    """Number of eigenvalues (with multiplicity) strictly below k."""
    dirichlet = sum(math.floor(k * b["length"] / math.pi) for b in doc["bonds"])
    a = matching_matrix(doc, k)
    if a.size == 0:
        return dirichlet
    return dirichlet + int(np.sum(np.linalg.eigvalsh(a) > 0.0))


def amplitude_matrix(doc: dict, k: float) -> np.ndarray:
    """Pole-free matching system for psi_b(x) = a_b cos kx + c_b sin kx.

    Unknowns are (a_b, c_b) per bond and phi_v per non-Dirichlet vertex;
    rows are continuity at both ends of every bond and the derivative
    condition (divided by k) at every non-Dirichlet vertex.  Every entry is
    bounded by max(1, gamma/k), so sigma_min/sigma_max is a scale-free
    singularity measure that stays meaningful at k l_b = n pi.
    """
    couplings = _couplings(doc)
    free = [vid for vid, (kind, _) in couplings.items() if kind != "dirichlet"]
    nb = len(doc["bonds"])
    phi = {vid: 2 * nb + i for i, vid in enumerate(free)}
    deriv_row = {vid: 2 * nb + i for i, vid in enumerate(free)}
    m = np.zeros((2 * nb + len(free), 2 * nb + len(free)))
    for i, b in enumerate(doc["bonds"]):
        a, c = 2 * i, 2 * i + 1
        kl = k * b["length"]
        cos, sin = math.cos(kl), math.sin(kl)
        u, w = b["from"], b["to"]
        m[a, a] = 1.0
        m[c, a], m[c, c] = cos, sin
        if u in phi:
            m[a, phi[u]] = -1.0
            m[deriv_row[u], c] += 1.0
        if w in phi:
            m[c, phi[w]] = -1.0
            m[deriv_row[w], a] += sin
            m[deriv_row[w], c] -= cos
    for vid in free:
        m[deriv_row[vid], phi[vid]] -= couplings[vid][1] / k
    return m


def root_sigma_ratio(doc: dict, k: float) -> float:
    """sigma_min / sigma_max of the amplitude matrix at k; ~1e-15 at a root."""
    sv = np.linalg.svd(amplitude_matrix(doc, k), compute_uv=False)
    return float(sv[-1] / sv[0])


def weyl_bound_ok(doc: dict, k_max: float, count: int) -> bool:
    """|count - L k_max / pi| <= V + B, the audit bound qgraph documents."""
    total = sum(b["length"] for b in doc["bonds"])
    return abs(count - total * k_max / math.pi) <= len(doc["vertices"]) + len(doc["bonds"])


def check_spectrum(doc: dict, k_max: float, eigenvalues: list[float]) -> str:
    """Empty string if the returned spectrum passes every oracle, else why not."""
    eigs = [float(x) for x in eigenvalues]
    if not all(math.isfinite(x) for x in eigs):
        return "non-finite eigenvalue"
    if any(b < a for a, b in zip(eigs, eigs[1:])):
        return "eigenvalues not sorted"
    if eigs and not (0.0 < eigs[0] and eigs[-1] <= k_max * (1 + 1e-12)):
        return "eigenvalue outside (0, k_max]"
    if not weyl_bound_ok(doc, k_max, len(eigs)):
        return f"count {len(eigs)} outside the Weyl V+B bound"
    worst = max((root_sigma_ratio(doc, k) for k in eigs), default=0.0)
    if worst > ROOT_SIGMA_RATIO:
        return f"sigma_min/sigma_max {worst:.2e} at a returned root"
    return ""


def star_energy(n_arms: int, ell: float) -> float:
    """Casimir energy of the equal star, Kirchhoff centre and Dirichlet tips.

    Spectrum n pi/ell (multiplicity N-1) plus (n+1/2) pi/ell, so the
    zeta-regularized energy is (N-1)(-pi/(24 ell)) + pi/(48 ell).
    """
    return -(2 * n_arms - 3) * math.pi / (48.0 * ell)


def logdet_energy(gamma: float | None, ell: float) -> float:
    """(1/2 pi) int_0^inf log(1 - r(i kappa)^2 e^{-2 kappa ell}) d kappa.

    r = (kappa - gamma)/(kappa + gamma) is the single-edge reflection on the
    imaginary axis; ``gamma=None`` is Dirichlet (r = -1).  For r^2 = 1 the
    integral is -pi/(24 ell) in closed form.
    """
    if gamma is None or gamma == 0.0:
        return -math.pi / (24.0 * ell)

    def integrand(kappa: float) -> float:
        r = (kappa - gamma) / (kappa + gamma)
        return math.log1p(-r * r * math.exp(-2.0 * kappa * ell))

    value, _ = quad(integrand, 0.0, math.inf, epsabs=1e-15, epsrel=1e-12, limit=200)
    return value / (2.0 * math.pi)


def verify(kind: str, doc: dict, params: dict, text: str) -> str:
    """Check one job's output file; empty string if it passes."""
    if kind == "star-casimir":
        energy = float(json.loads(text)["results"][0]["energy"])
        expected = star_energy(params["n_arms"], params["ell"])
        if not abs(energy - expected) <= ENERGY_RTOL * abs(expected):
            return f"energy {energy!r} vs closed form {expected!r}"
        return ""
    if kind == "spectrum":
        return check_spectrum(doc, params["k_max"], json.loads(text)["eigenvalues"])
    if kind == "green-sweep":
        return _check_sweep(params, text)
    raise RuntimeError(f"unknown job kind {kind!r}")


def _check_sweep(params: dict, text: str) -> str:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    rows = list(csv.DictReader(lines))
    if len(rows) != params["steps"]:
        return f"{len(rows)} rows, expected {params['steps']}"
    diffs, refs = [], []
    for row in rows:
        energy = float(row["energy"])
        if not math.isfinite(energy) or row["error"]:
            return f"failed row at scale {row['scale']}: {row['error'] or energy}"
        ref = logdet_energy(params["gamma"], float(row["scale"]) * params["ell"])
        diffs.append(energy - ref)
        refs.append(abs(ref))
    if params["gamma"] is None or params["gamma"] == 0.0:
        worst = max(abs(d) / r for d, r in zip(diffs, refs))
        if worst > ENERGY_RTOL:
            return f"relative deviation {worst:.2e} from the log-det reference"
    elif max(diffs) - min(diffs) > ENERGY_RTOL * max(refs):
        return (
            f"E - E_logdet drifts from {diffs[0]:+.4f} to {diffs[-1]:+.4f} over the "
            "sweep; it must be an l-independent constant"
        )
    return ""
