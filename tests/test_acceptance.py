"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with ``pytest -s`` to see the lines live)."""

import itertools
import json
import math
import time

import numpy as np
import pytest

import qgraph as qg
from qgraph.cli import main
from tests.conftest import dirichlet_interval


def record(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_interval_benchmark():
    worst_mode, worst_green, slowest = 0.0, 0.0, 0.0
    for ell in (0.5, 1.0, 2.0):
        target = -math.pi / (24 * ell)

        start = time.perf_counter()
        mode = qg.casimir_mode_sum(dirichlet_interval(ell))
        elapsed = time.perf_counter() - start
        worst_mode = max(worst_mode, abs(mode.energy - target) / abs(target))
        slowest = max(slowest, elapsed)

        start = time.perf_counter()
        green = qg.casimir_green_method(dirichlet_interval(ell))
        elapsed = time.perf_counter() - start
        worst_green = max(worst_green, abs(green.energy - target) / abs(target))
        slowest = max(slowest, elapsed)

    record(
        "criterion 1: interval benchmark -pi/(24 ell)",
        worst_mode <= 1e-8 and worst_green <= 1e-8 and slowest < 10.0,
        f"mode rel {worst_mode:.2e} <= 1e-8, green rel {worst_green:.2e} <= 1e-8, "
        f"slowest run {slowest:.2f}s < 10s",
    )


def test_criterion_2_cross_method_agreement():
    worst = 0.0
    for ell in (0.5, 1.0, 2.0, 4.0):
        mode = qg.casimir_mode_sum(dirichlet_interval(ell))
        green = qg.casimir_green_method(dirichlet_interval(ell))
        worst = max(worst, abs(green.energy - mode.energy) / abs(mode.energy))
    record(
        "criterion 2: cross-method agreement on the two-vertex dirichlet family",
        worst <= 1e-3,
        f"worst relative difference {worst:.2e} <= 1e-3",
    )


def test_criterion_3_unitarity_suite():
    couplings = [qg.delta(-2.0), qg.KIRCHHOFF, qg.delta(0.5), qg.delta(3.0), qg.DIRICHLET]
    worst_unitarity, worst_reversal = 0.0, 0.0
    for k in (0.1, 1.0, 5.0, 20.0):
        for valency in range(1, 7):
            for coupling in couplings:
                s = qg.build_vertex_smatrix(valency, coupling, k).entries
                identity = np.eye(valency)
                worst_unitarity = max(
                    worst_unitarity,
                    np.max(np.abs(s @ s.conj().T - identity)),
                    np.max(np.abs(s.conj().T @ s - identity)),
                )
                s_neg = qg.build_vertex_smatrix(valency, coupling, -k).entries
                worst_reversal = max(worst_reversal, np.max(np.abs(s_neg - s.conj().T)))
    record(
        "criterion 3: unitarity and k-reversal of the vertex matrices",
        worst_unitarity <= 1e-12 and worst_reversal <= 1e-12,
        f"max |SS+ - 1| {worst_unitarity:.2e}, max |S(-k) - S+(k)| {worst_reversal:.2e}",
    )


def test_criterion_4_green_ode_residuals():
    h = 1e-4
    rng = np.random.default_rng(2024)
    worst = 0.0

    for _ in range(20):
        k = rng.uniform(0.5, 3.0)
        s = qg.build_vertex_smatrix(3, qg.KIRCHHOFF, k)
        x_src = rng.uniform(0.2, 1.5)
        x = rng.uniform(0.2, 1.5)
        if abs(x - x_src) < 10 * h:
            x += 0.1
        g = lambda t: qg.star_green(0, 0, x_src, t, s).total
        d2 = (g(x + h) - 2 * g(x) + g(x - h)) / h**2
        worst = max(worst, abs(d2 + k**2 * g(x)) / max(1.0, abs(k**2 * g(x))))

    for _ in range(20):
        k = rng.uniform(0.5, 3.0)
        ca = qg.cavity_amplitudes(qg.DIRICHLET, 1.0, k)
        x_src = rng.uniform(0.2, 0.8)
        x = rng.uniform(0.2, 0.8)
        if abs(x - x_src) < 10 * h:
            x = x_src + 0.1 if x_src < 0.7 else x_src - 0.1
        g = lambda t: qg.two_vertex_green(x_src, t, ca).total
        d2 = (g(x + h) - 2 * g(x) + g(x - h)) / h**2
        worst = max(worst, abs(d2 + k**2 * g(x)) / max(1.0, abs(k**2 * g(x))))

    worst_jump = 0.0
    for k in (0.7, 1.0, 2.3):
        x_src = 0.9
        g = lambda t: qg.free_green(k, x_src, t)
        right = (-3 * g(x_src) + 4 * g(x_src + h) - g(x_src + 2 * h)) / (2 * h)
        left = (3 * g(x_src) - 4 * g(x_src - h) + g(x_src - 2 * h)) / (2 * h)
        worst_jump = max(worst_jump, abs((right - left) - 1.0))

    record(
        "criterion 4: green-function ode residuals and source jump",
        worst <= 1e-5 and worst_jump <= 1e-6,
        f"worst residual {worst:.2e} <= 1e-5, worst jump error {worst_jump:.2e} <= 1e-6",
    )


def test_criterion_5_eigenvalue_oracle(interval_graph, star3_graph):
    res = qg.find_eigenvalues(interval_graph, 10.0)
    interval_err = max(
        abs(a - b) for a, b in zip(res.eigenvalues, [math.pi, 2 * math.pi, 3 * math.pi])
    )
    star = qg.find_eigenvalues(star3_graph, 5.0)
    expected = [math.pi / 2, math.pi, math.pi, 3 * math.pi / 2]
    star_err = (
        max(abs(a - b) for a, b in zip(star.eigenvalues, expected))
        if len(star.eigenvalues) == 4
        else math.inf
    )

    audit_ok = True
    for g, kmax in ((interval_graph, 10.0), (star3_graph, 5.0)):
        eigs = np.asarray(qg.find_eigenvalues(g, kmax).eigenvalues)
        bound = len(g.vertices) + len(g.bonds)
        for k in np.linspace(0.2, kmax, 25):
            if abs(np.sum(eigs <= k) - qg.weyl_count(g, k)) > bound:
                audit_ok = False

    record(
        "criterion 5: eigenvalue oracle and weyl audit",
        interval_err <= 1e-10 and star_err <= 1e-10 and audit_ok,
        f"interval err {interval_err:.2e}, star err {star_err:.2e}, audit ok {audit_ok}",
    )


def test_criterion_6_trace_closed_form_vs_quadrature():
    from scipy.integrate import quad

    points = [(k, l) for k in (0.4, 0.9, 1.7, 2.6, 4.0) for l in (0.7, 1.6)]
    assert len(points) == 10
    worst = 0.0
    for coupling, (kappa, ell) in itertools.product((qg.DIRICHLET, qg.delta(0.7)), points):
        ca = qg.cavity_amplitudes(coupling, ell, 1j * kappa)
        closed = qg.trace_gamma(ca)
        numeric, _ = quad(
            lambda x: qg.two_vertex_green(x, x, ca).total.real,
            0.0,
            ell,
            epsabs=1e-13,
            epsrel=1e-13,
            limit=300,
        )
        worst = max(worst, abs(closed.real - numeric) / abs(numeric))
    record(
        "criterion 6: diagonal trace closed form vs adaptive quadrature",
        worst <= 1e-8,
        f"worst relative deviation {worst:.2e} <= 1e-8 on 10 (kappa, ell) points, "
        "dirichlet and delta(0.7)",
    )


def test_criterion_7_scale_covariance(star3_graph):
    worst_energy, worst_eig = 0.0, 0.0
    for c in (0.5, 2.0):
        base = qg.casimir_mode_sum(dirichlet_interval(1.0))
        scaled = qg.casimir_mode_sum(dirichlet_interval(c))
        worst_energy = max(worst_energy, abs(scaled.energy * c - base.energy) / abs(base.energy))

        base_g = qg.casimir_green_method(dirichlet_interval(1.0))
        scaled_g = qg.casimir_green_method(dirichlet_interval(c))
        worst_energy = max(worst_energy, abs(scaled_g.energy * c - base_g.energy) / abs(base_g.energy))

        eigs = qg.find_eigenvalues(star3_graph, 8.0).eigenvalues
        eigs_scaled = qg.find_eigenvalues(star3_graph.scaled(c), 8.0 / c).eigenvalues
        worst_eig = max(
            worst_eig,
            max(abs(ks - kb / c) for kb, ks in zip(eigs, eigs_scaled)),
        )
    record(
        "criterion 7: scale covariance of energies and eigenvalues",
        worst_energy <= 1e-6 and worst_eig <= 1e-10,
        f"worst energy covariance {worst_energy:.2e} <= 1e-6, worst eigenvalue map {worst_eig:.2e}",
    )


def test_criterion_8_divergence_coefficient(star3_graph):
    # the fit runs in units of u = 2 l_min, where the amplitude is L/(2 pi u)
    interval_res = qg.casimir_mode_sum(dirichlet_interval(1.0))
    err_interval = abs(interval_res.fit_coefficients[0] - 1.0 / (4 * math.pi)) / (1.0 / (4 * math.pi))

    star_res = qg.casimir_mode_sum(star3_graph)
    err_star = abs(star_res.fit_coefficients[0] - 3.0 / (4 * math.pi)) / (3.0 / (4 * math.pi))

    record(
        "criterion 8: mode-sum divergence coefficient L/(2 pi u)",
        err_interval <= 0.01 and err_star <= 0.01,
        f"interval rel err {err_interval:.2e}, star rel err {err_star:.2e} (both <= 1%)",
    )


def test_criterion_9_determinism_and_manifests(tmp_path):
    graph_path = tmp_path / "interval.json"
    graph_path.write_text(
        json.dumps(
            {
                "vertices": [
                    {"id": 0, "coupling": {"kind": "dirichlet"}},
                    {"id": 1, "coupling": {"kind": "dirichlet"}},
                ],
                "bonds": [{"from": 0, "to": 1, "length": 1.0}],
                "leads": [],
            }
        ),
        encoding="utf-8",
    )

    # repeated runs are byte-identical
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        assert main(["casimir", "--graph", str(graph_path), "--method", "both",
                     "--output", str(out)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()

    # a manifest alone reproduces its result byte-identically
    spec1, spec2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert main(["spectrum", "--graph", str(graph_path), "--kmax", "17.3",
                 "--output", str(spec1)]) == 0
    manifest = json.loads(spec1.read_text())["manifest"]
    p = manifest["parameters"]
    assert set(p) == {"kmax"}
    assert main(["spectrum", "--graph", manifest["graph_path"],
                 "--kmax", repr(float(p["kmax"])),
                 "--output", str(spec2)]) == 0
    reproduced = spec1.read_bytes() == spec2.read_bytes()

    record(
        "criterion 9: byte-identical reruns and manifest reproduction",
        identical and reproduced,
        f"reruns identical {identical}, manifest reproduces {reproduced}",
    )
