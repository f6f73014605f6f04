import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qgraph as qg
import qgraph.cli
from qgraph.cli import main
from qgraph.util import fmt_float

INTERVAL = {
    "vertices": [
        {"id": 0, "coupling": {"kind": "dirichlet"}},
        {"id": 1, "coupling": {"kind": "dirichlet"}},
    ],
    "bonds": [{"from": 0, "to": 1, "length": 1.0}],
    "leads": [],
}

STAR3 = {
    "vertices": [
        {"id": 0, "coupling": {"kind": "kirchhoff"}},
        {"id": 1, "coupling": {"kind": "dirichlet"}},
        {"id": 2, "coupling": {"kind": "dirichlet"}},
        {"id": 3, "coupling": {"kind": "dirichlet"}},
    ],
    "bonds": [
        {"from": 0, "to": 1, "length": 1.0},
        {"from": 0, "to": 2, "length": 1.0},
        {"from": 0, "to": 3, "length": 1.0},
    ],
    "leads": [],
}

OPEN_STAR3 = {
    "vertices": [{"id": 0, "coupling": {"kind": "kirchhoff"}}],
    "bonds": [],
    "leads": [{"vertex": 0}, {"vertex": 0}, {"vertex": 0}],
}

TWO_LEAD_VERTICES = {
    "vertices": [{"id": 0, "coupling": {"kind": "kirchhoff"}}, {"id": 1, "coupling": {"kind": "kirchhoff"}}],
    "bonds": [],
    "leads": [{"vertex": 0}, {"vertex": 1}],
}

WALL = {
    "vertices": [{"id": 0, "coupling": {"kind": "dirichlet"}}],
    "bonds": [],
    "leads": [{"vertex": 0}],
}


def two_vertex(coupling: dict, ell: float = 1.0) -> dict:
    return {
        "vertices": [{"id": 0, "coupling": coupling}, {"id": 1, "coupling": coupling}],
        "bonds": [{"from": 0, "to": 1, "length": ell}],
        "leads": [],
    }


def open_star(coupling: dict) -> dict:
    return {
        "vertices": [{"id": 0, "coupling": coupling}],
        "bonds": [],
        "leads": [{"vertex": 0}, {"vertex": 0}, {"vertex": 0}],
    }


def greens_total(graph: str, out, k: float, xi: float, xf: float, lead_in=0, lead_out=0) -> complex:
    """G at real k from the ``greens`` command."""
    assert main(
        ["greens", "--graph", graph, "--k", f"{k!r},0", "--xi", repr(xi), "--xf", repr(xf),
         "--lead-in", str(lead_in), "--lead-out", str(lead_out), "--output", str(out)]
    ) == 0
    total = json.loads(out.read_text())["total"]
    return complex(total["re"], total["im"])


ORACLE_COUPLINGS = {
    "two-vertex": [
        {"kind": "dirichlet"},
        {"kind": "kirchhoff"},
        {"kind": "delta", "gamma": 0.7},
        {"kind": "delta", "gamma": 3.0},
    ],
    "star": [{"kind": "kirchhoff"}, {"kind": "delta", "gamma": 0.6}, {"kind": "delta", "gamma": -0.4}],
}
ORACLE_CASES = [
    pytest.param(form, c, id=f"{form}-{c['kind']}{c.get('gamma', '')}")
    for form, couplings in ORACLE_COUPLINGS.items()
    for c in couplings
]


@pytest.fixture
def graph_file(tmp_path):
    def write(doc, name="graph.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    return write


class TestSpectrumCommand:
    def test_interval(self, graph_file, tmp_path):
        out = tmp_path / "spec.json"
        code = main(["spectrum", "--graph", graph_file(INTERVAL), "--kmax", "10", "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["eigenvalues"] == pytest.approx(
            [math.pi, 2 * math.pi, 3 * math.pi], abs=1e-10
        )
        assert payload["manifest"]["command"] == "spectrum"
        assert all(r <= 1e-10 for r in payload["residuals"])
        assert payload["weyl"]["bound"] == 3  # V + B
        assert abs(payload["weyl"]["count"] - payload["weyl"]["expected"]) <= payload["weyl"]["bound"]

    def test_diagnostics_stay_out_of_the_output(self, graph_file, tmp_path):
        # the output is the same on every run and carries no diagnostics:
        # residual_order and form_order are only on the result object
        out = tmp_path / "spec.json"
        assert main(["spectrum", "--graph", graph_file(STAR3), "--kmax", "20", "--output", str(out)]) == 0
        text = out.read_text()
        assert set(json.loads(text)) == {"manifest", "eigenvalues", "residuals", "weyl"}
        assert "residual_order" not in text and "form_order" not in text

    def test_open_graph_is_input_error(self, graph_file, tmp_path, capsys):
        code = main(
            ["spectrum", "--graph", graph_file(OPEN_STAR3), "--kmax", "10",
             "--output", str(tmp_path / "x.json")]
        )
        assert code == 1
        assert "compact" in capsys.readouterr().err

    def test_a_length_beyond_the_doubles_ends_in_an_error_line(self, graph_file, tmp_path, capsys):
        out = tmp_path / "spec.json"
        graph = graph_file(two_vertex({"kind": "dirichlet"}, 10**400))
        assert main(["spectrum", "--graph", graph, "--kmax", "10", "--output", str(out)]) == 1
        assert capsys.readouterr().err == "error: bond 0: non-finite length\n"
        assert not out.exists()

    def test_zero_kmax_is_flag_error(self, graph_file, tmp_path):
        code = main(
            ["spectrum", "--graph", graph_file(INTERVAL), "--kmax", "0",
             "--output", str(tmp_path / "x.json")]
        )
        assert code == 1


class TestCasimirCommand:
    def test_interval_both_methods_agree(self, graph_file, tmp_path):
        out = tmp_path / "cas.json"
        code = main(
            ["casimir", "--graph", graph_file(INTERVAL), "--method", "both", "--output", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        methods = {r["method"]: r for r in payload["results"]}
        assert set(methods) == {"GreenTrace", "ModeSum"}
        for r in payload["results"]:
            assert r["energy"] == pytest.approx(-0.130900, abs=5e-5)
        assert payload["relative_difference"] <= 1e-3

    def test_green_requires_two_vertex(self, graph_file, tmp_path, capsys):
        code = main(
            ["casimir", "--graph", graph_file(STAR3), "--method", "green",
             "--output", str(tmp_path / "x.json")]
        )
        assert code == 1
        assert "two-vertex" in capsys.readouterr().err

    def test_delta_graph_both_methods_is_numerical_failure(self, graph_file, tmp_path, capsys):
        # the mode sum's even-power fit refuses a delta graph (see the README)
        out = tmp_path / "cas.json"
        graph = graph_file(two_vertex({"kind": "delta", "gamma": 0.5}))
        assert main(["casimir", "--graph", graph, "--method", "both", "--output", str(out)]) == 2
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()


class TestSweepCommand:
    def test_two_point_interval_sweep(self, graph_file, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--graph", graph_file(INTERVAL), "--from", "1", "--to", "2",
             "--steps", "2", "--method", "modesum", "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("# manifest = ")
        assert lines[1] == "scale,energy,estimated_error,error"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 2
        assert float(rows[0][1]) == pytest.approx(-math.pi / 24, rel=1e-6)
        assert float(rows[1][1]) == pytest.approx(-math.pi / 48, rel=1e-6)
        assert rows[0][3] == "" and rows[1][3] == ""

    def test_scale_covariance_along_sweep(self, graph_file, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--graph", graph_file(INTERVAL), "--from", "0.5", "--to", "3.0",
             "--steps", "6", "--method", "modesum", "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")[2:]
        assert len(lines) == 6
        products = [float(r[0]) * float(r[1]) for r in (line.split(",") for line in lines)]
        for p in products[1:]:
            assert p == pytest.approx(products[0], rel=1e-6)

    def test_star_modesum_sweep_has_no_failed_rows(self, graph_file, tmp_path):
        # the degenerate roots n pi / (2 scale) pass the scale-free residual
        # at every scale, so each row matches the closed form -pi / (16 scale)
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--graph", graph_file(STAR3), "--from", "0.5", "--to", "2",
             "--steps", "4", "--method", "modesum", "--output", str(out)]
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[2:]]
        assert len(rows) == 4
        for scale, energy, _, error in rows:
            assert error == ""
            assert float(energy) == pytest.approx(-math.pi / (16 * float(scale)), rel=1e-6)

    def test_long_scales_green_sweep_has_no_failed_rows(self, graph_file, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--graph", graph_file(INTERVAL), "--from", "100", "--to", "400",
             "--steps", "4", "--method", "green", "--output", str(out)]
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[2:]]
        assert len(rows) == 4
        for scale, energy, error, message in rows:
            assert message == ""
            assert abs(float(energy) + math.pi / (24 * float(scale))) <= float(error)

    def test_green_sweep_to_a_million_is_scale_free(self, graph_file, tmp_path):
        # a truncation in kappa of order 1 missed the integrand's support,
        # kappa below 1/scale, and gave about 0 at scale 1e6
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--graph", graph_file(INTERVAL), "--from", "1", "--to", "1e6",
             "--steps", "3", "--method", "green", "--output", str(out)]
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[2:]]
        assert len(rows) == 3
        for scale, energy, error, message in rows:
            assert message == ""
            assert abs(float(energy) * float(scale) + math.pi / 24) <= 1e-9
            assert abs(float(energy) + math.pi / (24 * float(scale))) <= float(error)

    def test_green_sweep_row_that_overflows_carries_the_message(self, graph_file, tmp_path):
        # at scale 5e-324 the energy -pi/(24 scale) is beyond the largest double
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--graph", graph_file(INTERVAL), "--from", "5e-324", "--to", "1",
             "--steps", "2", "--method", "green", "--output", str(out)]
        )
        assert code == 3
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[2:]]
        assert "not finite" in rows[0][3] and rows[0][1] == "NaN"
        assert rows[1][3] == ""

    def test_green_sweep_rows_are_the_single_scale_results(self, graph_file, tmp_path):
        # one quadrature for the whole sweep, deep (gamma ell = 7e-7) and shallow
        # (gamma ell = 7) refinement mixed, writes what each scale gives alone
        out = tmp_path / "sweep.csv"
        graph = graph_file(two_vertex({"kind": "delta", "gamma": 0.7}))
        assert main(["sweep", "--graph", graph, "--from", "1e-6", "--to", "10", "--steps", "41",
                     "--method", "green", "--output", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[2:]]
        assert len(rows) == 41
        g = qg.parse_graph(Path(graph).read_text())
        for scale, energy, error, message in rows:
            alone = qg.casimir_green_method(g.scaled(float(scale)))
            assert (energy, error, message) == (fmt_float(alone.energy), fmt_float(alone.estimated_error), "")

    @pytest.mark.parametrize("lo, hi, steps, last", [("1", "1.7e308", 3, "1.7e+308"),
                                                      ("0.5", repr(sys.float_info.max), 7, None),
                                                      (repr(sys.float_info.max / 3), repr(sys.float_info.max), 5, None),
                                                      ("1e-6", "10", 41, "10.0")])
    def test_sweep_scales_stay_finite_and_within_the_range(self, lo, hi, steps, last, graph_file, tmp_path):
        # (to - from) * i overflows at the last steps; each scale must still lie in [from, to], and the last is to
        out = tmp_path / "sweep.csv"
        graph = graph_file(two_vertex({"kind": "dirichlet"}, 1e-300))
        assert main(["sweep", "--graph", graph, "--from", lo, "--to", hi, "--steps", str(steps),
                     "--method", "green", "--output", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[2:]]
        scales = [float(r[0]) for r in rows]
        assert len(rows) == steps and scales[0] == float(lo) and scales == sorted(scales)
        assert all(s <= float(hi) and math.isfinite(float(r[1])) and r[3] == "" for s, r in zip(scales, rows))
        assert rows[-1][0] == fmt_float(float(hi))
        if last is not None:
            assert rows[-1][0] == last
        # every scale is numpy.linspace's, whose last step may overflow before it is set to --to
        with np.errstate(over="ignore"):
            expected = np.linspace(float(lo), float(hi), steps).tolist()
        assert [r[0] for r in rows] == [fmt_float(s) for s in expected]

    def test_steps_above_the_cap_are_refused(self, graph_file, tmp_path, monkeypatch):
        monkeypatch.setattr(qgraph.cli, "_MAX_STEPS", 10)
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--graph", graph_file(INTERVAL), "--from", "1", "--to", "2", "--method", "green",
                "--output", str(out)]
        assert main([*argv, "--steps", "11"]) == 1
        assert not out.exists()
        assert main([*argv, "--steps", "10"]) == 0
        assert len(out.read_text().strip().split("\n")) == 12

    def test_zero_from_is_flag_error(self, graph_file, tmp_path):
        code = main(
            ["sweep", "--graph", graph_file(INTERVAL), "--from", "0", "--to", "1",
             "--steps", "2", "--method", "modesum", "--output", str(tmp_path / "x.csv")]
        )
        assert code == 1

    def test_failed_points_get_sentinel_and_exit_3(self, graph_file, tmp_path):
        # green method rejects mixed end couplings, so every point fails
        mixed = dict(INTERVAL)
        mixed["vertices"] = [
            {"id": 0, "coupling": {"kind": "dirichlet"}},
            {"id": 1, "coupling": {"kind": "kirchhoff"}},
        ]
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--graph", graph_file(mixed), "--from", "1", "--to", "2",
             "--steps", "2", "--method", "green", "--output", str(out)]
        )
        assert code == 3
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[2:]]
        assert all(r[1] == "NaN" and "identical couplings" in r[3] for r in rows)


class TestGreensCommand:
    def test_dirichlet_wall(self, graph_file, tmp_path):
        out = tmp_path / "g.json"
        code = main(
            ["greens", "--graph", graph_file(WALL), "--k", "1,0", "--xi", "0", "--xf", "0",
             "--output", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["total"]["re"] == pytest.approx(0.0, abs=1e-14)
        assert payload["total"]["im"] == pytest.approx(0.0, abs=1e-14)

    def test_kirchhoff_star_at_vertex(self, graph_file, tmp_path):
        out = tmp_path / "g.json"
        code = main(
            ["greens", "--graph", graph_file(OPEN_STAR3), "--k", "1,0", "--xi", "0", "--xf", "0",
             "--lead-in", "0", "--lead-out", "0", "--output", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["total"]["re"] == pytest.approx(0.0, abs=1e-14)
        assert payload["total"]["im"] == pytest.approx(-1.0 / 3.0, abs=1e-14)

    def test_wide_star_needs_no_scattering_matrix(self, graph_file, tmp_path):
        # 4,096 leads, the valency cap: G_nl needs R and T only, where the
        # N x N S-matrix took 268 MB; parsing the graph file is the floor
        import tracemalloc

        path, out = graph_file({**OPEN_STAR3, "leads": [{"vertex": 0}] * 4096}), tmp_path / "g.json"
        tracemalloc.start()
        try:
            qg.parse_graph(Path(path).read_text())
            floor = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            code = main(["greens", "--graph", path, "--k", "1,0", "--xi", "0", "--xf", "0",
                         "--lead-in", "4095", "--lead-out", "7", "--output", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < floor + 2**20
        # Kirchhoff: T = 2 / N, and G_nl = T / 2ik at the vertex
        total = json.loads(out.read_text())["total"]
        assert (total["re"], total["im"]) == pytest.approx((0.0, -1.0 / 4096), abs=1e-18)

    def test_negative_coordinate_is_input_error(self, graph_file, tmp_path):
        code = main(
            ["greens", "--graph", graph_file(WALL), "--k", "1,0", "--xi", "-1", "--xf", "0",
             "--output", str(tmp_path / "x.json")]
        )
        assert code == 1

    def test_malformed_complex_is_input_error(self, graph_file, tmp_path):
        code = main(
            ["greens", "--graph", graph_file(WALL), "--k", "1.0", "--xi", "0", "--xf", "0",
             "--output", str(tmp_path / "x.json")]
        )
        assert code == 1

    def test_two_vertex_pole_is_numerical_error(self, graph_file, tmp_path, capsys):
        code = main(
            ["greens", "--graph", graph_file(INTERVAL), "--k", f"{math.pi},0",
             "--xi", "0.3", "--xf", "0.6", "--output", str(tmp_path / "x.json")]
        )
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_two_vertex_value(self, graph_file, tmp_path):
        out = tmp_path / "g.json"
        code = main(
            ["greens", "--graph", graph_file(INTERVAL), "--k", "1.3,0",
             "--xi", "0.5", "--xf", "0.5", "--output", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        # closed form -sin(0.65)^2 / (1.3 sin 1.3), shared with the library-level test
        assert payload["total"]["re"] == pytest.approx(-0.29238630735910626, abs=1e-15)
        assert payload["total"]["im"] == pytest.approx(0.0, abs=1e-15)


    def test_two_vertex_pole_check_is_scale_free(self, graph_file, tmp_path):
        # halfway between two poles of a dirichlet bond of length 1e13: G is
        # c times the unit-bond value, not a pole-proximity failure
        c, out = 1e13, tmp_path / "g.json"
        big = greens_total(graph_file(two_vertex({"kind": "dirichlet"}, c)), out,
                           math.pi / (2 * c), 0.3 * c, 0.6 * c)
        unit = greens_total(graph_file(INTERVAL, "unit.json"), out, math.pi / 2, 0.3, 0.6)
        assert big == pytest.approx(c * unit, rel=1e-12)

    @pytest.mark.parametrize("form, coupling", ORACLE_CASES)
    def test_green_function_oracles(self, form, coupling, graph_file, tmp_path):
        """Reciprocity and the vertex conditions on every form ``greens``
        accepts, and reality at real k on the compact form.  The vertex
        condition is read in the coordinate t running from the vertex into
        its bond or lead: G = 0 at a dirichlet vertex, else the sum of dG/dt
        over the edges at the vertex equals gamma G there."""
        k, h, src = 1.7, 1e-5, 0.4
        gamma = coupling.get("gamma", 0.0)
        out = tmp_path / "g.json"

        def slope(values):  # dG/dt at t = 0 from G at t = 0, h, 2h
            return (-3 * values[0] + 4 * values[1] - values[2]) / (2 * h)

        def assert_vertex_condition(edges):
            values = [[g(t) for t in (0.0, h, 2 * h)] for g in edges]
            scale = max(abs(v) for vs in values for v in vs)
            for vs in values:  # one vertex value on every edge
                assert vs[0] == pytest.approx(values[0][0], rel=1e-14, abs=1e-15 * scale)
            if coupling["kind"] == "dirichlet":
                assert abs(values[0][0]) <= 1e-14 * scale
            else:
                flux = sum(slope(vs) for vs in values)
                assert abs(flux - gamma * values[0][0]) <= 1e-7 * (k + abs(gamma)) * scale

        if form == "two-vertex":
            graph = graph_file(two_vertex(coupling))
            g = lambda xi, xf: greens_total(graph, out, k, xi, xf)
            assert_vertex_condition([lambda t: g(src, t)])
            assert_vertex_condition([lambda t: g(src, 1.0 - t)])
            for a, b in ((0.3, 0.8), (0.05, 0.95), (0.5, 0.5)):
                forward, backward = g(a, b), g(b, a)
                assert forward == pytest.approx(backward, rel=1e-14)
                assert abs(forward.imag) <= 1e-12 * abs(forward)
        else:
            graph = graph_file(open_star(coupling))
            g = lambda n, l, xi, xf: greens_total(graph, out, k, xi, xf, n, l)
            assert_vertex_condition([lambda t, l=l: g(0, l, src, t) for l in range(3)])
            for n, l, a, b in ((0, 1, 0.4, 0.9), (0, 0, 0.4, 0.9), (2, 1, 0.3, 1.1)):
                assert g(n, l, a, b) == pytest.approx(g(l, n, b, a), rel=1e-14)


    def test_lead_indices_rejected_on_the_two_vertex_form(self, graph_file, tmp_path, capsys):
        # lead indices exist only on a star of leads; a compact bond has none
        out = tmp_path / "x.json"
        code = main(
            ["greens", "--graph", graph_file(INTERVAL), "--k", "1.3,0", "--xi", "0.5",
             "--xf", "0.5", "--lead-in", "7", "--lead-out", "-3", "--output", str(out)]
        )
        assert code == 1
        assert "--lead-in" in capsys.readouterr().err
        assert not out.exists()


NONFINITE_FLAGS = {
    "spectrum-kmax": ["spectrum", "--kmax", "inf"],
    "greens-xi": ["greens", "--k", "1.3,0", "--xi", "nan", "--xf", "0.5"],
    "greens-xf": ["greens", "--k", "1.3,0", "--xi", "0.5", "--xf=-inf"],
    "greens-k-nan": ["greens", "--k", "nan,0", "--xi", "0.5", "--xf", "0.5"],
    "greens-k-inf": ["greens", "--k", "inf,0", "--xi", "0.5", "--xf", "0.5"],
    "greens-k-imag": ["greens", "--k", "1.3,1e400", "--xi", "0.5", "--xf", "0.5"],
    "sweep-to": ["sweep", "--from", "1", "--to", "inf", "--steps", "2", "--method", "green"],
    "sweep-from": ["sweep", "--from", "nan", "--to", "2", "--steps", "2", "--method", "green"],
}


@pytest.mark.parametrize("argv", NONFINITE_FLAGS.values(), ids=NONFINITE_FLAGS.keys())
def test_nonfinite_flags_are_input_errors(argv, graph_file, tmp_path, capsys):
    out = tmp_path / "x.out"
    assert main([argv[0], "--graph", graph_file(INTERVAL), *argv[1:], "--output", str(out)]) == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


REGULATOR_FLAGS = {
    # the Green route's truncation is fixed, so there is no --kappa-max
    "kappa-max": ["--method", "green", "--kappa-max", "-1"],
    "kappa-max-nan": ["--method", "green", "--kappa-max", "nan"],
    "kappa-max-inf": ["--method", "green", "--kappa-max", "inf"],
    "modesum-kappa-max": ["--method", "modesum", "--kappa-max", "20"],
    # the quadrature tolerance and the fit order are fixed too
    "quad-tol": ["--method", "green", "--quad-tol", "0"],
    "fit-order": ["--method", "modesum", "--fit-order", "0"],
    "green-fit-order": ["--method", "green", "--fit-order", "5"],
}
REFUSED_FLAGS = {
    **{f"casimir-{name}": ["casimir", *flags] for name, flags in REGULATOR_FLAGS.items()},
    **{f"sweep-{name}": ["sweep", "--from", "1", "--to", "2", "--steps", "2", *flags]
       for name, flags in REGULATOR_FLAGS.items()},
    "casimir-modesum-quad-tol": ["casimir", "--method", "modesum", "--quad-tol", "-1"],
    "sweep-from-above-to": ["sweep", "--from", "2", "--to", "1", "--steps", "2", "--method", "green"],
    "sweep-one-step": ["sweep", "--from", "1", "--to", "2", "--steps", "1", "--method", "green"],
    # a later --graph replaces the interval's
    "graph-is-a-directory": ["casimir", "--method", "green", "--graph", "."],
    "graph-is-missing": ["casimir", "--method", "green", "--graph", "no-such-dir/graph.json"],
    "greens-leads-at-two-vertices": ["greens", "--k", "1,0", "--xi", "0", "--xf", "0", "--graph", TWO_LEAD_VERTICES],
    # a star of 4097 leads: its S-matrix is refused before it is allocated
    "greens-star-above-the-valency-cap": ["greens", "--k", "1,0", "--xi", "0", "--xf", "0", "--graph",
                                          {**OPEN_STAR3, "leads": [{"vertex": 0}] * 4097}],
    "spectrum-kmax-negative": ["spectrum", "--kmax", "-1"],
    # a flag that is not a number at all
    "spectrum-kmax-not-a-number": ["spectrum", "--kmax", "abc"],
    "greens-k-not-a-number": ["greens", "--k", "a,0", "--xi", "0.5", "--xf", "0.5"],
    # the residual bound is fixed, so there is no --tol
    "spectrum-tol": ["spectrum", "--kmax", "10", "--tol", "nan"],
    "spectrum-tol-zero": ["spectrum", "--kmax", "10", "--tol", "0"],
    # about 3e299 roots: refused before numpy is asked for the special points
    "spectrum-kmax-unbounded": ["spectrum", "--kmax", "1e300"],
}


@pytest.mark.parametrize("argv", REFUSED_FLAGS.values(), ids=REFUSED_FLAGS.keys())
def test_refused_flags_end_in_an_error_line(argv, graph_file, tmp_path, capsys):
    # a library refusal reaches main as an InputError: exit 1, no traceback
    out = tmp_path / "x.out"
    argv = [graph_file(a, "other.json") if isinstance(a, dict) else a for a in argv]
    assert main([argv[0], "--graph", graph_file(INTERVAL), *argv[1:], "--output", str(out)]) == 1
    assert any(line.startswith("error: ") for line in capsys.readouterr().err.splitlines())
    assert not out.exists()


@pytest.mark.parametrize("command", ["casimir", "sweep"])
def test_kappa_max_is_an_unknown_flag(command, graph_file, tmp_path, capsys):
    out = tmp_path / "x.out"
    argv = [command, "--graph", graph_file(INTERVAL), "--method", "green", "--kappa-max", "15",
            "--output", str(out)]
    if command == "sweep":
        argv += ["--from", "1", "--to", "2", "--steps", "2"]
    assert main(argv) == 1
    assert "unrecognized arguments: --kappa-max 15" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--tau-min", "--tau-max", "--tau-steps"])
@pytest.mark.parametrize("command", ["casimir", "sweep"])
def test_tau_flags_are_unknown(command, flag, graph_file, tmp_path, capsys):
    # the mode sum's window follows from the graph's shortest bond
    out = tmp_path / "x.out"
    argv = [command, "--graph", graph_file(INTERVAL), "--method", "modesum", flag, "0.1", "--output", str(out)]
    if command == "sweep":
        argv += ["--from", "1", "--to", "2", "--steps", "2"]
    assert main(argv) == 1
    assert f"unrecognized arguments: {flag} 0.1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--quad-tol", "--fit-order"])
@pytest.mark.parametrize("command", ["casimir", "sweep"])
def test_regulator_flags_are_unknown(command, flag, graph_file, tmp_path, capsys):
    # both routes take only the graph: the Green route's tolerance and
    # truncation and the mode sum's window and fit order are fixed
    out = tmp_path / "x.out"
    argv = [command, "--graph", graph_file(INTERVAL), "--method", "green", flag, "5", "--output", str(out)]
    if command == "sweep":
        argv += ["--from", "1", "--to", "2", "--steps", "2"]
    assert main(argv) == 1
    assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err
    assert not out.exists()


def test_spectrum_tol_is_an_unknown_flag(graph_file, tmp_path, capsys):
    # roots are accepted against the residual bound fixed in the spectrum module
    out = tmp_path / "x.out"
    argv = ["spectrum", "--graph", graph_file(INTERVAL), "--kmax", "10", "--tol", "1e-12", "--output", str(out)]
    assert main(argv) == 1
    assert "unrecognized arguments: --tol 1e-12" in capsys.readouterr().err
    assert not out.exists()


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, graph_file, tmp_path):
        graph = graph_file(INTERVAL)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            assert main(["casimir", "--graph", graph, "--method", "both", "--output", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_spectrum_manifest_reproduces_output(self, graph_file, tmp_path):
        graph = graph_file(INTERVAL)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["spectrum", "--graph", graph, "--kmax", "12.5", "--output", str(out1)]) == 0
        manifest = json.loads(out1.read_text())["manifest"]
        p = manifest["parameters"]
        assert p == {"kmax": 12.5}
        assert main(["spectrum", "--graph", manifest["graph_path"], "--kmax", fmt_float(p["kmax"]),
                     "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_casimir_manifest_reproduces_output(self, graph_file, tmp_path):
        # the manifest holds only the method: no route takes a setting
        graph = graph_file(INTERVAL)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for method in ("green", "modesum", "both"):
            assert main(["casimir", "--graph", graph, "--method", method, "--output", str(out1)]) == 0
            manifest = json.loads(out1.read_text())["manifest"]
            assert manifest["parameters"] == {"method": method}
            assert main(["casimir", "--graph", manifest["graph_path"], "--method", manifest["parameters"]["method"],
                         "--output", str(out2)]) == 0
            assert out1.read_bytes() == out2.read_bytes()

    def test_sweep_manifest_reproduces_output(self, graph_file, tmp_path):
        graph = graph_file(INTERVAL)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--graph", graph, "--from", "0.8", "--to", "1.6",
                     "--steps", "3", "--method", "green", "--output", str(out1)]) == 0
        manifest = json.loads(out1.read_text().split("\n")[0][len("# manifest = "):])
        p = manifest["parameters"]
        assert set(p) == {"method", "from", "to", "steps"}
        assert main(["sweep", "--graph", manifest["graph_path"],
                     "--from", fmt_float(p["from"]), "--to", fmt_float(p["to"]),
                     "--steps", str(p["steps"]), "--method", p["method"],
                     "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_floats_round_trip_to_library_values(self, graph_file, tmp_path):
        def bits(values):
            return [float(v).hex() for v in values]

        out = tmp_path / "g.json"
        main(["greens", "--graph", graph_file(WALL), "--k", "1.1,0", "--xi", "0.25", "--xf", "0.5",
              "--output", str(out)])
        text = out.read_text()
        value = json.loads(text)["gamma_part"]["re"]
        assert fmt_float(value) in text

        # every float of a spectrum file is the library's double, bit for bit
        graph = graph_file(STAR3)
        out = tmp_path / "spec.json"
        assert main(["spectrum", "--graph", graph, "--kmax", "7.3", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        res = qg.find_eigenvalues(qg.parse_graph(json.dumps(STAR3)), 7.3)
        assert bits(payload["eigenvalues"]) == bits(res.eigenvalues)
        assert bits(payload["residuals"]) == bits(res.residuals)
        assert bits([payload["weyl"]["expected"]]) == bits([res.weyl_expected])

        # and so is every float of a sweep row
        delta_graph = two_vertex({"kind": "delta", "gamma": 0.7})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--graph", graph_file(delta_graph), "--from", "0.3", "--to", "1.7",
                     "--steps", "4", "--method", "green", "--output", str(out)]) == 0
        g = qg.parse_graph(json.dumps(delta_graph))
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        assert len(rows) == 4
        for i, (scale, energy, err, message) in enumerate(rows):
            s = 0.3 + (1.7 - 0.3) * i / 3 if i < 3 else 1.7  # the CLI's scale grid ends at --to
            res = qg.casimir_green_method(g.scaled(s))
            assert message == ""
            assert bits([scale, energy, err]) == bits([s, res.energy, res.estimated_error])

    def test_special_characters_in_the_graph_path_stay_valid_json(self, tmp_path):
        path = tmp_path / 'g\x1b"\\\tå.json'
        path.write_text(json.dumps(INTERVAL), encoding="utf-8")
        out = tmp_path / "spec.json"
        assert main(["spectrum", "--graph", str(path), "--kmax", "5", "--output", str(out)]) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["manifest"]["graph_path"] == str(path)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--graph", str(path), "--from", "1", "--to", "2", "--steps", "2",
                     "--method", "green", "--output", str(out)]) == 0
        header = out.read_text(encoding="utf-8").splitlines()[0]
        assert header.startswith("# manifest = ")
        assert json.loads(header[len("# manifest = "):])["graph_path"] == str(path)

    @pytest.mark.parametrize("argv", [["spectrum", "--kmax", "5"],
                                      ["sweep", "--from", "1", "--to", "2", "--steps", "2", "--method", "green"]],
                             ids=["spectrum", "sweep"])
    def test_a_graph_path_that_is_not_utf8_is_echoed_escaped(self, tmp_path, argv):
        # argv carries the byte 0xff as a lone surrogate, which UTF-8 cannot
        # encode: the manifest writes it as the text \xff, and the file parses
        path = tmp_path / os.fsdecode(b"g\xff.json")
        path.write_text(json.dumps(INTERVAL), encoding="utf-8")
        out = tmp_path / "out"
        assert main([argv[0], "--graph", str(path), *argv[1:], "--output", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        header = text.splitlines()[0].removeprefix("# manifest = ")
        manifest = json.loads(text)["manifest"] if argv[0] == "spectrum" else json.loads(header)
        assert manifest["graph_path"] == str(tmp_path / "g\\xff.json")

    def test_text_that_cannot_be_encoded_leaves_no_file(self, tmp_path):
        from qgraph.cli import _write_output

        out = tmp_path / "out.json"
        with pytest.raises(UnicodeEncodeError):
            _write_output(str(out), '{"graph_path": "g\udcff"}')
        assert not out.exists()


OUTPUT_COMMANDS = {
    "spectrum": ["spectrum", "--kmax", "5"],
    "casimir": ["casimir", "--method", "green"],
    "sweep": ["sweep", "--from", "1", "--to", "2", "--steps", "2", "--method", "green"],
    "greens": ["greens", "--k", "1.3,0", "--xi", "0.25", "--xf", "0.5"],
}


@pytest.mark.parametrize("argv", OUTPUT_COMMANDS.values(), ids=OUTPUT_COMMANDS.keys())
def test_unwritable_output_is_input_error(argv, graph_file, tmp_path, capsys):
    out = tmp_path / "missing" / "x.out"
    assert main([argv[0], "--graph", graph_file(INTERVAL), *argv[1:], "--output", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write output file")


def test_star_modesum_divergence_coefficient(graph_file, tmp_path):
    # total length 3 in units of u = 2 l_min = 2: L/(2 pi u) = 3/(4 pi)
    out = tmp_path / "cas.json"
    code = main(["casimir", "--graph", graph_file(STAR3), "--method", "modesum", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    result = payload["results"][0]
    assert math.isfinite(result["energy"])
    assert result["fit_coefficients"][0] == pytest.approx(3.0 / (4 * math.pi), rel=0.01)


def test_results_independent_of_worker_count(graph_file, tmp_path, monkeypatch):
    graph = graph_file(INTERVAL)
    outputs = []
    for workers, name in (("1", "serial"), ("4", "parallel")):
        monkeypatch.setenv("QGRAPH_THREADS", workers)
        out = tmp_path / f"{name}.csv"
        assert main(["sweep", "--graph", graph, "--from", "0.8", "--to", "2.0",
                     "--steps", "4", "--method", "green", "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["spectrum", "casimir", "sweep", "greens"])
def test_invalid_thread_env_is_input_error(command, graph_file, tmp_path, monkeypatch):
    monkeypatch.setenv("QGRAPH_THREADS", "many")
    argv = {
        "spectrum": ["spectrum", "--graph", graph_file(INTERVAL), "--kmax", "10"],
        "casimir": ["casimir", "--graph", graph_file(INTERVAL), "--method", "green"],
        "sweep": ["sweep", "--graph", graph_file(INTERVAL), "--from", "1", "--to", "2",
                  "--steps", "2", "--method", "green"],
        "greens": ["greens", "--graph", graph_file(WALL), "--k", "1.1,0", "--xi", "0.25",
                   "--xf", "0.5"],
    }[command]
    out = tmp_path / "x.out"
    assert main(argv + ["--output", str(out)]) == 1
    assert not out.exists()


def test_modesum_output_is_the_library_result(graph_file, tmp_path):
    # the manifest holds only the method; the window and the fit follow from the graph
    out = tmp_path / "cas.json"
    assert main(["casimir", "--graph", graph_file(STAR3), "--method", "modesum",
                 "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    res = qg.casimir_mode_sum(qg.parse_graph(json.dumps(STAR3)))
    assert payload["results"] == [{
        "method": "ModeSum", "energy": res.energy, "estimated_error": res.estimated_error,
        "fit_coefficients": list(res.fit_coefficients), "per_tau_samples": [list(p) for p in res.per_tau_samples],
    }]
    assert payload["manifest"]["parameters"] == {"method": "modesum"}


def test_green_output_at_the_smallest_lengths_is_strict_json(graph_file, tmp_path):
    # every number of the file is finite, however short the bond
    out = tmp_path / "cas.json"
    assert main(["casimir", "--graph", graph_file(two_vertex({"kind": "dirichlet"}, 1e-308)),
                 "--method", "green", "--output", str(out)]) == 0

    def refuse(constant):
        raise ValueError(f"non-finite constant {constant} in the output")

    result = json.loads(out.read_text(), parse_constant=refuse)["results"][0]
    assert result["energy"] == pytest.approx(-math.pi / 24e-308, rel=1e-8)


def test_refused_call_leaves_the_next_output_as_a_fresh_interpreter_writes_it(graph_file, tmp_path):
    # the parser is built once per process and shared by every call
    from qgraph import cli

    graph = graph_file(INTERVAL)
    assert main(["casimir", "--graph", graph, "--method", "both", "--quad-tol", "1e-12",
                 "--output", str(tmp_path / "refused.json")]) == 1
    assert not (tmp_path / "refused.json").exists()
    here, fresh = tmp_path / "here.json", tmp_path / "fresh.json"
    argv = ["casimir", "--graph", graph, "--method", "both"]
    assert main([*argv, "--output", str(here)]) == 0
    src = str(Path(qg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-m", "qgraph.cli", *argv, "--output", str(fresh)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert here.read_bytes() == fresh.read_bytes()
    assert cli._build_parser() is cli._build_parser()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert qg.__version__ in capsys.readouterr().out


_SCIPY_MODULES_PER_STEP = """
import json, sys
import numpy
# numpy.polynomial too, unless numpy itself imports it (numpy 1.x does)
with_numpy = {name for name in sys.modules if name.startswith("numpy.polynomial")}
import qgraph, qgraph.cli

graph, delta_graph, out = sys.argv[1], sys.argv[2], sys.argv[3]
steps = {}
def loaded(step):
    steps[step] = sorted(name for name in sys.modules if name.split(".")[0] == "scipy"
                         or name.startswith("numpy.polynomial") and name not in with_numpy)
loaded("import")
assert qgraph.cli.main(["spectrum", "--graph", graph, "--kmax", "10", "--output", out]) == 0
loaded("spectrum")
assert qgraph.cli.main(["casimir", "--graph", graph, "--method", "both", "--output", out]) == 0
loaded("both")
assert qgraph.cli.main(["sweep", "--graph", delta_graph, "--from", "1e-6", "--to", "10", "--steps", "5",
                        "--method", "green", "--output", out]) == 0
loaded("sweep-green")
assert qgraph.cli.main(["sweep", "--graph", graph, "--from", "1", "--to", "2", "--steps", "2",
                        "--method", "modesum", "--output", out]) == 0
loaded("sweep-modesum")
print(json.dumps(steps))
"""


def test_no_command_loads_scipy(graph_file, tmp_path):
    # a fresh interpreter: this one has scipy loaded by the tests themselves
    src = str(Path(qg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", _SCIPY_MODULES_PER_STEP, graph_file(INTERVAL),
                          graph_file(two_vertex({"kind": "delta", "gamma": 0.7}), "delta.json"),
                          str(tmp_path / "out.json")],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    steps = json.loads(run.stdout)
    assert steps == dict.fromkeys(["import", "spectrum", "both", "sweep-green", "sweep-modesum"], [])


_MAIN_IN_A_FRESH_INTERPRETER = """
import sys, warnings
warnings.simplefilter("error")
from qgraph.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv, code", [
    # 2 i k overflows at the top of the search
    (["spectrum", "--kmax", "1e308"], 1),
    # the mode sum's cutoff is 961.7/ell, about 9.6e307
    (["casimir", "--method", "modesum"], 0),
], ids=["spectrum-kmax-1e308", "casimir-modesum"])
def test_tiny_interval_answers_or_ends_in_an_error_line(argv, code, graph_file, tmp_path):
    # both once searched forever for roots near the largest double: a fresh
    # interpreter with a timeout, every warning an error
    ell = 1e-305
    out = tmp_path / "x.json"
    src = str(Path(qg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", _MAIN_IN_A_FRESH_INTERPRETER, argv[0],
                          "--graph", graph_file(two_vertex({"kind": "dirichlet"}, ell)), *argv[1:],
                          "--output", str(out)], env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == code, run.stderr
    if code:
        assert run.stderr.splitlines()[-1].startswith("error: ")
        assert "overflows the vertex amplitudes" in run.stderr
        assert not out.exists()
    else:
        result = json.loads(out.read_text())["results"][0]
        assert abs(result["energy"] * ell + math.pi / 24) <= result["estimated_error"] * ell
