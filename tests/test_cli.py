import json
import math

import pytest

import qgraph as qg
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
        assert abs(payload["weyl"]["count"] - payload["weyl"]["expected"]) <= payload["weyl"]["bound"]

    def test_open_graph_is_input_error(self, graph_file, tmp_path, capsys):
        code = main(
            ["spectrum", "--graph", graph_file(OPEN_STAR3), "--kmax", "10",
             "--output", str(tmp_path / "x.json")]
        )
        assert code == 1
        assert "compact" in capsys.readouterr().err

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

    def test_partial_tau_flags_rejected(self, graph_file, tmp_path):
        code = main(
            ["casimir", "--graph", graph_file(INTERVAL), "--method", "green",
             "--tau-min", "0.01", "--output", str(tmp_path / "x.json")]
        )
        assert code == 1


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
    "spectrum-tol": ["spectrum", "--kmax", "10", "--tol", "nan"],
    "spectrum-kmax": ["spectrum", "--kmax", "inf"],
    "greens-xi": ["greens", "--k", "1.3,0", "--xi", "nan", "--xf", "0.5"],
    "greens-xf": ["greens", "--k", "1.3,0", "--xi", "0.5", "--xf=-inf"],
    "greens-k-nan": ["greens", "--k", "nan,0", "--xi", "0.5", "--xf", "0.5"],
    "greens-k-inf": ["greens", "--k", "inf,0", "--xi", "0.5", "--xf", "0.5"],
    "greens-k-imag": ["greens", "--k", "1.3,1e400", "--xi", "0.5", "--xf", "0.5"],
    "casimir-kappa-max-nan": ["casimir", "--method", "green", "--kappa-max", "nan"],
    "casimir-kappa-max-inf": ["casimir", "--method", "green", "--kappa-max", "inf"],
    "casimir-quad-tol": ["casimir", "--method", "green", "--quad-tol", "nan"],
    "casimir-tau-min": ["casimir", "--method", "modesum", "--tau-min", "nan",
                        "--tau-max", "0.2", "--tau-steps", "8"],
    "sweep-to": ["sweep", "--from", "1", "--to", "inf", "--steps", "2", "--method", "green"],
    "sweep-from": ["sweep", "--from", "nan", "--to", "2", "--steps", "2", "--method", "green"],
}


@pytest.mark.parametrize("argv", NONFINITE_FLAGS.values(), ids=NONFINITE_FLAGS.keys())
def test_nonfinite_flags_are_input_errors(argv, graph_file, tmp_path, capsys):
    out = tmp_path / "x.out"
    assert main([argv[0], "--graph", graph_file(INTERVAL), *argv[1:], "--output", str(out)]) == 1
    assert "finite" in capsys.readouterr().err
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
        assert main(["spectrum", "--graph", graph, "--kmax", "12.5", "--tol", "1e-11",
                     "--output", str(out1)]) == 0
        manifest = json.loads(out1.read_text())["manifest"]
        p = manifest["parameters"]
        assert main(["spectrum", "--graph", manifest["graph_path"],
                     "--kmax", fmt_float(p["kmax"]), "--tol", fmt_float(p["tol"]),
                     "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_casimir_manifest_reproduces_output(self, graph_file, tmp_path):
        graph = graph_file(INTERVAL)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["casimir", "--graph", graph, "--method", "green",
                     "--tau-min", "0.013", "--tau-max", "0.17", "--tau-steps", "9",
                     "--quad-tol", "1e-11", "--output", str(out1)]) == 0
        manifest = json.loads(out1.read_text())["manifest"]
        p = manifest["parameters"]
        argv = ["casimir", "--graph", manifest["graph_path"], "--method", p["method"],
                "--tau-min", fmt_float(p["tau_min"]), "--tau-max", fmt_float(p["tau_max"]),
                "--tau-steps", str(p["tau_steps"]), "--quad-tol", fmt_float(p["quad_tol"]),
                "--fit-order", str(p["fit_order"]), "--output", str(out2)]
        if p["kappa_max"] is not None:
            argv += ["--kappa-max", fmt_float(p["kappa_max"])]
        assert main(argv) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_sweep_manifest_reproduces_output(self, graph_file, tmp_path):
        graph = graph_file(INTERVAL)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--graph", graph, "--from", "0.8", "--to", "1.6",
                     "--steps", "3", "--method", "green", "--output", str(out1)]) == 0
        manifest = json.loads(out1.read_text().split("\n")[0][len("# manifest = "):])
        p = manifest["parameters"]
        assert main(["sweep", "--graph", manifest["graph_path"],
                     "--from", fmt_float(p["from"]), "--to", fmt_float(p["to"]),
                     "--steps", str(p["steps"]), "--method", p["method"],
                     "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_floats_have_17_significant_digits(self, graph_file, tmp_path):
        out = tmp_path / "g.json"
        main(["greens", "--graph", graph_file(WALL), "--k", "1.1,0", "--xi", "0.25", "--xf", "0.5",
              "--output", str(out)])
        text = out.read_text()
        # a value with a long mantissa round-trips exactly
        payload = json.loads(text)
        value = payload["gamma_part"]["re"]
        assert fmt_float(value) in text


def test_star_modesum_divergence_coefficient(graph_file, tmp_path):
    out = tmp_path / "cas.json"
    code = main(
        ["casimir", "--graph", graph_file(STAR3), "--method", "modesum",
         "--tau-min", "0.0625", "--tau-max", "0.5", "--tau-steps", "8",
         "--output", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    result = payload["results"][0]
    assert math.isfinite(result["energy"])
    assert result["fit_coefficients"][0] == pytest.approx(3.0 / (2 * math.pi), rel=0.01)


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


@pytest.mark.parametrize("method, start", [("green", 0.1), ("modesum", 0.2)])
def test_default_regulator_window_is_the_library_default(method, start, graph_file, tmp_path):
    out = tmp_path / "cas.json"
    assert main(["casimir", "--graph", graph_file(INTERVAL), "--method", method,
                 "--output", str(out)]) == 0
    samples = json.loads(out.read_text())["results"][0]["per_tau_samples"]
    assert [t for t, _ in samples] == list(qg.geometric_taus(start))


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert qg.__version__ in capsys.readouterr().out
