"""Command-line front end.

Four subcommands: ``spectrum`` (eigenvalues of a compact graph), ``casimir``
(vacuum energy by the Green-trace and/or mode-sum route), ``sweep`` (energy
versus a global length scale, CSV), and ``greens`` (pointwise Green-function
values).  Every output file embeds a manifest echoing the resolved numeric
parameters, so any result can be reproduced byte-identically from its own
header.  Exit codes: 0 success, 1 input error, 2 numerical failure, 3 partial
sweep failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import __version__
from .casimir import (
    CasimirResult,
    Method,
    RegularizationConfig,
    casimir_green_method,
    casimir_mode_sum,
    default_tau_window,
    geometric_taus,
)
from .errors import InputError, NumericalError, QGraphError, UnsupportedTopologyError
from .graph import Graph, parse_graph, total_length, two_vertex_form
from .greens import star_green, two_vertex_green
from .scattering import build_vertex_smatrix, cavity_amplitudes
from .spectrum import find_eigenvalues, weyl_count
from .util import complex_to_json, dumps_json, fmt_float, worker_count

_METHODS = {"green": Method.GREEN_TRACE, "modesum": Method.MODE_SUM}
_SPECTRUM_TOL = 1e-10
_TAIL_MARGIN = 34.0  # k_max * tau_min for mode-sum spectra; precondition is 30


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 on flag errors; the contract is 1
        raise InputError(message)


def _finite_float(raw: str) -> float:
    """Type of every float flag: NaN and infinities are flag errors."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {raw!r}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="qgraph", description=__doc__.split("\n")[0] if __doc__ else "")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    spectrum = sub.add_parser("spectrum", help="eigenvalues of a compact graph")
    spectrum.add_argument("--graph", required=True, metavar="PATH")
    spectrum.add_argument("--kmax", required=True, type=_finite_float)
    spectrum.add_argument("--tol", type=_finite_float, default=_SPECTRUM_TOL)
    spectrum.add_argument("--output", required=True, metavar="PATH")

    casimir = sub.add_parser("casimir", help="vacuum energy of a graph")
    casimir.add_argument("--graph", required=True, metavar="PATH")
    casimir.add_argument("--method", required=True, choices=["green", "modesum", "both"])
    _add_regularization_flags(casimir)
    casimir.add_argument("--output", required=True, metavar="PATH")

    sweep = sub.add_parser("sweep", help="energy versus global length scale (CSV)")
    sweep.add_argument("--graph", required=True, metavar="PATH")
    sweep.add_argument("--from", dest="scale_from", required=True, type=_finite_float)
    sweep.add_argument("--to", dest="scale_to", required=True, type=_finite_float)
    sweep.add_argument("--steps", required=True, type=int)
    sweep.add_argument("--method", required=True, choices=["green", "modesum"])
    _add_regularization_flags(sweep)
    sweep.add_argument("--output", required=True, metavar="PATH.csv")

    greens = sub.add_parser("greens", help="pointwise Green-function values")
    greens.add_argument("--graph", required=True, metavar="PATH")
    greens.add_argument("--k", required=True, metavar="RE,IM")
    greens.add_argument("--xi", required=True, type=_finite_float)
    greens.add_argument("--xf", required=True, type=_finite_float)
    greens.add_argument("--lead-in", type=int, default=0)
    greens.add_argument("--lead-out", type=int, default=0)
    greens.add_argument("--output", required=True, metavar="PATH")

    return parser


def _add_regularization_flags(sub) -> None:
    sub.add_argument("--tau-min", type=_finite_float, default=None)
    sub.add_argument("--tau-max", type=_finite_float, default=None)
    sub.add_argument("--tau-steps", type=int, default=None)
    sub.add_argument("--quad-tol", type=_finite_float, default=1e-10)
    sub.add_argument("--kappa-max", type=_finite_float, default=None)
    sub.add_argument("--fit-order", type=int, default=5)


def _resolve_taus(tau_min: float, tau_max: float, steps: int) -> tuple[float, ...]:
    """Geometric regulator sequence from tau_max down to tau_min.

    This resolver is the single code path for both defaults and flags, so a
    manifest echoing (tau_min, tau_max, tau_steps) reproduces the sequence
    bit-exactly; for the default window it is the library's default sequence.
    """
    if steps < 3:
        raise InputError("--tau-steps must be >= 3")
    if not (0 < tau_min < tau_max):
        raise InputError("--tau-min and --tau-max must satisfy 0 < tau-min < tau-max")
    return geometric_taus(tau_max, steps, (tau_min / tau_max) ** (1.0 / (steps - 1)))


def _tau_window(args, method: str) -> tuple[float, float, int]:
    given = [args.tau_min is not None, args.tau_max is not None, args.tau_steps is not None]
    if any(given) and not all(given):
        raise InputError("--tau-min, --tau-max and --tau-steps must be given together")
    if all(given):
        return args.tau_min, args.tau_max, args.tau_steps
    return default_tau_window(_METHODS[method])


def _load_graph(path: str) -> Graph:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read graph file {path}: {exc}") from exc
    return parse_graph(text)


def _manifest(command: str, graph_path: str, parameters: dict) -> dict:
    return {
        "command": command,
        "graph_path": graph_path,
        "tool_version": __version__,
        "parameters": parameters,
    }


def _write_output(path: str, payload: dict) -> None:
    Path(path).write_text(dumps_json(payload), encoding="utf-8")


def _parse_complex(raw: str) -> complex:
    parts = raw.split(",")
    if len(parts) != 2:
        raise InputError(f"complex numbers are written as 're,im', got {raw!r}")
    try:
        return complex(_finite_float(parts[0]), _finite_float(parts[1]))
    except argparse.ArgumentTypeError as exc:
        raise InputError(f"invalid complex literal {raw!r}: {exc}") from exc


def _cmd_spectrum(args) -> int:
    if args.kmax <= 0:
        raise InputError("--kmax must be positive")
    if args.tol <= 0:
        raise InputError("--tol must be positive")
    g = _load_graph(args.graph)
    if not g.is_compact:
        raise UnsupportedTopologyError("spectrum requires compact graph")
    result = find_eigenvalues(g, args.kmax, args.tol)
    payload = {
        "manifest": _manifest("spectrum", args.graph, {"kmax": args.kmax, "tol": args.tol}),
        "eigenvalues": list(result.eigenvalues),
        "residuals": list(result.residuals),
        "weyl": {
            "expected": result.weyl_expected,
            "count": result.count,
            "bound": len(g.vertices) + len(g.bonds),
        },
    }
    _write_output(args.output, payload)
    return 0


def _casimir_result_json(res: CasimirResult) -> dict:
    return {
        "method": res.method.value,
        "energy": res.energy,
        "estimated_error": res.estimated_error,
        "fit_coefficients": list(res.fit_coefficients),
        "per_tau_samples": [[t, v] for t, v in res.per_tau_samples],
        "kappa_max": res.kappa_max,
        "quadrature_tol": res.quadrature_tol,
    }


def _method_setup(method: str, args) -> tuple[RegularizationConfig, dict]:
    """Resolved regulator settings of one route and the manifest parameters
    echoing them."""
    tau_min, tau_max, steps = _tau_window(args, method)
    cfg = RegularizationConfig(
        tau_values=_resolve_taus(tau_min, tau_max, steps),
        quadrature_tol=args.quad_tol,
        kappa_max=args.kappa_max,
        fit_order=args.fit_order,
    )
    params = {
        "tau_min": tau_min,
        "tau_max": tau_max,
        "tau_steps": steps,
        "quad_tol": args.quad_tol,
        "kappa_max": args.kappa_max,
        "fit_order": args.fit_order,
    }
    if method == "modesum":
        params["spectrum_k_max"] = _TAIL_MARGIN / cfg.tau_values[-1]
        params["spectrum_tol"] = _SPECTRUM_TOL
    return cfg, params


def _run_method(g: Graph, method: str, cfg: RegularizationConfig, params: dict) -> CasimirResult:
    if method == "green":
        return casimir_green_method(g, cfg)
    spectrum = find_eigenvalues(g, params["spectrum_k_max"], _SPECTRUM_TOL)
    return casimir_mode_sum(spectrum.eigenvalues, total_length(g), cfg)


def _cmd_casimir(args) -> int:
    g = _load_graph(args.graph)
    methods = ["green", "modesum"] if args.method == "both" else [args.method]
    setups = {m: _method_setup(m, args) for m in methods}
    results = [_run_method(g, m, *setups[m]) for m in methods]
    params: dict = {"method": args.method}
    if args.method == "both":
        for m in methods:
            params[m] = setups[m][1]
    else:
        params.update(setups[args.method][1])
    payload: dict = {
        "manifest": _manifest("casimir", args.graph, params),
        "results": [_casimir_result_json(r) for r in results],
    }
    if len(results) == 2:
        green_e, mode_e = results[0].energy, results[1].energy
        payload["relative_difference"] = abs(green_e - mode_e) / max(abs(mode_e), 1e-300)
    _write_output(args.output, payload)
    return 0


def _cmd_sweep(args) -> int:
    if args.scale_from <= 0:
        raise InputError("--from must be positive")
    if args.scale_to <= args.scale_from:
        raise InputError("--to must exceed --from")
    if args.steps < 2:
        raise InputError("--steps must be >= 2")
    g = _load_graph(args.graph)
    span = args.scale_to - args.scale_from
    scales = [args.scale_from + span * i / (args.steps - 1) for i in range(args.steps)]

    cfg, method_params = _method_setup(args.method, args)

    rows = []
    for scale in scales:
        try:
            res = _run_method(g.scaled(scale), args.method, cfg, method_params)
            rows.append((scale, res.energy, res.estimated_error, ""))
        except QGraphError as exc:
            rows.append((scale, float("nan"), float("nan"), str(exc)))

    params = {
        "method": args.method,
        "from": args.scale_from,
        "to": args.scale_to,
        "steps": args.steps,
    }
    params.update(method_params)
    manifest = _manifest("sweep", args.graph, params)

    lines = ["# manifest = " + dumps_json(manifest, indent=None)]
    lines.append("scale,energy,estimated_error,error")
    for scale, energy, err, message in rows:
        message = message.replace(",", ";").replace("\n", " ")
        lines.append(f"{fmt_float(scale)},{fmt_float(energy)},{fmt_float(err)},{message}")
    Path(args.output).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 3 if any(message for *_, message in rows) else 0


def _cmd_greens(args) -> int:
    g = _load_graph(args.graph)
    k = _parse_complex(args.k)

    if not g.bonds and g.leads:
        vertex_ids = {lead.vertex for lead in g.leads}
        if len(vertex_ids) != 1:
            raise UnsupportedTopologyError("star form requires all leads at one vertex")
        coupling = g.coupling(next(iter(vertex_ids)))
        s = build_vertex_smatrix(len(g.leads), coupling, k)
        decomposition = star_green(args.lead_in, args.lead_out, args.xi, args.xf, s)
    else:
        coupling, ell = two_vertex_form(g)
        if args.lead_in or args.lead_out:
            raise InputError("--lead-in and --lead-out apply to a star of leads only")
        decomposition = two_vertex_green(args.xi, args.xf, cavity_amplitudes(coupling, ell, k))

    payload = {
        "manifest": _manifest(
            "greens",
            args.graph,
            {
                "k_re": k.real,
                "k_im": k.imag,
                "xi": args.xi,
                "xf": args.xf,
                "lead_in": args.lead_in,
                "lead_out": args.lead_out,
            },
        ),
        "k": complex_to_json(k),
        "x_initial": decomposition.x_initial,
        "x_final": decomposition.x_final,
        "total": complex_to_json(decomposition.total),
        "free_part": complex_to_json(decomposition.free_part),
        "gamma_part": complex_to_json(decomposition.gamma_part),
    }
    _write_output(args.output, payload)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        worker_count()  # validates QGRAPH_THREADS for every subcommand
        if args.command == "spectrum":
            return _cmd_spectrum(args)
        if args.command == "casimir":
            return _cmd_casimir(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "greens":
            return _cmd_greens(args)
        raise InputError(f"unknown command {args.command!r}")
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except QGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
