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
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .casimir import CasimirResult, Method, _green_sweep, casimir_green_method, casimir_mode_sum, casimir_sweep
from .errors import InputError, NumericalError, QGraphError, UnsupportedTopologyError
from .graph import Graph, parse_graph, two_vertex_form
from .greens import _lead_star_green, two_vertex_green
from .scattering import cavity_amplitudes
from .spectrum import find_eigenvalues
from .util import complex_to_json, dumps_json, worker_count


#: Most scales one ``sweep`` takes: each holds a row of results and output
#: text, so an unbounded --steps would end in a kill rather than an error.
_MAX_STEPS = 10**6


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


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built at the first call and shared by every later
    one: parsing leaves it as it was, and building it took about 0.8 ms."""
    parser = _Parser(prog="qgraph", description=__doc__.split("\n")[0] if __doc__ else "")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    spectrum = sub.add_parser("spectrum", help="eigenvalues of a compact graph")
    spectrum.add_argument("--graph", required=True, metavar="PATH")
    spectrum.add_argument("--kmax", required=True, type=_finite_float)
    spectrum.add_argument("--output", required=True, metavar="PATH")

    casimir = sub.add_parser("casimir", help="vacuum energy of a graph")
    casimir.add_argument("--graph", required=True, metavar="PATH")
    casimir.add_argument("--method", required=True, choices=["green", "modesum", "both"])
    casimir.add_argument("--output", required=True, metavar="PATH")

    sweep = sub.add_parser("sweep", help="energy versus global length scale (CSV)")
    sweep.add_argument("--graph", required=True, metavar="PATH")
    sweep.add_argument("--from", dest="scale_from", required=True, type=_finite_float)
    sweep.add_argument("--to", dest="scale_to", required=True, type=_finite_float)
    sweep.add_argument("--steps", required=True, type=int)
    sweep.add_argument("--method", required=True, choices=["green", "modesum"])
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


def _load_graph(path: str) -> Graph:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read graph file {path}: {exc}") from exc
    return parse_graph(text)


def _manifest(command: str, graph_path: str, parameters: dict) -> dict:
    # a path whose bytes are not UTF-8 reaches argv with lone surrogates,
    # which no output can encode: those bytes are echoed as \xNN escapes
    return {
        "command": command,
        "graph_path": os.fsencode(graph_path).decode("utf-8", "backslashreplace"),
        "tool_version": __version__,
        "parameters": parameters,
    }


def _write_output(path: str, text: str) -> None:
    data = text.encode("utf-8")  # before the file is opened, so a failure leaves no file
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise InputError(f"cannot write output file {path}: {exc}") from exc


def _parse_complex(raw: str) -> complex:
    parts = raw.split(",")
    if len(parts) != 2:
        raise InputError(f"complex numbers are written as 're,im', got {raw!r}")
    try:
        return complex(_finite_float(parts[0]), _finite_float(parts[1]))
    except argparse.ArgumentTypeError as exc:
        raise InputError(f"invalid complex literal {raw!r}: {exc}") from exc


def _cmd_spectrum(args) -> int:
    g = _load_graph(args.graph)
    result = find_eigenvalues(g, args.kmax)
    payload = {
        "manifest": _manifest("spectrum", args.graph, {"kmax": args.kmax}),
        "eigenvalues": result.eigenvalues,
        "residuals": result.residuals,
        "weyl": {
            "expected": result.weyl_expected,
            "count": result.count,
            "bound": result.weyl_bound,
        },
    }
    _write_output(args.output, dumps_json(payload))
    return 0


def _casimir_result_json(res: CasimirResult) -> dict:
    return {
        "method": res.method.value,
        "energy": res.energy,
        "estimated_error": res.estimated_error,
        "fit_coefficients": res.fit_coefficients,
        "per_tau_samples": res.per_tau_samples,
    }


def _route(method: str):
    # looked up at each call, not stored in a table at import, so a wrapper
    # set on this module's name (a profiler's, say) is the one that runs
    return casimir_green_method if method == "green" else casimir_mode_sum


def _cmd_casimir(args) -> int:
    methods = ["green", "modesum"] if args.method == "both" else [args.method]
    g = _load_graph(args.graph)
    results = [_route(m)(g) for m in methods]
    payload: dict = {
        "manifest": _manifest("casimir", args.graph, {"method": args.method}),
        "results": [_casimir_result_json(r) for r in results],
    }
    if len(results) == 2:
        green_e, mode_e = results[0].energy, results[1].energy
        payload["relative_difference"] = abs(green_e - mode_e) / max(abs(mode_e), 1e-300)
    _write_output(args.output, dumps_json(payload))
    return 0


def _cmd_sweep(args) -> int:
    if args.scale_from <= 0:
        raise InputError("--from must be positive")
    if args.scale_to <= args.scale_from:
        raise InputError("--to must exceed --from")
    if args.steps < 2:
        raise InputError("--steps must be >= 2")
    if args.steps > _MAX_STEPS:
        raise InputError(f"--steps must be <= {_MAX_STEPS}")
    g = _load_graph(args.graph)
    with np.errstate(over="ignore"):  # only the last scale can overflow, and linspace sets it to --to
        scales = np.linspace(args.scale_from, args.scale_to, args.steps).tolist()
    if args.method == "green":
        energies, bounds, errors = _green_sweep(g, np.array(scales))
    else:
        results = casimir_sweep(g, scales, Method.MODE_SUM)
        errors = {i: r for i, r in enumerate(results) if isinstance(r, QGraphError)}
        energies, bounds = np.array([(math.nan, math.nan) if i in errors else (r.energy, r.estimated_error)
                                     for i, r in enumerate(results)]).T

    params = {"method": args.method, "from": args.scale_from, "to": args.scale_to, "steps": args.steps}
    # every row as a scale with its energy and bound, then the failed ones as a scale with its error
    rows = list(map("{!r},{!r},{!r},".format, scales, energies.tolist(), bounds.tolist()))
    for i, exc in errors.items():
        rows[i] = f"{scales[i]!r},NaN,NaN," + str(exc).replace(",", ";").replace("\n", " ")
    lines = ["# manifest = " + dumps_json(_manifest("sweep", args.graph, params), indent=None),
             "scale,energy,estimated_error,error", *rows]
    _write_output(args.output, "\n".join(lines) + "\n")
    return 3 if errors else 0


def _cmd_greens(args) -> int:
    g = _load_graph(args.graph)
    k = _parse_complex(args.k)

    if not g.bonds and g.leads:
        vertex_ids = {lead.vertex for lead in g.leads}
        if len(vertex_ids) != 1:
            raise UnsupportedTopologyError("star form requires all leads at one vertex")
        coupling = g.coupling(next(iter(vertex_ids)))
        decomposition = _lead_star_green(args.lead_in, args.lead_out, args.xi, args.xf, len(g.leads), coupling, k)
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
    _write_output(args.output, dumps_json(payload))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        worker_count()  # validates QGRAPH_THREADS for every subcommand
        commands = {"spectrum": _cmd_spectrum, "casimir": _cmd_casimir,
                    "sweep": _cmd_sweep, "greens": _cmd_greens}
        return commands[args.command](args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except QGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
