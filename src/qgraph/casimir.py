"""Vacuum (Casimir) energy of metric graphs, by two routes.

Green-trace route
    The diagonal trace of the two-vertex Green function, regulated by
    exp(ik tau) with a second tau-derivative applied analytically (multiply
    by (ik)^2), is integrated on the positive imaginary axis k = i kappa,
    where all poles (real eigenvalues) are avoided.  Two non-decaying pieces
    are removed: the bulk free-line term ell/(2ik) and the constant
    high-frequency vertex reflection n_inf/(2 k^2).  Both are pure regulator
    divergences with no finite part.  The regulator is needed only to justify
    dropping them: what is left is absolutely integrable on (0, x_max] in
    x = kappa ell, x_max = -ln(1e-10)/2 = 11.51 for the fixed quadrature
    tolerance 1e-10, so the energy is one quadrature at tau = 0 divided by
    ell, with no regulator sequence and no fit (Bordag, Mohideen &
    Mostepanenko, Phys. Rep. 353, 1 (2001)), and the same graph in other
    length units gives the same E ell.
    A delta end (gamma != 0) leaves a third, gamma/(kappa + gamma), whose
    integral grows like gamma ln(x_max): the self-energy of a delta
    vertex on a half-line (the ell -> infinity limit of the vertex term and
    the heat-kernel boundary term of Bordag et al.).  It does not depend on
    ell, so it exerts no force, and it is subtracted too.  With every end
    the integrand then decays like exp(-2x), and the energy is the
    log-det integral (1/2 pi) int_0^inf log(1 - r^2 exp(-2 kappa ell)) dkappa
    with r = (kappa - gamma)/(kappa + gamma).  The overall normalization is
    frozen once against the Dirichlet cavity benchmark E = -pi/(24 ell) and
    is exactly 1/pi; every other configuration is a prediction.
    The integral is taken by ``_green_integrals`` in numpy, with no scipy:
    panels carry the nested 7-point Gauss / 15-point Kronrod pair (G7/K15;
    Piessens et al., QUADPACK, 1983), the K15 sum is the value and
    |K15 - G7| the error estimate, and a panel is bisected until that
    estimate is within its share of the tolerance.  It integrates many
    g = gamma ell at once, each equal value once and in chunks of a fixed
    byte budget.  A sweep over scales (``_green_sweep``) runs on arrays of
    scales: it checks the graph once, finds the failing scales by array
    comparisons, builds no scaled graph for the others and integrates them
    in one call, and returns arrays of energies and error bounds, with the
    error of each failed scale.  Each scale gets the bits
    :func:`casimir_green_method`, its one-scale case, gives for that scale
    alone.  :func:`casimir_sweep` and :func:`casimir_green_method` wrap the
    arrays into :class:`CasimirResult` objects; ``qgraph sweep`` writes its
    rows straight from them.

Mode-sum route (independent oracle)
    E(tau) = (1/2) sum_n k_n exp(-k_n tau) - L_total/(2 pi tau^2), followed by
    a tau -> 0 extrapolation: a least-squares fit on 1/tau^2, 1, tau^2, ...,
    tau^8, one linear map fixed at import.  That expansion converges only for
    tau inside the shortest periodic orbit 2 l_min (the trace formula:
    Berkolaiko & Kuchment, Introduction to Quantum Graphs, AMS 2013), so the
    window is fixed in units of u = 2 l_min, and the spectrum is found and
    fitted on the graph in those units: the same graph in other length units
    takes the same steps and gives the same E u.  The subtracted Weyl term
    is added back into the reported 1/tau^2 fit amplitude so the divergence
    coefficient can be checked against L/(2 pi u).
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from .errors import ExtrapolationError, InputError, NumericalError, QGraphError, UnsupportedTopologyError
from .graph import Graph, _to_float, total_length, two_vertex_form
from .spectrum import find_eigenvalues

#: Frozen overall normalization of the Green-trace route (see module docstring).
_ENERGY_PREFACTOR = 1.0 / math.pi

#: Fit residual above this fraction of the sample scale is an extrapolation failure.
_RESIDUAL_FRACTION = 1e-6

#: Absolute and relative tolerance of the Green route's quadrature in
#: x = kappa ell; it also sets the truncation x_max = -ln(tol)/2 = 11.51.
_QUADRATURE_TOL = 1e-10


class Method(enum.Enum):
    GREEN_TRACE = "GreenTrace"
    MODE_SUM = "ModeSum"


#: Mode-sum regulator window in units of u = 2 l_min: 0.2 down by 2^-0.5, 8
#: steps, fitted on the even powers _POWERS of tau.
_TAU_WINDOW = tuple(0.2 * (2.0**-0.5) ** j for j in range(8))
_POWERS = (-2, 0, 2, 4, 6, 8)

#: The least-squares fit on the window as one linear map from samples to
#: coefficients: the pseudo-inverse of the design with unit-norm columns.
_DESIGN = np.array(_TAU_WINDOW)[:, None] ** np.array(_POWERS, dtype=float)
_SCALE = np.linalg.norm(_DESIGN, axis=0)
_FIT = np.linalg.pinv(_DESIGN / _SCALE) / _SCALE[:, None]

#: The mode sum's spectrum reaches k_max = _CUTOFF_MARGIN / tau_min: the
#: missing tail is below exp(-34) of the smallest regulator's sum.
_CUTOFF_MARGIN = 34.0


@dataclass(frozen=True)
class CasimirResult:
    """Zero-point energy, its error estimate and route, and the mode sum's samples and fit.

    For the mode sum, ``per_tau_samples`` are the regulated samples and
    ``fit_coefficients`` follow the fit basis order, the leading entry being
    the full 1/tau^2 amplitude of the raw regulated sum (subtracted Weyl
    term added back), both in units of u = 2 l_min: tau and the samples'
    energies are tau/u and E(tau) u, and the leading coefficient is
    L/(2 pi u).  The Green route makes no regulator sequence and no fit, so
    both are empty for it.
    """

    energy: float
    fit_coefficients: tuple[float, ...]
    per_tau_samples: tuple[tuple[float, float], ...]
    method: Method
    estimated_error: float


def _rotated_integrand(g):
    """kappa^2 * (subtracted trace)(i kappa) at tau = 0 as a function of
    x = kappa ell, with g = gamma ell (0 for Dirichlet and single-edge
    Kirchhoff ends, whose reflection is exactly -1 and +1), in a form stable
    at both ends of the contour.  For a delta end it is also less the vertex
    self-energy gamma/(kappa + gamma), subtracted in closed form.  ``g`` and
    the argument ``x`` may be numpy arrays that broadcast together."""

    def f(x):
        xg = x + g
        r = (x - g) / xg
        # 2 g x / xg^2, as two ratios so that nothing overflows at large g
        t = 2.0 * (x / xg) * (g / xg)
        e2 = np.exp(-2.0 * x)
        # 1 - r^2 e2, grouped so every piece is a sum of same-sign terms near x = 0
        den = 2.0 * t * e2 - np.expm1(-2.0 * x)
        # the bounce term -x r^2 e2 / den plus the vertex term less the
        # self-energy, g (1 + r e2) / (xg den) - g / xg = t r e2 / den
        return (t - x * r) * r * e2 / den

    return f


#: The nested 7-point Gauss / 15-point Kronrod pair of QUADPACK's qk15
#: (Piessens et al., QUADPACK, 1983) on [-1, 1]: the Kronrod nodes x >= 0 from
#: the largest down to 0, the Gauss ones being every other, from the second;
#: their Kronrod weights; and the Gauss weights of those every other nodes.
_XGK = np.array([0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
                 0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
                 0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
                 0.207784955007898467600689403773245, 0.0])
_WGK = np.array([0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
                 0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
                 0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
                 0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_WG = np.array([0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
                0.381830050505118944950369775488975, 0.417959183673469387755102040816327])

#: Each panel is integrated by the pair on [0, 1]: the K15 sum is its value and
#: |K15 - G7| its error estimate.  _NODES holds the 15 nodes in ascending order,
#: so the G7 nodes are _NODES[1::2].
_NODES = 0.5 * np.concatenate([1.0 - _XGK[:-1], 1.0 + _XGK[::-1]])
_WEIGHTS_K15 = 0.5 * np.concatenate([_WGK[:-1], _WGK[::-1]])
_WEIGHTS_G7 = 0.5 * np.concatenate([_WG[:-1], _WG[::-1]])

#: The quadrature starts from this many equal panels on (0, x_max].
_FIRST_PANELS = 4

#: A g whose integral takes more panels than this (counting every bisected
#: one, so its depth is capped too) has no integral: ``_green_integrals``
#: returns NaN for it.  Every g >= 0 takes at most 162 at tol 1e-10, and 222
#: at 1e-12 (g near tol^4, whose zero-mode step is graded down to sqrt(g)).
_MAX_PANELS = 400

#: Byte budget of the integrand values of one chunk of panels, 15 nodes
#: each (at least one panel per chunk).  The integrand holds about seven
#: arrays of that size at once, so this caps the quadrature's working set,
#: beside its panel list of a few hundred bytes per g value.
_QUADRATURE_BYTES = 2**16


def _green_integrals(gs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integral of ``_rotated_integrand(g)`` over x in (0, x_max] for each g of
    ``gs``, and its error estimate, with x_max = -ln(tol)/2 and tol
    ``_QUADRATURE_TOL``.

    Equal g values are integrated once.  Every g starts from the same
    ``_FIRST_PANELS`` panels; all live panels of all g are evaluated together,
    one level of bisection at a time, in chunks of ``_QUADRATURE_BYTES``.  A
    panel is kept once K15 and G7 agree to within its share of tol, its
    width over x_max, and is bisected otherwise.  The panel at x = 0 of a
    g >= tol^4 is also bisected until it is no wider than sqrt(g): there the
    reflection of a delta end turns the Kirchhoff zero mode into one at
    kappa ell = sqrt(2 g), whose step in the integrand, of width sqrt(g) and
    weight (pi / sqrt 2) sqrt(g), falls between the nodes of a wider panel
    and would be missed.  A g whose panels outnumber ``_MAX_PANELS`` gets a
    NaN integral and an infinite error.  The sum over a g's panels runs in a
    fixed order, so each g's numbers do not depend on the other values of
    ``gs``.
    """
    tol = _QUADRATURE_TOL
    x_max = -0.5 * math.log(tol)
    unique, back = np.unique(np.asarray(gs, dtype=float), return_inverse=True)
    n = len(unique)
    root = np.sqrt(unique)
    step = np.where(root >= tol * tol, root, np.inf)
    total, error, used = np.zeros(n), np.zeros(n), np.zeros(n, dtype=np.int64)
    rows = max(1, _QUADRATURE_BYTES // (8 * len(_NODES)))

    width = x_max / _FIRST_PANELS
    owner = np.repeat(np.arange(n), _FIRST_PANELS)
    left = np.tile(np.arange(_FIRST_PANELS) * width, n)
    while owner.size:
        coarse, fine = np.empty(owner.size), np.empty(owner.size)
        for lo in range(0, owner.size, rows):
            at = slice(lo, lo + rows)
            f = _rotated_integrand(unique[owner[at], None])(left[at, None] + width * _NODES)
            coarse[at] = (f[:, 1::2] * _WEIGHTS_G7).sum(axis=1)
            fine[at] = (f * _WEIGHTS_K15).sum(axis=1)
        coarse *= width
        fine *= width
        est = np.abs(fine - coarse)
        # NaN never passes, so a NaN integrand runs into the panel cap
        done = (est <= tol * width / x_max) & ~((left == 0.0) & (width > step[owner]))
        total += np.bincount(owner[done], fine[done], minlength=n)
        error += np.bincount(owner[done], est[done], minlength=n)
        used += np.bincount(owner, minlength=n)
        owner, left = owner[~done], left[~done]
        keep = used[owner] <= _MAX_PANELS
        total[owner[~keep]], error[owner[~keep]] = np.nan, np.inf
        owner, left = owner[keep], left[keep]
        width /= 2.0
        owner, left = np.concatenate([owner, owner]), np.concatenate([left, left + width])
    return total[back], error[back]


def _green_sweep(g: Graph, factors: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict[int, QGraphError]]:
    """The Green route on an array of scale factors: for each factor f, the
    energy of ``g.scaled(f)`` and its error bound, both NaN where that scale
    fails, and the error of each failed index.  Only a scale that
    ``g.scaled`` refuses goes through it, for its error; a scale whose
    gamma ell, quadrature, energy or error is not finite gets a
    :class:`NumericalError`."""
    energies, bounds = np.full(factors.size, math.nan), np.full(factors.size, math.nan)
    errors: dict[int, QGraphError] = {}
    lengths = [b.length for b in g.bonds]
    with np.errstate(over="ignore", invalid="ignore"):
        # Graph.scaled refuses a factor or a scaled length outside (0, inf), NaN
        # included; rounding is monotonic, so the shortest and the longest bond
        # are the first to leave
        fits = (factors > 0.0) & (factors < math.inf)
        if lengths:
            fits &= (min(lengths) * factors > 0.0) & (max(lengths) * factors < math.inf)
    for i in np.flatnonzero(~fits).tolist():
        try:
            g.scaled(factors[i].item())
        except QGraphError as exc:
            errors[i] = exc
    try:
        coupling, ell = two_vertex_form(g)
        gamma = coupling.gamma
        if gamma < 0:
            raise UnsupportedTopologyError(
                "attractive couplings (gamma < 0) put a bound-state pole on the "
                "rotated contour; not supported"
            )
    except QGraphError as exc:
        return energies, bounds, {i: errors.get(i, exc) for i in range(factors.size)}

    live = np.flatnonzero(fits)
    ells = ell * factors[live]
    with np.errstate(over="ignore"):
        gls = gamma * ells
    finite = np.isfinite(gls)
    for i, scaled in zip(live[~finite].tolist(), ells[~finite].tolist()):
        errors[i] = NumericalError(f"gamma ell = {gamma!r} * {scaled!r} is beyond the largest double")
    live, ells, gls = live[finite], ells[finite], gls[finite]

    tol = _QUADRATURE_TOL
    x_max = -0.5 * math.log(tol)
    integrals, quad_errs = _green_integrals(gls)
    # truncation bound: |integrand| <= (x + 1/2) e^{-2x} / (1 - e^{-2x}), the
    # 1/2 bounding the subtracted vertex term of delta ends (0 for the others),
    # and e^{-2 x_max} = tol
    tail = (2.0 * x_max + 1.0 + (gamma != 0.0)) * tol / (4.0 * (1.0 - tol))
    with np.errstate(over="ignore"):
        scaled_energies = _ENERGY_PREFACTOR * integrals / ells
        scaled_bounds = _ENERGY_PREFACTOR * (quad_errs + tail) / ells
    converged = np.isfinite(integrals + quad_errs)
    bounded = np.isfinite(scaled_energies) & np.isfinite(scaled_bounds)
    for i, gl in zip(live[~converged].tolist(), gls[~converged].tolist()):
        errors[i] = NumericalError(f"the Green quadrature did not reach its tolerance within {_MAX_PANELS} "
                                   f"panels at gamma ell = {gl!r}")
    at = converged & ~bounded
    for i, energy, bound, scaled in zip(live[at].tolist(), scaled_energies[at].tolist(),
                                        scaled_bounds[at].tolist(), ells[at].tolist()):
        errors[i] = NumericalError(f"Green energy {energy!r} +- {bound!r} is not finite at bond length {scaled!r}")
    at = converged & bounded
    energies[live[at]], bounds[live[at]] = scaled_energies[at], scaled_bounds[at]
    return energies, bounds, errors


def _green_results(g: Graph, factors: np.ndarray) -> list[CasimirResult | QGraphError]:
    """:func:`_green_sweep` as one :class:`CasimirResult` or error per factor."""
    energies, bounds, errors = _green_sweep(g, factors)
    return [errors[i] if i in errors else
            CasimirResult(energy=energy, fit_coefficients=(), per_tau_samples=(), method=Method.GREEN_TRACE,
                          estimated_error=bound)
            for i, (energy, bound) in enumerate(zip(energies.tolist(), bounds.tolist()))]


def casimir_green_method(g: Graph) -> CasimirResult:
    """Zero-point energy from the rotated Green-trace integral.

    ``g`` must be a two-vertex compact graph (one bond, identical couplings,
    gamma >= 0).  The energy is the frozen normalization times the
    quadrature ``_green_integrals`` of the subtracted trace over
    x = kappa ell in (0, 11.51] at tau = 0 and tolerance ``_QUADRATURE_TOL``,
    divided by ell; ``estimated_error`` is the quadrature's error estimate
    plus a bound on the truncated tail, divided by ell.  Raises
    :class:`NumericalError` if gamma ell overflows, if the quadrature does
    not converge, or if the energy or its error is not finite.  This is the
    one-scale case of :func:`casimir_sweep`.
    """
    (result,) = _green_results(g, np.ones(1))
    if isinstance(result, QGraphError):
        raise result
    return result


def casimir_sweep(g: Graph, scales: Iterable[float], method: Method) -> list[CasimirResult | QGraphError]:
    """The energy of ``g.scaled(s)`` for each s of ``scales`` by ``method``:
    its :class:`CasimirResult`, or the :class:`QGraphError` that scale raised.
    A ``method`` that is not a :class:`Method` is an :class:`InputError`.

    The mode sum runs scale by scale.  The Green route works on the array
    of scales.  It checks ``g`` once for the refusals no scale changes (not
    two-vertex, gamma < 0), finds the scales that fail by array comparisons
    (a factor or a scaled length outside (0, inf), a gamma ell beyond the
    largest double), and integrates all the others in one
    ``_green_integrals`` call, building no scaled :class:`Graph` for them.
    Each row equals, bitwise, what :func:`casimir_green_method` gives for
    ``g.scaled(s)``, or carries the same error type and text; a scale beyond
    the double range is an infinity to both routes, as to ``g.scaled``.
    """
    if not isinstance(method, Method):
        raise InputError(f"method must be a Method, got {method!r}")
    if method is Method.GREEN_TRACE:  # a non-real scale is NaN, which g.scaled refuses with the same text
        return _green_results(g, np.array([math.nan if f is None else f for f in map(_to_float, scales)]))
    out: list[CasimirResult | QGraphError] = []
    for s in scales:
        try:
            out.append(casimir_mode_sum(g.scaled(s)))
        except QGraphError as exc:
            out.append(exc)
    return out


def casimir_mode_sum(g: Graph) -> CasimirResult:
    """Zero-point energy from the cutoff-regulated eigenvalue half-sum.

    ``g`` must be compact with at least one bond.  With u = 2 l_min (l_min
    the shortest bond) and the fixed window tau/u = 0.2 (2^-0.5)^j, j = 0..7,
    the spectrum of the graph in units of u (lengths over u, delta strengths
    times u) is found up to k_max = 34 / tau_min = 1,923, about 306 L / l_min
    roots, and E(tau) = (1/2) sum k_n exp(-k_n tau) - L/(2 pi tau^2) is
    fitted in those units on 1/tau^2, 1, tau^2, ..., tau^8 by the map ``_FIT``;
    the limit and ``estimated_error`` (fit residual, the fit's last term at
    the largest tau and a bound on the tail beyond k_max) are divided by u
    once.  Raises :class:`UnsupportedTopologyError` for a graph with leads or
    no bonds, or whose shortest bond is too short for 1/u to be finite (below
    about 2.8e-309), :class:`ExtrapolationError` unless the fit residual is
    within ``_RESIDUAL_FRACTION`` of the largest |sample| (a delta vertex),
    :class:`NumericalError` if the energy or its error is not finite, and whatever :func:`find_eigenvalues` raises
    (:class:`InputError` above its root cap).
    """
    if not g.is_compact or not g.bonds:
        raise UnsupportedTopologyError("the mode sum requires a compact graph (no leads) with bonds")
    l_min = min(b.length for b in g.bonds)
    unit = 2.0 * l_min
    if not math.isfinite(1.0 / unit):
        raise UnsupportedTopologyError(f"the shortest bond, {l_min!r}, is too short to take as the mode sum's unit")
    # the graph in units of u: lengths over u, delta strengths (1/length) times u
    couplings = tuple((v, replace(c, gamma=c.gamma * unit)) for v, c in g.vertices)
    taus, tau_min = _TAU_WINDOW, _TAU_WINDOW[-1]
    spectrum = find_eigenvalues(Graph(couplings, g.scaled(1.0 / unit).bonds), _CUTOFF_MARGIN / tau_min)
    eigs, k_top = np.asarray(spectrum.eigenvalues), spectrum.k_max

    weyl_amplitude = total_length(g) / unit / (2.0 * math.pi)
    samples = tuple(
        (tau, 0.5 * math.fsum(eigs * np.exp(-eigs * tau)) - weyl_amplitude / (tau * tau)) for tau in taus
    )
    values = np.array([v for _, v in samples])
    coeffs = _FIT @ values
    residual = float(np.max(np.abs(_DESIGN @ coeffs - values)))
    value_scale = float(np.max(np.abs(values)))
    if not residual <= _RESIDUAL_FRACTION * value_scale:
        raise ExtrapolationError(f"fit residual {residual:.3e} above {_RESIDUAL_FRACTION:.0e} of the sample scale "
                                 f"{value_scale:.3e}; the basis does not describe these samples", samples)

    # report the full 1/tau^2 amplitude of the raw sum, not the post-subtraction leftover
    coeffs = coeffs.tolist()
    coeffs[0] += weyl_amplitude

    tail = weyl_amplitude * math.exp(-k_top * tau_min) * (k_top / tau_min + 1.0 / tau_min**2)
    fit_err = residual + abs(coeffs[-1]) * taus[0] ** _POWERS[-1]
    energy, estimated_error = coeffs[1] / unit, (tail + fit_err) / unit
    if not (math.isfinite(energy) and math.isfinite(estimated_error)):
        raise NumericalError(f"mode-sum energy {energy!r} +- {estimated_error!r} is not finite at l_min = {l_min!r}")

    return CasimirResult(
        energy=energy,
        fit_coefficients=tuple(coeffs),
        per_tau_samples=samples,
        method=Method.MODE_SUM,
        estimated_error=estimated_error,
    )
