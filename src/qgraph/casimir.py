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
from dataclasses import dataclass

import numpy as np

from .errors import ExtrapolationError, InputError, NumericalError, UnsupportedTopologyError
from .graph import CouplingKind, Graph, delta, total_length, two_vertex_form
from .spectrum import find_eigenvalues

#: Frozen overall normalization of the Green-trace route (see module docstring).
ENERGY_PREFACTOR = 1.0 / math.pi

#: Fit residual above this fraction of the sample scale is an extrapolation failure.
RESIDUAL_FRACTION = 1e-6

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
    """Zero-point energy with the diagnostics of its route.

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


def _rotated_integrand(g: float):
    """kappa^2 * (subtracted trace)(i kappa) at tau = 0 as a function of
    x = kappa ell, with g = gamma ell, in a form stable at both ends of the
    contour.  For a delta end it is also less the vertex self-energy
    gamma/(kappa + gamma), subtracted in closed form."""
    if g == 0.0:
        # end reflection is exactly -1 (dirichlet) or +1 (single-edge kirchhoff)

        def f(x: float) -> float:
            return -x / math.expm1(2.0 * x)

        return f

    def f(x: float) -> float:
        xg = x + g
        r = (x - g) / xg
        e2 = math.exp(-2.0 * x)
        # 1 - r^2 e2, grouped so every piece is a sum of same-sign terms near x = 0
        den = -math.expm1(-2.0 * x) + e2 * (4.0 * x * g) / (xg * xg)
        # the bounce term -x r^2 e2 / den plus the vertex term less the
        # self-energy, g (1 + r e2) / (xg den) - g / xg = 2 g x r e2 / (xg^2 den)
        return (2.0 * g * x / (xg * xg) - x * r) * r * e2 / den

    return f


def casimir_green_method(g: Graph) -> CasimirResult:
    """Zero-point energy from the rotated Green-trace integral.

    ``g`` must be a two-vertex compact graph (one bond, identical couplings,
    gamma >= 0).  The energy is the frozen normalization times one adaptive
    quadrature of the subtracted trace over x = kappa ell in (0, 11.51] at
    tau = 0 and tolerance ``_QUADRATURE_TOL``, divided by ell;
    ``estimated_error`` is the quadrature error plus a bound on the truncated
    tail, divided by ell.  Raises :class:`NumericalError` if either is not
    finite.
    """
    # imported here, not with the module: scipy.integrate takes most of a
    # CLI call's start-up, and only this route needs it
    from scipy.integrate import quad

    coupling, ell = two_vertex_form(g)
    gamma = 0.0 if coupling.is_dirichlet else coupling.effective_gamma()
    if gamma < 0:
        raise UnsupportedTopologyError(
            "attractive couplings (gamma < 0) put a bound-state pole on the "
            "rotated contour; not supported"
        )
    tol = _QUADRATURE_TOL
    x_max = -0.5 * math.log(tol)
    integral, quad_err = quad(_rotated_integrand(gamma * ell), 0.0, x_max, epsabs=tol, epsrel=tol, limit=400)

    # truncation bound: |integrand| <= (x + 1/2) e^{-2x} / (1 - e^{-2x}), the
    # 1/2 bounding the subtracted vertex term of delta ends (0 for the others),
    # and e^{-2 x_max} = tol
    tail = (2.0 * x_max + 1.0 + (gamma != 0.0)) * tol / (4.0 * (1.0 - tol))
    energy = ENERGY_PREFACTOR * integral / ell
    estimated_error = ENERGY_PREFACTOR * (quad_err + tail) / ell
    if not (math.isfinite(energy) and math.isfinite(estimated_error)):
        raise NumericalError(f"Green energy {energy!r} +- {estimated_error!r} is not finite at bond length {ell!r}")

    return CasimirResult(energy=energy, fit_coefficients=(), per_tau_samples=(), method=Method.GREEN_TRACE,
                         estimated_error=estimated_error)


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
    within ``RESIDUAL_FRACTION`` of the largest |sample| (a delta vertex),
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
    couplings = tuple((v, delta(c.gamma * unit) if c.kind is CouplingKind.DELTA else c) for v, c in g.vertices)
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
    if not residual <= RESIDUAL_FRACTION * value_scale:
        raise ExtrapolationError(f"fit residual {residual:.3e} above {RESIDUAL_FRACTION:.0e} of the sample scale "
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
