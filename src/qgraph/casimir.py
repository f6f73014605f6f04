"""Regularized vacuum (Casimir) energy of metric graphs, by two routes.

Green-trace route
    The diagonal trace of the two-vertex Green function is integrated over
    wavenumber with an exp(ik tau) regulator and a second tau-derivative
    applied analytically (multiply by (ik)^2).  The contour is rotated to the
    positive imaginary axis k = i kappa, where all poles (real eigenvalues)
    are avoided.  Two non-decaying pieces are removed: the bulk free-line
    term ell/(2ik) and the constant high-frequency vertex reflection
    n_inf/(2 k^2).  Both are pure regulator divergences with no finite part,
    so removing them leaves the tau -> 0 limit untouched.  With dirichlet or
    kirchhoff ends what is left decays like exp(-2 kappa ell); with delta
    ends (gamma != 0) it keeps a gamma/kappa tail that only the regulator
    cuts off, which neither the truncation at kappa_max nor the reported
    ``estimated_error`` accounts for.  The overall normalization is frozen
    once against the Dirichlet cavity benchmark E = -pi/(24 ell) and is
    exactly 1/pi; every other configuration is a prediction.

Mode-sum route (independent oracle)
    E(tau) = (1/2) sum_n k_n exp(-k_n tau) - L_total/(2 pi tau^2), followed by
    a tau -> 0 extrapolation on an even-power basis.  The subtracted Weyl term
    is added back into the reported 1/tau^2 fit amplitude so the divergence
    coefficient can be checked against L_total/(2 pi).

Both routes share :func:`extrapolate_tau`.  The mode-sum samples expand in
even powers of tau; the rotated Green-trace samples are analytic in tau with
both parities present, so that route fits plain polynomial powers instead.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.integrate import quad

from .errors import (
    ExtrapolationError,
    InputError,
    InsufficientSpectrumError,
    UnsupportedTopologyError,
)
from .graph import Graph, VertexCoupling, two_vertex_form
from .greens import trace_gamma
from .scattering import CavityAmplitudes

#: Frozen overall normalization of the Green-trace route (see module docstring).
ENERGY_PREFACTOR = 1.0 / math.pi

#: Fit residual above this fraction of the sample scale is an extrapolation failure.
RESIDUAL_FRACTION = 1e-6


class Method(enum.Enum):
    GREEN_TRACE = "GreenTrace"
    MODE_SUM = "ModeSum"


#: Largest regulator of each route's default window (see RegularizationConfig).
DEFAULT_TAU_MAX = {Method.GREEN_TRACE: 0.1, Method.MODE_SUM: 0.2}
_TAU_STEPS = 8
_TAU_RATIO_LOG2 = -0.5
_TAU_RATIO = 2.0 ** _TAU_RATIO_LOG2


def geometric_taus(
    start: float, count: int = _TAU_STEPS, ratio: float = _TAU_RATIO
) -> tuple[float, ...]:
    """Decreasing geometric regulator sequence, e.g. 0.2, 0.141, 0.1, ..."""
    return tuple(start * ratio**j for j in range(count))


def default_tau_window(method: Method) -> tuple[float, float, int]:
    """(tau_min, tau_max, steps) spanned by the default ``geometric_taus(tau_max)``.

    tau_min is tau_max times the exact power of two ratio^(steps - 1), which
    is within an ulp of, not bitwise, the last regulator of the sequence.
    """
    tau_max = DEFAULT_TAU_MAX[method]
    return tau_max * 2.0 ** (_TAU_RATIO_LOG2 * (_TAU_STEPS - 1)), tau_max, _TAU_STEPS


@dataclass(frozen=True)
class RegularizationConfig:
    """Regulator settings shared by both energy routes.

    ``tau_values`` must be strictly decreasing positive values, at least
    three of them; ``None`` selects the per-method default (geometric with
    ratio 1/sqrt(2), 8 points, starting at 0.2 for the mode sum and 0.1 for
    the Green trace, where smaller regulators cost nothing because the
    integrand decay is set by the geometry).  ``kappa_max`` of ``None``
    resolves to max(1, -ln(quadrature_tol)/(2 ell)), a truncation with
    exp(-2 kappa_max ell)/kappa_max < quadrature_tol but not the smallest.
    A field out of range raises :class:`InputError`.
    """

    tau_values: tuple[float, ...] | None = None
    quadrature_tol: float = 1e-10
    kappa_max: float | None = None
    fit_order: int = 5

    def __post_init__(self):
        if self.tau_values is not None:
            taus = tuple(float(t) for t in self.tau_values)
            if len(taus) < 3:
                raise InputError("tau_values needs at least 3 entries")
            if any(not 0 < t < math.inf for t in taus):
                raise InputError("tau_values must be positive and finite")
            if any(b >= a for a, b in zip(taus, taus[1:])):
                raise InputError("tau_values must be strictly decreasing")
            object.__setattr__(self, "tau_values", taus)
        if not 0 < self.quadrature_tol < math.inf:
            raise InputError("quadrature_tol must be positive and finite")
        if self.kappa_max is not None and not 0 < self.kappa_max < math.inf:
            raise InputError("kappa_max must be positive and finite")
        if self.fit_order < 1:
            raise InputError("fit_order must be >= 1")


@dataclass(frozen=True)
class CasimirResult:
    """Extrapolated zero-point energy with regulator diagnostics.

    ``fit_coefficients`` follow the fit basis order; for the mode sum the
    leading entry is the full 1/tau^2 amplitude of the raw regulated sum
    (subtracted Weyl term added back).  ``kappa_max`` and ``quadrature_tol``
    echo the resolved settings of the run (zero/irrelevant for the mode sum).
    """

    energy: float
    fit_coefficients: tuple[float, ...]
    per_tau_samples: tuple[tuple[float, float], ...]
    method: Method
    estimated_error: float
    kappa_max: float = 0.0
    quadrature_tol: float = 0.0


def extrapolate_tau(
    samples: Sequence[tuple[float, float]],
    fit_order: int,
    powers: Sequence[int] | None = None,
) -> tuple[float, list[float], float]:
    """Least-squares tau -> 0 limit of regulated samples.

    The default basis is 1/tau^2, 1, tau^2, ... (even powers, fit_order + 1
    terms), which matches the mode-sum expansion; ``powers`` overrides the
    exponent list for integrands with both parities.  Returns the constant
    term (the limit), all coefficients in basis order, and the maximum
    absolute fit residual.  Raises :class:`ExtrapolationError` on a
    rank-deficient system or when the residual exceeds a 1e-6 fraction of
    the sample scale.
    """
    samples = [(float(t), float(v)) for t, v in samples]
    if powers is None:
        powers = [-2] + [2 * j for j in range(fit_order)]
    else:
        powers = list(powers)
    if 0 not in powers:
        raise InputError("the fit basis must contain the constant term")
    if len(samples) < len(powers):
        raise ExtrapolationError(
            f"need at least {len(powers)} samples for a {len(powers)}-parameter fit, "
            f"got {len(samples)}",
            samples,
        )
    taus = np.array([t for t, _ in samples])
    values = np.array([v for _, v in samples])
    if np.any(taus <= 0) or len(np.unique(taus)) != len(taus):
        raise ExtrapolationError("tau values must be positive and distinct", samples)

    design = np.column_stack([taus ** float(p) for p in powers])
    scale = np.linalg.norm(design, axis=0)
    coeffs_scaled, _, rank, _ = np.linalg.lstsq(design / scale, values, rcond=None)
    if rank < len(powers):
        raise ExtrapolationError("rank-deficient fit: tau values too clustered", samples)
    coeffs = coeffs_scaled / scale

    fitted = design @ coeffs
    residual = float(np.max(np.abs(fitted - values)))
    value_scale = float(np.max(np.abs(values)))
    if residual > RESIDUAL_FRACTION * max(value_scale, 1e-300):
        raise ExtrapolationError(
            f"fit residual {residual:.3e} above {RESIDUAL_FRACTION:.0e} of the sample "
            f"scale {value_scale:.3e}; the basis does not describe these samples",
            samples,
        )
    limit = float(coeffs[powers.index(0)])
    return limit, [float(c) for c in coeffs], residual


def casimir_integrand(tau: float, ca: CavityAmplitudes, reflection_at_infinity: float = 0.0) -> complex:
    """Regulated trace integrand of the two-vertex graph at k = ``ca.k``.

    The closed-form diagonal trace with the free-line term ell/(2ik)
    subtracted (the piece surviving when r = 0), times the
    regulator exp(ik tau).  ``reflection_at_infinity`` additionally removes
    the constant vertex term n_inf/(2 k^2), the high-frequency limit of the
    end reflection; without it the integrand keeps a power-law tail on
    the imaginary axis.
    """
    if tau < 0:
        raise InputError("tau must be >= 0")
    k = ca.k
    value = trace_gamma(ca) - ca.ell / (2j * k) - reflection_at_infinity / (2 * k * k)
    return value * cmath.exp(1j * k * tau)


def reflection_at_infinity(coupling: VertexCoupling) -> float:
    """High-frequency limit of the single-edge reflection on the rotated axis."""
    return -1.0 if coupling.is_dirichlet else 1.0


def _rotated_integrand(coupling: VertexCoupling, ell: float):
    """kappa^2 * (subtracted trace)(i kappa) * exp(-kappa tau), in a form
    stable at both ends of the contour."""
    if coupling.is_dirichlet or coupling.effective_gamma() == 0.0:
        # end reflection is exactly -1 (dirichlet) or +1 (single-edge kirchhoff)

        def f(kappa: float, tau: float) -> float:
            if kappa <= 0.0:
                return -0.5
            # expm1 raises OverflowError past ~709, not inf; the term is < 1e-300 here
            x = 2.0 * kappa * ell
            if x > 700.0:
                return 0.0
            return -kappa * ell * math.exp(-kappa * tau) / math.expm1(x)

        return f

    gamma = coupling.effective_gamma()

    def f(kappa: float, tau: float) -> float:
        if kappa <= 0.0:
            kappa = 1e-300
        r = (kappa - gamma) / (kappa + gamma)
        e2 = math.exp(-2.0 * kappa * ell)
        one_minus_e2 = -math.expm1(-2.0 * kappa * ell)
        # grouped so every piece is a sum of same-sign terms near kappa = 0
        den = one_minus_e2 + e2 * (4.0 * kappa * gamma) / (kappa + gamma) ** 2
        one_plus_re2 = one_minus_e2 + e2 * (2.0 * kappa) / (kappa + gamma)
        bounce = -kappa * ell * r * r * e2 / den
        vertex = gamma * one_plus_re2 / ((kappa + gamma) * den)
        return (bounce + vertex) * math.exp(-kappa * tau)

    return f


def casimir_green_method(g: Graph, cfg: RegularizationConfig | None = None) -> CasimirResult:
    """Zero-point energy from the rotated Green-trace integral.

    ``g`` must be a two-vertex compact graph (one bond, identical couplings,
    gamma >= 0).  For each regulator value the subtracted trace is
    integrated over kappa in (0, kappa_max] by adaptive quadrature; the
    tau -> 0 limit is read off a polynomial fit and scaled by the frozen
    normalization.
    """
    cfg = cfg or RegularizationConfig()
    coupling, ell = two_vertex_form(g)
    if coupling.kind.value == "delta" and coupling.gamma < 0:
        raise UnsupportedTopologyError(
            "attractive couplings (gamma < 0) put a bound-state pole on the "
            "rotated contour; not supported"
        )
    taus = cfg.tau_values or geometric_taus(DEFAULT_TAU_MAX[Method.GREEN_TRACE])
    kappa_max = cfg.kappa_max or max(1.0, -math.log(cfg.quadrature_tol) / (2.0 * ell))
    integrand = _rotated_integrand(coupling, ell)

    integrals = [
        quad(
            integrand,
            0.0,
            kappa_max,
            args=(tau,),
            epsabs=cfg.quadrature_tol,
            epsrel=cfg.quadrature_tol,
            limit=400,
        )
        for tau in taus
    ]
    samples = tuple((t, ENERGY_PREFACTOR * v) for t, (v, _) in zip(taus, integrals))
    quad_err = max(abs(e) for _, e in integrals)

    powers = list(range(cfg.fit_order + 1))
    limit, coeffs, residual = extrapolate_tau(samples, cfg.fit_order, powers=powers)

    # truncation bound: |integrand| <= kappa ell e^{-2 kappa ell} / (1 - e^{-2 kappa ell})
    # for dirichlet and kirchhoff ends; it misses the gamma/kappa tail of delta ends
    tail = ell * math.exp(-2.0 * kappa_max * ell) * (2.0 * kappa_max * ell + 1.0) / (
        4.0 * ell**2
    ) / (1.0 - math.exp(-2.0 * kappa_max * ell))
    fit_err = residual + abs(coeffs[-1]) * max(taus) ** powers[-1]
    estimated_error = quad_err + abs(ENERGY_PREFACTOR) * tail + fit_err

    return CasimirResult(
        energy=limit,
        fit_coefficients=tuple(coeffs),
        per_tau_samples=samples,
        method=Method.GREEN_TRACE,
        estimated_error=float(estimated_error),
        kappa_max=float(kappa_max),
        quadrature_tol=float(cfg.quadrature_tol),
    )


def casimir_mode_sum(
    eigenvalues: Sequence[float], total_len: float, cfg: RegularizationConfig | None = None
) -> CasimirResult:
    """Zero-point energy from the cutoff-regulated eigenvalue half-sum.

    For each tau, E(tau) = (1/2) sum k_n exp(-k_n tau) - L/(2 pi tau^2); the
    spectrum must reach k_max with k_max * min(tau) >= 30 so the truncated
    tail is negligible at the smallest regulator.
    """
    cfg = cfg or RegularizationConfig()
    taus = cfg.tau_values or geometric_taus(DEFAULT_TAU_MAX[Method.MODE_SUM])
    if total_len <= 0:
        raise InputError("total_len must be positive")
    eigs = np.asarray(sorted(float(k) for k in eigenvalues))
    if len(eigs) == 0:
        raise InsufficientSpectrumError("empty eigenvalue list")
    if np.any(eigs <= 0):
        raise InsufficientSpectrumError("eigenvalues must be positive")
    tau_min = min(taus)
    k_top = float(eigs[-1])
    if k_top * tau_min < 30.0:
        raise InsufficientSpectrumError(
            f"spectrum reaches k = {k_top:.6g} but the smallest regulator "
            f"{tau_min:.6g} needs k_max * tau_min >= 30 (got {k_top * tau_min:.3g})"
        )

    weyl_amplitude = total_len / (2.0 * math.pi)
    samples = []
    for tau in taus:
        raw = 0.5 * math.fsum(eigs * np.exp(-eigs * tau))
        samples.append((tau, raw - weyl_amplitude / (tau * tau)))
    samples = tuple(samples)

    limit, coeffs, residual = extrapolate_tau(samples, cfg.fit_order)

    # report the full 1/tau^2 amplitude of the raw sum, not the post-subtraction leftover
    coeffs = [coeffs[0] + weyl_amplitude] + coeffs[1:]

    tail = weyl_amplitude * math.exp(-k_top * tau_min) * (k_top / tau_min + 1.0 / tau_min**2)
    fit_err = residual + abs(coeffs[-1]) * max(taus) ** (2 * (cfg.fit_order - 1))
    estimated_error = tail + fit_err

    return CasimirResult(
        energy=limit,
        fit_coefficients=tuple(coeffs),
        per_tau_samples=samples,
        method=Method.MODE_SUM,
        estimated_error=float(estimated_error),
    )
