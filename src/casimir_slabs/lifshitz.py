"""Force evaluators for in-plane isotropic slabs.

Forces are attractive and reported as positive ratios to the
ideal-conductor value F_C = hbar c pi^2/(240 l^4), plus the absolute
pressure in Pa.  Separations and thicknesses in nm, frequencies in s^-1.

The evaluators cover the exact ideal-conductor pressure, the general
double integral over arbitrary permittivity callbacks, the local-metal
closed form with its 16/3 correction, the nonlocal finite-thickness
integral, and the small-thickness closed form whose ~4.79 coefficient is
computed from quadrature once and cached, never hard-coded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Literal

import numpy as np

from .constants import C_NM_PER_S, HBAR_C_J_M, PI4
from .quadrature import (
    QuadratureError,
    QuadratureSpec,
    integrate_p_axis,
    integrate_xp,
)
from .response import IsotropicSlab, _film_factor, eps_tilde, momentum_from_xp
from .special import bose_integral

__all__ = [
    "Validity",
    "ForceResult",
    "casimir_pressure",
    "lifshitz_pressure_general",
    "lifshitz_force_local",
    "nonlocal_isotropic_ratio",
    "thin_limit_ratio",
    "thin_limit_coefficient",
]

Validity = Literal["valid", "correction_dominant", "quadrature_failed"]

# Prefactor turning the (x, p) double integral of the two polarization
# terms into F/F_C; both channels perfect gives exactly 1.
RATIO_NORM = 15.0 / (2.0 * PI4)


@dataclass(frozen=True)
class ForceResult:
    """Force at one configuration: ratio to the ideal-conductor value,
    absolute pressure (ratio times that value, by construction), the
    quadrature error on the ratio and an applicability flag.

    ``correction_dominant`` marks points where the first-order material
    correction exceeds half the leading term, i.e. where the expansion
    is no longer a legitimate correction.
    """

    ratio_to_casimir: float
    pressure: float
    error_estimate: float
    validity: Validity


def _force_result(ratio: float, f_c: float, err: float, flag: Validity) -> ForceResult:
    pressure = ratio * f_c
    if not (math.isfinite(pressure) and math.isfinite(err)):
        raise ValueError("the material correction gives no finite pressure")
    return ForceResult(ratio, pressure, err, flag)


def _over(numerator: float, denominator: float) -> float:
    """numerator / denominator, inf where the denominator underflows to 0."""
    return numerator / denominator if denominator > 0.0 else math.inf


def _flag(converged: bool, correction: float, leading: float = 1.0) -> Validity:
    if not converged:
        return "quadrature_failed"
    if correction > 0.5 * leading:
        return "correction_dominant"
    return "valid"


def casimir_pressure(l: float) -> float:
    """Ideal-conductor attraction hbar c pi^2 / (240 l^4) in Pa, l in nm.

    Every evaluator calls it first, as its separation check: NaN, inf,
    l <= 0 and a pressure that under- or overflows raise ValueError."""
    l_m = l * 1.0e-9
    try:
        pressure = HBAR_C_J_M * math.pi ** 2 / (240.0 * l_m ** 4)
    except (ZeroDivisionError, OverflowError):
        pressure = math.nan
    if not (l > 0.0 and 0.0 < pressure < math.inf):
        raise ValueError(f"separation must be > 0 with a finite pressure, got {l} nm")
    return pressure


def lifshitz_pressure_general(
    eps1_fn: Callable[[float], float],
    eps2_fn: Callable[[float], float],
    l: float,
    spec: QuadratureSpec | None = None,
) -> ForceResult:
    """Full two-polarization force integral for arbitrary media.

    The callbacks receive arrays of xi = x c/(2 p l) in s^-1 and must
    return real permittivities >= 1 (any causal response on the
    imaginary axis), as an array of that shape or one scalar.
    The s- and p-channel round-trip factors are evaluated through the
    differences A - 1 in exact rational form, which keeps the integrand
    stable both in the near-vacuum and in the near-conductor limits.
    """
    f_c = casimir_pressure(l)
    half_cl = C_NM_PER_S / (2.0 * l)

    def f(x, p, q):
        xi = half_cl * x / p
        e1 = eps1_fn(xi)
        e2 = eps2_fn(xi)
        pp = p * p
        s1 = np.sqrt(e1 - 1.0 + pp)
        s2 = np.sqrt(e2 - 1.0 + pp)
        emx = np.exp(-x)
        em1 = -np.expm1(-x)  # 1 - e^-x
        # s channel: A_s - 1 = 2p(s1+s2) / ((s1-p)(s2-p)), with
        # s - p = (eps-1)/(s+p) to avoid the large-p cancellation.
        d1 = (e1 - 1.0) / (s1 + p)
        d2 = (e2 - 1.0) / (s2 + p)
        den_s = d1 * d2  # >= 0; zero (vacuum) gives a zero term
        ts = emx * den_s / (2.0 * p * (s1 + s2) + em1 * den_s)
        # p channel: s - eps*p = (eps-1)(1 - p^2(eps+1))/(s + eps*p) < 0.
        g1 = (e1 - 1.0) * (1.0 - pp * (e1 + 1.0)) / (s1 + e1 * p)
        g2 = (e2 - 1.0) * (1.0 - pp * (e2 + 1.0)) / (s2 + e2 * p)
        den_p = g1 * g2
        tp = emx * den_p / (2.0 * p * (e1 * s2 + e2 * s1) + em1 * den_p)
        return x ** 3 / pp * (ts + tp)

    res = integrate_xp(f, spec)
    ratio = RATIO_NORM * res.value
    err = RATIO_NORM * res.error_estimate
    validity: Validity = "valid" if res.converged else "quadrature_failed"
    return _force_result(ratio, f_c, err, validity)


def lifshitz_force_local(omega_p: float, l: float) -> ForceResult:
    """Closed-form large-separation force for identical local-Drude metals.

    F/F_C = 1 - 16 c/(3 omega_p l); the correction scales as 1/l and the
    result is exact within the first-order expansion, so the error
    estimate is zero.
    """
    if omega_p <= 0.0:
        raise ValueError(f"omega_p must be > 0, got {omega_p}")
    f_c = casimir_pressure(l)
    corr = _over(16.0 * C_NM_PER_S, 3.0 * omega_p * l)
    return _force_result(1.0 - corr, f_c, 0.0, _flag(True, corr))


def nonlocal_isotropic_ratio(
    slab: IsotropicSlab, l: float, spec: QuadratureSpec | None = None
) -> ForceResult:
    """Force between identical isotropic slabs with the thickness-dependent
    momentum dispersion of the in-plane plasma frequency.

    The dispersion enters as omega_p3d/omega_p(k) = sqrt(1 + 1/(eps~ k d)),
    which diverges as (p^2-1)^(-1/4) at normal incidence, an integrable
    factor in the p integrand.
    """
    f_c = casimir_pressure(l)

    def f(x, p, q):
        pp = p * p
        bose = x ** 4 * np.exp(-x) / np.expm1(-x) ** 2
        k = momentum_from_xp(x, p, q, l)
        return bose * ((pp + 1.0) / (pp * pp) * _film_factor(k, slab))

    res = integrate_xp(f, spec, p_singularity_order=0.25)
    coef = _over(15.0 * C_NM_PER_S, PI4 * slab.omega_p3d * l)
    corr = coef * res.value
    return _force_result(
        1.0 - corr, f_c, coef * res.error_estimate, _flag(res.converged, corr)
    )


@lru_cache(maxsize=None)
def _thin_limit_parts(spec: QuadratureSpec) -> tuple[float, float]:
    """(coefficient, error) of the small-thickness correction.

    The x part is Gamma(9/2) zeta(7/2) in closed form; the p part,
    int_1^inf (p^2+1) / (p^(7/2) (p^2-1)^(1/4)) dp, is done by
    quadrature so the whole stack stays self-validating.
    """
    pres = integrate_p_axis(
        lambda p, q: (p * p + 1.0) / (p ** 3.5 * np.sqrt(q)), 0.25, spec
    )
    if not pres.converged:
        raise QuadratureError("thin-limit p integral did not converge")
    scale = 15.0 * math.sqrt(2.0) / PI4 * bose_integral(3.5)
    return scale * pres.value, scale * pres.error_estimate


def thin_limit_coefficient(spec: QuadratureSpec | None = None) -> float:
    """Numeric prefactor (~4.79) of the c/(omega_p sqrt(eps~ d l))
    correction, computed once per quadrature spec and cached."""
    return _thin_limit_parts(spec or QuadratureSpec())[0]


def thin_limit_ratio(slab: IsotropicSlab, l: float) -> ForceResult:
    """Small-thickness closed form: F/F_C = 1 - C c/(omega_p sqrt(eps~ d l)).

    The material correction decays only as 1/sqrt(l), in contrast with
    the 1/l of the local-metal force: thinner slabs stay farther from
    the ideal-conductor limit even at large separation.
    """
    f_c = casimir_pressure(l)
    coeff, coeff_err = _thin_limit_parts(QuadratureSpec())
    denominator = slab.omega_p3d * math.sqrt(eps_tilde(slab) * slab.thickness_d * l)
    scale = _over(C_NM_PER_S, denominator)
    corr = coeff * scale
    return _force_result(1.0 - corr, f_c, coeff_err * scale, _flag(True, corr))
