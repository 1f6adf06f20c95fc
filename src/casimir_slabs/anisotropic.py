"""Forces for slabs of parallel aligned metallic nanotubes.

A facing pair of such slabs has two symmetric relative orientations:
tubes co-aligned or crossed.  Each orientation mixes a metallic channel
(plasmons along the tubes, excited by p-polarized exchange) with the
transverse dielectric background described by the factors phi and psi.
The finite plasma frequency contributes a structure-dependent negative
correction weighted by the cylinder Bessel product; its endpoint
behaviour at p = 1 is handled by the same hyperbolic substitution as the
isotropic case.

Also provides the thickness crossover finder: thick slabs attract more
strongly co-aligned, ultrathin slabs prefer the crossed orientation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

from .constants import C_NM_PER_S, PI4
from .lifshitz import (
    RATIO_NORM, ForceResult, _flag, _force_result, _over, casimir_pressure,
)
from .quadrature import IntegralResult, QuadratureError, QuadratureSpec, integrate_xp
from .response import NanotubeArraySlab, _tube_factor, fresnel_coeffs, momentum_from_xp

__all__ = [
    "phi",
    "psi",
    "main_term_parallel",
    "main_term_perp",
    "f_parallel_ratio",
    "f_perp_ratio",
    "OrientationForces",
    "orientation_forces",
    "CrossoverResult",
    "crossover_thickness",
]


def _check_background(p, eps_b: float) -> None:
    if np.any(p < 1.0):
        raise ValueError(f"p must be >= 1, got {np.min(p)}")
    if eps_b <= 1.0:
        raise ValueError(
            f"background factors require eps_b > 1, got {eps_b} "
            "(the denominator vanishes at eps_b = 1)"
        )


def phi(p, eps_b: float):
    """s-polarization background factor (S+p)/(S-p), S = sqrt(eps_b-1+p^2),
    for a number or an array of p.

    The reciprocal of the half-space r_s at eps_b, so free of the large-p
    cancellation in S - p.  Always >= (sqrt(eps_b)+1)/(sqrt(eps_b)-1) > 1.
    """
    _check_background(p, eps_b)
    return 1.0 / fresnel_coeffs(eps_b, p)[0]


def psi(p, eps_b: float):
    """p-polarization background factor (S+eps_b p)/(S-eps_b p), for a
    number or an array of p: the reciprocal of the half-space r_p at eps_b.

    The denominator is negative for all p >= 1, eps_b > 1, so psi <= -1."""
    _check_background(p, eps_b)
    return 1.0 / fresnel_coeffs(eps_b, p)[1]


# Main terms depend on (eps_b, spec) only: computed once, then reused.
@lru_cache(maxsize=None)
def _main_parallel_integral(
    eps_b: float, spec: QuadratureSpec | None
) -> IntegralResult:
    def f(x, p, q):
        emx = np.exp(-x)
        return x ** 3 / (p * p) * emx / (phi(p, eps_b) ** 2 - emx)

    return integrate_xp(f, spec)


@lru_cache(maxsize=None)
def _main_perp_integral(eps_b: float, spec: QuadratureSpec | None) -> IntegralResult:
    def f(x, p, q):
        emx = np.exp(-x)
        both = 1.0 / (phi(p, eps_b) - emx) - 1.0 / (psi(p, eps_b) + emx)
        return x ** 3 / (p * p) * emx * both

    return integrate_xp(f, spec)


def main_term_parallel(eps_b: float, spec: QuadratureSpec | None = None) -> float:
    """Infinite-plasma-frequency limit of the co-aligned force ratio.

    The metallic channel becomes perfectly reflective and contributes
    exactly 1/2; the dielectric channel is damped by phi^2.  A function
    of eps_b alone, tending to 1 as eps_b -> inf.
    """
    return 0.5 + RATIO_NORM * _main_parallel_integral(eps_b, spec).value


def main_term_perp(eps_b: float, spec: QuadratureSpec | None = None) -> float:
    """Infinite-plasma-frequency limit of the crossed force ratio.

    Metal-dielectric exchange in both channels, damped by phi and psi;
    also tends to 1 as eps_b -> inf.
    """
    return RATIO_NORM * _main_perp_integral(eps_b, spec).value


def _correction_coef(array: NanotubeArraySlab, l: float) -> float:
    """15 c/(pi^4 omega_p3d l) sqrt(Delta/(2 pi R)): the co-aligned
    prefactor of the correction integral over omega_p3d/omega_p(k)."""
    weight = math.sqrt(array.period_Delta / (2.0 * math.pi * array.radius_R))
    return _over(15.0 * C_NM_PER_S * weight, PI4 * array.omega_p3d * l)


def _assemble(
    main: IntegralResult,
    corr: IntegralResult,
    main_offset: float,
    corr_coef: float,
    f_c: float,
) -> ForceResult:
    main_val = main_offset + RATIO_NORM * main.value
    corr_val = corr_coef * corr.value
    err = RATIO_NORM * main.error_estimate + corr_coef * corr.error_estimate
    validity = _flag(main.converged and corr.converged, corr_val, main_val)
    return _force_result(main_val - corr_val, f_c, err, validity)


def f_parallel_ratio(
    array: NanotubeArraySlab, l: float, spec: QuadratureSpec | None = None
) -> ForceResult:
    """Force ratio for co-aligned nanotube-array slabs.

    Main term 1/2 + phi^2-damped dielectric channel, minus the
    Bessel-weighted finite-plasma-frequency correction."""
    f_c = casimir_pressure(l)

    def fcorr(x, p, q):
        pp = p * p
        bose = x ** 4 * np.exp(-x) / np.expm1(-x) ** 2
        k = momentum_from_xp(x, p, q, l)
        return bose / (pp * pp) * _tube_factor(k, array)

    main = _main_parallel_integral(array.eps_b, spec)
    corr = integrate_xp(fcorr, spec, p_singularity_order=0.5)
    return _assemble(main, corr, 0.5, _correction_coef(array, l), f_c)


def f_perp_ratio(
    array: NanotubeArraySlab, l: float, spec: QuadratureSpec | None = None
) -> ForceResult:
    """Force ratio for crossed nanotube-array slabs.

    Both channels are metal-dielectric; the correction carries the same
    dispersion factor as the co-aligned case at half the prefactor,
    weighted by the squared round-trip denominators."""
    f_c = casimir_pressure(l)
    eps_b = array.eps_b

    def fcorr(x, p, q):
        emx = np.exp(-x)
        ph = phi(p, eps_b)
        ps = psi(p, eps_b)
        # x^4 e^x [phi p/(phi e^x - 1)^2 - (psi/p)/(psi e^x + 1)^2] / p^3,
        # folded with e^(-2x) so nothing grows with x.
        bracket = ph * p / (ph - emx) ** 2 - (ps / p) / (ps + emx) ** 2
        k = momentum_from_xp(x, p, q, l)
        return x ** 4 * emx * bracket / p ** 3 * _tube_factor(k, array)

    main = _main_perp_integral(eps_b, spec)
    corr = integrate_xp(fcorr, spec, p_singularity_order=0.5)
    return _assemble(main, corr, 0.0, 0.5 * _correction_coef(array, l), f_c)


@dataclass(frozen=True)
class OrientationForces:
    """Force results for both relative orientations of one slab pair."""

    f_parallel: ForceResult
    f_perp: ForceResult

    @property
    def anisotropy(self) -> float:
        """Co-aligned minus crossed force ratio; negative means the pair
        prefers the crossed orientation."""
        return self.f_parallel.ratio_to_casimir - self.f_perp.ratio_to_casimir


def orientation_forces(
    array: NanotubeArraySlab, l: float, spec: QuadratureSpec | None = None
) -> OrientationForces:
    return OrientationForces(
        f_parallel_ratio(array, l, spec), f_perp_ratio(array, l, spec)
    )


@dataclass(frozen=True)
class CrossoverResult:
    """Outcome of the thickness search for the orientation crossover.

    ``crossover_d`` is None when the anisotropy keeps one sign over the
    bracket or the search fails; the endpoint signs are always reported.
    ``d_error`` (nm) bounds the distance from ``crossover_d`` to the root.
    """

    crossover_d: float | None
    bracket: tuple[float, float]
    sign_low: float
    sign_high: float
    iterations: int  # probes after the two bracket ends
    d_error: float | None = None


CROSSOVER_XTOL_NM = 1.0e-3  # bracket width at which the search stops, nm


def crossover_thickness(
    array_template: NanotubeArraySlab,
    l: float,
    d_range: tuple[float, float],
    spec: QuadratureSpec | None = None,
) -> CrossoverResult:
    """Brent search (scipy.optimize.brentq) for the thickness at which
    F_par - F_perp changes sign, to a bracket of CROSSOVER_XTOL_NM (1e-3 nm).

    ``array_template`` supplies everything but the thickness, which is
    replaced per probe (so the d >= 2R invariant is enforced on every
    evaluation).  Each thickness is probed once.  If brentq does not
    converge, ``crossover_d`` is None; a failed probe raises QuadratureError.
    """
    d_lo, d_hi = d_range
    if not d_lo < d_hi:
        raise ValueError(f"need d_lo < d_hi, got ({d_lo}, {d_hi})")
    probes: dict[float, OrientationForces] = {}

    def aniso(d: float) -> float:
        if d not in probes:
            forces = orientation_forces(replace(array_template, thickness_d=d), l, spec)
            for res in (forces.f_parallel, forces.f_perp):
                if res.validity == "quadrature_failed":
                    raise QuadratureError(f"force quadrature failed at d = {d} nm")
            probes[d] = forces
        return probes[d].anisotropy

    sign_lo = math.copysign(1.0, aniso(d_lo))
    sign_hi = math.copysign(1.0, aniso(d_hi))
    root = d_error = None
    if sign_lo != sign_hi:
        d, info = brentq(
            aniso, d_lo, d_hi, xtol=CROSSOVER_XTOL_NM, full_output=True, disp=False
        )
        if info.converged:
            # The root lies between d and the nearest probe of the other
            # sign; the error estimate at d over the secant slope widens that.
            flipped = [e for e in probes if aniso(e) * aniso(d) <= 0.0 and e != d]
            other = min(flipped, key=lambda e: abs(e - d))
            err = probes[d].f_parallel.error_estimate + probes[d].f_perp.error_estimate
            d_error = abs(other - d) * (1.0 + err / abs(aniso(other) - aniso(d)))
            root = d
    iterations = len(probes) - 2  # brentq's info.iterations is not a probe count
    return CrossoverResult(root, (d_lo, d_hi), sign_lo, sign_hi, iterations, d_error)
