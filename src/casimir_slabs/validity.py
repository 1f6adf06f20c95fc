"""Can a finite-thickness film stand in for a half-space?

The half-space force formula uses Fresnel coefficients of semi-infinite
media.  A real film of thickness d backscatters from its second
interface; on the imaginary frequency axis that backscattering is an
attenuating exponential, so the film coefficients approach the
half-space ones once 2 d omega_p / c exceeds unity.  This module
computes both coefficient sets and scans the deviation over the (x, p)
region that dominates the force integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .constants import C_NM_PER_S
from .lifshitz import casimir_pressure
from .response import IsotropicSlab, local_drude_fn

__all__ = [
    "halfspace_reflection_coeffs",
    "film_reflection_coeffs",
    "ApplicabilityReport",
    "applicability_report",
    "plasma_skin_depth_nm",
]

# Scan grid covering the p ~ 1, x ~ 1 domain that dominates the force
# integral, extended outward where the integrand still has weight.
_X_GRID = (0.5, 1.0, 2.0, 4.0)
_P_GRID = (1.0, 1.5, 2.0, 4.0, 10.0)
DEFAULT_THRESHOLD = 0.01  # largest tolerated relative coefficient deviation


def plasma_skin_depth_nm(omega_p: float) -> float:
    """Field penetration scale c/omega_p in nm."""
    if omega_p <= 0.0:
        raise ValueError(f"omega_p must be > 0, got {omega_p}")
    return C_NM_PER_S / omega_p


def halfspace_reflection_coeffs(
    x: float, p: float, l: float, eps_fn: Callable[[float], float]
) -> tuple[float, float]:
    """Imaginary-axis Fresnel coefficients of a medium-filled half-space.

    r_s = (s-p)/(s+p), r_p = (s - eps p)/(s + eps p) with
    eps = eps_fn(x c/(2 p l)) and s = sqrt(eps - 1 + p^2), evaluated in
    difference-free rational form (exact zero at eps = 1).
    """
    xi = x * C_NM_PER_S / (2.0 * p * l)
    eps = eps_fn(xi)
    pp = p * p
    s = math.sqrt(eps - 1.0 + pp)
    r_s = (eps - 1.0) / (s + p) ** 2
    r_p = (eps - 1.0) * (1.0 - pp * (eps + 1.0)) / (s + eps * p) ** 2
    return r_s, r_p


def film_reflection_coeffs(
    x: float,
    p: float,
    l: float,
    d: float,
    eps_fn: Callable[[float], float],
) -> tuple[float, float]:
    """Reflection coefficients of a free-standing film of thickness d (nm).

    R = r (1 - E) / (1 - r^2 E) with E = exp(-2 d (xi/c) s), the
    round-trip attenuation through the film on the imaginary axis.  For
    a damping-free metal this exponent equals
    -2 d (omega_p/c) sqrt(1 + xi^2 (eps_b - 1 + p^2)/omega_p^2),
    so E is suppressed once 2 d omega_p/c > 1.  R -> r as d -> inf.
    """
    if d <= 0.0:
        raise ValueError(f"thickness must be > 0, got {d} nm")
    xi = x * C_NM_PER_S / (2.0 * p * l)
    eps = eps_fn(xi)
    s = math.sqrt(eps - 1.0 + p * p)
    attenuation = math.exp(-2.0 * d * xi * s / C_NM_PER_S)
    r_s, r_p = halfspace_reflection_coeffs(x, p, l, eps_fn)

    def film(r: float) -> float:
        return r * (1.0 - attenuation) / (1.0 - r * r * attenuation)

    return film(r_s), film(r_p)


@dataclass(frozen=True)
class ApplicabilityReport:
    """Worst-case film/half-space coefficient deviations over the scan
    grid, the two thickness/separation flags, and the overall verdict
    (all flags true and both deviations at or below the threshold)."""

    max_rel_deviation_s: float
    max_rel_deviation_p: float
    d_ok: bool
    l_ok: bool
    verdict: bool
    threshold: float


def applicability_report(
    slab: IsotropicSlab, l: float, threshold: float = DEFAULT_THRESHOLD
) -> ApplicabilityReport:
    """Scan the (x, p) grid and report whether the half-space formula is
    trustworthy for this slab at separation l (nm).

    Uses the damping-free metallic response of the slab; the flags check
    2 d omega_p/c > 1 (film thick enough to suppress backscattering) and
    c/(2 l omega_p) < 1 (separation in the long-range regime).
    """
    casimir_pressure(l)  # the separation check
    if threshold <= 0.0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    eps_fn = local_drude_fn(slab.omega_p3d, slab.eps_b)

    max_s = 0.0
    max_p = 0.0
    for x in _X_GRID:
        for p in _P_GRID:
            r_s, r_p = halfspace_reflection_coeffs(x, p, l, eps_fn)
            big_r_s, big_r_p = film_reflection_coeffs(
                x, p, l, slab.thickness_d, eps_fn
            )
            max_s = max(max_s, abs(big_r_s - r_s) / abs(r_s))
            max_p = max(max_p, abs(big_r_p - r_p) / abs(r_p))

    d_ok = 2.0 * slab.thickness_d * slab.omega_p3d / C_NM_PER_S > 1.0
    l_ok = C_NM_PER_S / (2.0 * l * slab.omega_p3d) < 1.0
    verdict = d_ok and l_ok and max_s <= threshold and max_p <= threshold
    return ApplicabilityReport(max_s, max_p, d_ok, l_ok, verdict, threshold)
