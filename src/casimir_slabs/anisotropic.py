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

from .lifshitz import RATIO_NORM, ForceResult, _bose, _node_block_cache, _nonlocal_force
from .quadrature import IntegralResult, QuadratureError, QuadratureSpec
from .quadrature import integrate_xp
from .response import NanotubeArraySlab, _require_background
from .response import _tube_normalisation, fresnel_coeffs, momentum_from_xp

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
    if not np.all(p >= 1.0):
        raise ValueError(f"p must be >= 1, got {np.min(p)}")
    _require_background(eps_b)


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
def _main_parallel_integral(eps_b: float, spec: QuadratureSpec) -> IntegralResult:
    def f(x, p, q):
        emx = np.exp(-x)
        return x ** 3 / (p * p) * emx / (phi(p, eps_b) ** 2 - emx)

    return integrate_xp(f, spec)


@lru_cache(maxsize=None)
def _main_perp_integral(eps_b: float, spec: QuadratureSpec) -> IntegralResult:
    def f(x, p, q):
        emx = np.exp(-x)
        both = 1.0 / (phi(p, eps_b) - emx) - 1.0 / (psi(p, eps_b) + emx)
        return x ** 3 / (p * p) * emx * both

    return integrate_xp(f, spec)


def main_term_parallel(eps_b: float, spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Infinite-plasma-frequency limit of the co-aligned force ratio.

    The metallic channel becomes perfectly reflective and contributes
    exactly 1/2; the dielectric channel is damped by phi^2.  A function
    of eps_b alone, tending to 1 as eps_b -> inf.
    """
    integral = _main_parallel_integral(eps_b, spec)
    if not integral.converged:
        raise QuadratureError(f"parallel main term did not converge at eps_b = {eps_b}")
    return 0.5 + RATIO_NORM * integral.value


def main_term_perp(eps_b: float, spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Infinite-plasma-frequency limit of the crossed force ratio.

    Metal-dielectric exchange in both channels, damped by phi and psi;
    also tends to 1 as eps_b -> inf.
    """
    integral = _main_perp_integral(eps_b, spec)
    if not integral.converged:
        raise QuadratureError(f"perp main term did not converge at eps_b = {eps_b}")
    return RATIO_NORM * integral.value


def _main(offset: float, integral: IntegralResult):
    """(value, error, converged) of the main term offset + RATIO_NORM integral."""
    value = offset + RATIO_NORM * integral.value
    return value, RATIO_NORM * integral.error_estimate, integral.converged


def _tube_scale(array: NanotubeArraySlab) -> float:
    """sqrt(Delta/(2 pi R)), the co-aligned scale of the correction."""
    return math.sqrt(array.period_Delta / (2.0 * math.pi * array.radius_R))


@_node_block_cache
def _tube_weights(x, p, q, l: float, radius: float, eps_b: float) -> tuple:
    """Read-only co-aligned and crossed weights of one node block over the
    tube normalisation sqrt(2 z I0 K0), z = k R: x^4 e^x/(e^x - 1)^2/p^4
    and x^4 e^x [phi p/(phi e^x - 1)^2 - (psi/p)/(psi e^x + 1)^2]/p^3,
    folded with e^(-2x) so nothing grows."""
    norm = _tube_normalisation(momentum_from_xp(x, p, q, l) * radius)
    emx = np.exp(-x)
    ph = phi(p, eps_b)
    ps = psi(p, eps_b)
    bracket = ph * p / (ph - emx) ** 2 - (ps / p) / (ps + emx) ** 2
    return _bose(x) / (p * p) ** 2 / norm, x ** 4 * emx * bracket / p ** 3 / norm


def f_parallel_ratio(
    array: NanotubeArraySlab, l: float, spec: QuadratureSpec = QuadratureSpec()
) -> ForceResult:
    """Force ratio for co-aligned nanotube-array slabs.

    Main term 1/2 + phi^2-damped dielectric channel, minus the
    Bessel-weighted finite-plasma-frequency correction."""
    return _nonlocal_force(
        array, l, spec,
        main=lambda: _main(0.5, _main_parallel_integral(array.eps_b, spec)),
        weight=lambda key: _tube_weights(key, l, array.radius_R, array.eps_b)[0],
        order=0.5, scale=_tube_scale(array),
    )


def f_perp_ratio(
    array: NanotubeArraySlab, l: float, spec: QuadratureSpec = QuadratureSpec()
) -> ForceResult:
    """Force ratio for crossed nanotube-array slabs.

    Both channels are metal-dielectric; the correction carries the same
    dispersion factor as the co-aligned case at half the prefactor,
    weighted by the squared round-trip denominators."""
    return _nonlocal_force(
        array, l, spec,
        main=lambda: _main(0.0, _main_perp_integral(array.eps_b, spec)),
        weight=lambda key: _tube_weights(key, l, array.radius_R, array.eps_b)[1],
        order=0.5, scale=0.5 * _tube_scale(array),
    )


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
    array: NanotubeArraySlab, l: float, spec: QuadratureSpec = QuadratureSpec()
) -> OrientationForces:
    """Co-aligned and crossed force ratios of one slab pair; the crossed
    orientation reads each node block's r and normalised weight from the
    caches (lifshitz._film_ratio, _tube_weights) the co-aligned filled."""
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


def _brentq(f, xpre, xcur, fpre, fcur, xtol, maxiter=100):
    """(root, converged) of f on [xpre, xcur], where fpre and fcur differ in sign:
    Brent's method (Algorithms for Minimization without Derivatives, 1973, ch. 4)."""
    rtol = 4.0 * math.ulp(1.0)  # scipy.optimize.brentq's default
    if fpre == 0.0:
        return xpre, True
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if (fpre < 0.0) != (fcur < 0.0):  # the root lies in [xpre, xcur]
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # xcur holds the smaller value
            xpre, xcur, xblk, fpre, fcur, fblk = xcur, xblk, xcur, fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, True
        short = abs(spre) > delta and abs(fcur) < abs(fpre)
        if short and xpre == xblk:  # secant
            stry = -fcur * (xcur - xpre) / (fcur - fpre)
        elif short:  # inverse quadratic
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        if short and 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:  # bisection
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = float(f(xcur))
    return xcur, False


def crossover_thickness(
    array_template: NanotubeArraySlab,
    l: float,
    d_range: tuple[float, float],
    spec: QuadratureSpec = QuadratureSpec(),
) -> CrossoverResult:
    """Brent search (_brentq) for the thickness at which F_par - F_perp
    changes sign, run in u = d^(-1/2), where the thin-film correction's
    1/sqrt(d) makes it nearly linear, to a d bracket of CROSSOVER_XTOL_NM.

    ``array_template`` supplies everything but the thickness, which is
    replaced per probe (so the d >= 2R invariant is enforced on every
    evaluation, and on both bracket ends before the first probe).  Each
    thickness is probed once.  A node block's weights over the Bessel
    normalisation do not depend on the thickness: they are computed once
    per search (_tube_weights), and r = p/(x q) once per process
    (lifshitz._film_ratio), so a probe computes only the film factor
    sqrt(1 + beta r) and one product.  If the search does not converge,
    ``crossover_d`` is None; a failed probe raises QuadratureError.
    """
    d_lo, d_hi = d_range
    if not d_lo < d_hi:
        raise ValueError(f"need d_lo < d_hi, got ({d_lo}, {d_hi})")
    for d in d_range:  # a bad end fails before any integral starts
        replace(array_template, thickness_d=d)
    probes: dict[float, OrientationForces] = {}

    def aniso(d: float) -> float:
        array = replace(array_template, thickness_d=d)
        forces = probes[d] = orientation_forces(array, l, spec)
        for res in (forces.f_parallel, forces.f_perp):
            if res.validity == "quadrature_failed":
                raise QuadratureError(f"force quadrature failed at d = {d} nm")
        return forces.anisotropy

    a_lo, a_hi = aniso(d_lo), aniso(d_hi)
    sign_lo, sign_hi = math.copysign(1.0, a_lo), math.copysign(1.0, a_hi)
    root = d_error = None
    if sign_lo != sign_hi:  # in u; |dd/du| <= 2 d_hi^1.5 keeps the d bracket to xtol
        u_lo, u_hi = d_lo ** -0.5, d_hi ** -0.5
        with np.errstate(over="ignore"):  # xtol 0 past d_hi ~ 3e205 nm; rtol ends it
            xtol = float(CROSSOVER_XTOL_NM / (2.0 * np.float64(d_hi) ** 1.5))
        u, converged = _brentq(lambda u: aniso(u ** -2.0), u_lo, u_hi, a_lo, a_hi, xtol)
        d = {u_lo: d_lo, u_hi: d_hi}.get(u, u ** -2.0)  # an end exactly: d >= 2R holds
    if sign_lo != sign_hi and converged:
        # The root lies between d and the nearest probe of the other sign;
        # the error estimate at d over the secant slope widens that.
        a = probes[d].anisotropy
        flipped = [e for e in probes if probes[e].anisotropy * a <= 0.0 and e != d]
        other = min(flipped, key=lambda e: abs(e - d))
        err = probes[d].f_parallel.error_estimate + probes[d].f_perp.error_estimate
        d_error = abs(other - d) * (1.0 + err / abs(probes[other].anisotropy - a))
        root = d
    iterations = len(probes) - 2
    return CrossoverResult(root, (d_lo, d_hi), sign_lo, sign_hi, iterations, d_error)
