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
from functools import lru_cache, wraps
from typing import Callable, Literal

import numpy as np

from .constants import C_NM_PER_S, HBAR_C_J_M, PI4
from .quadrature import _KERNEL_LEVELS, QuadratureError, QuadratureSpec
from .quadrature import integrate_p_axis, integrate_xp
from .response import IsotropicSlab, _film_factor, eps_tilde
from .response import _plain, _require
from .special import bose_integral

__all__ = [
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
    is no longer a legitimate correction.  The closed forms take numbers
    or arrays; given arrays, each field is an array over the same grid.
    """

    ratio_to_casimir: float
    pressure: float
    error_estimate: float
    validity: Validity


def _force_result(ratio, f_c, err, flag) -> ForceResult:
    pressure = ratio * f_c
    if not (np.isfinite(pressure) & np.isfinite(err)).all():
        raise ValueError("the material correction gives no finite pressure")
    return ForceResult(*map(_plain, (ratio, pressure, err, flag)))


def _over(numerator, denominator):
    """numerator / denominator (>= 0) of numbers or arrays, inf where the
    quotient overflows or the denominator underflows to 0."""
    with np.errstate(divide="ignore", over="ignore"):
        return np.divide(numerator, denominator)


def _flag(converged: bool, correction, leading=1.0):
    flag = np.where(correction > 0.5 * leading, "correction_dominant", "valid")[()]
    return flag if converged else "quadrature_failed"


def casimir_pressure(l):
    """Ideal-conductor attraction hbar c pi^2 / (240 l^4) in Pa, l in nm,
    for a number or an array of l.

    Every evaluator calls it first, as its separation check: NaN, inf,
    l <= 0 and a pressure that under- or overflows raise ValueError."""
    l_m = np.asarray(l, dtype=float) * 1.0e-9
    # float_power, not **: numpy's ** of an array is an ulp off C pow at
    # some l, where a sweep row would then differ from the point command.
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        pressure = HBAR_C_J_M * math.pi ** 2 / (240.0 * np.float_power(l_m, 4))
    _require(
        (l_m > 0.0) & (0.0 < pressure) & (pressure < math.inf),
        "separation must be > 0 with a finite pressure, got {} nm", l,
    )
    return _plain(pressure)


def lifshitz_pressure_general(
    eps1_fn: Callable[[float], float],
    eps2_fn: Callable[[float], float],
    l: float,
    spec: QuadratureSpec = QuadratureSpec(),
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


def lifshitz_force_local(omega_p, l) -> ForceResult:
    """Closed-form large-separation force for identical local-Drude metals,
    for numbers or arrays of omega_p and l.

    F/F_C = 1 - 16 c/(3 omega_p l); the correction scales as 1/l and the
    result is exact within the first-order expansion, so the error
    estimate is zero.
    """
    _require(np.greater(omega_p, 0.0), "omega_p must be > 0, got {}", omega_p)
    f_c = casimir_pressure(l)
    with np.errstate(over="ignore"):  # an infinite omega_p l gives no correction
        corr = _over(16.0 * C_NM_PER_S, 3.0 * omega_p * l)
    return _force_result(1.0 - corr, f_c, 0.0, _flag(True, corr))


def _bose(x):
    """x^4 e^x/(e^x - 1)^2, the Bose weight of every correction integral."""
    return x ** 4 * np.exp(-x) / np.expm1(-x) ** 2


def _node_block_cache(fn):
    """Cache fn(x, p, q, *args) as cached(key, *args), keyed on the bytes of a
    node block's (x, p, q), which fn gets as an x column and p, q rows: one
    entry per level a kernel receives, and read-only arrays every thread shares."""

    def cached(key: tuple, *args):
        x, p, q = map(np.frombuffer, key)
        arrays = fn(x[:, None], p[None, :], q[None, :], *args)
        for array in arrays if isinstance(arrays, tuple) else (arrays,):
            array.flags.writeable = False
        return arrays

    return lru_cache(maxsize=len(_KERNEL_LEVELS))(wraps(fn)(cached))


@_node_block_cache
def _film_ratio(x, p, q) -> np.ndarray:
    """Read-only r = p/(x q) of a node block: 1/(eps~ k d) = 2 l/(eps~ d) r."""
    return p / (x * q)


@_node_block_cache
def _film_weight(x, p, q) -> np.ndarray:
    """Read-only film weight x^4 e^x/(e^x - 1)^2 (p^2+1)/p^4 of a node block."""
    return _bose(x) * ((p * p + 1.0) / (p * p) ** 2)


def _nonlocal_force(slab, l, spec, *, main, weight, order, scale):
    """A main term minus the finite-plasma-frequency correction, the one
    construction of the film and both nanotube-array forces.

    ``main()`` gives the main term's (value, error, converged); it runs
    after the separation check.  The correction is 15 c scale/(pi^4
    omega_p3d l) times the (x, p) integral of weight(key), the cached
    weight of the node block whose x, p and q have the bytes ``key``,
    times the film factor sqrt(1 + beta r), beta = 2 l/(eps~ d).  The p
    integrand diverges as (p^2-1)^(-order) at p = 1.
    """
    f_c = casimir_pressure(l)
    main_value, main_error, main_converged = main()
    beta = 2.0 * l / (eps_tilde(slab) * slab.thickness_d)

    def kernel(x, p, q):
        key = x.tobytes(), p.tobytes(), q.tobytes()
        factor = _film_factor(beta, _film_ratio(key))
        factor *= weight(key)  # in place: a product array made a point ~40% slower
        return factor

    res = integrate_xp(kernel, spec, p_singularity_order=order)
    coef = _over(15.0 * C_NM_PER_S * scale, PI4 * slab.omega_p3d * l)
    corr = coef * res.value
    err = main_error + coef * res.error_estimate
    flag = _flag(main_converged and res.converged, corr, main_value)
    return _force_result(main_value - corr, f_c, err, flag)


def nonlocal_isotropic_ratio(
    slab: IsotropicSlab, l: float, spec: QuadratureSpec = QuadratureSpec()
) -> ForceResult:
    """Force between identical isotropic slabs with the thickness-dependent
    momentum dispersion of the in-plane plasma frequency.

    The dispersion enters as omega_p3d/omega_p(k) = sqrt(1 + 1/(eps~ k d)),
    which diverges as (p^2-1)^(-1/4) at normal incidence, an integrable
    factor in the p integrand.
    """
    return _nonlocal_force(slab, l, spec, main=lambda: (1.0, 0.0, True),
                           weight=_film_weight, order=0.25, scale=1.0)


@lru_cache(maxsize=None)
def _thin_limit_parts() -> tuple[float, float]:
    """(coefficient, error) of the small-thickness correction.

    The x part is Gamma(9/2) zeta(7/2) in closed form; the p part,
    int_1^inf (p^2+1) / (p^(7/2) (p^2-1)^(1/4)) dp, is done by
    quadrature so the whole stack stays self-validating.
    """
    pres = integrate_p_axis(lambda p, q: (p * p + 1.0) / (p ** 3.5 * np.sqrt(q)), 0.25)
    if not pres.converged:
        raise QuadratureError("thin-limit p integral did not converge")
    scale = 15.0 * math.sqrt(2.0) / PI4 * bose_integral(3.5)
    return scale * pres.value, scale * pres.error_estimate


def thin_limit_coefficient() -> float:
    """Numeric prefactor (~4.79) of the c/(omega_p sqrt(eps~ d l))
    correction, computed once at the default quadrature settings and cached."""
    return _thin_limit_parts()[0]


def thin_limit_ratio(slab: IsotropicSlab, l) -> ForceResult:
    """Small-thickness closed form: F/F_C = 1 - C c/(omega_p sqrt(eps~ d l)),
    for a number or an array of l and a slab of numbers or arrays.

    The material correction decays only as 1/sqrt(l), in contrast with
    the 1/l of the local-metal force: thinner slabs stay farther from
    the ideal-conductor limit even at large separation.
    """
    f_c = casimir_pressure(l)
    coeff, coeff_err = _thin_limit_parts()
    with np.errstate(over="ignore"):  # an infinite denominator gives no correction
        denominator = slab.omega_p3d * np.sqrt(eps_tilde(slab) * slab.thickness_d * l)
        scale = _over(C_NM_PER_S, denominator)
    corr = coeff * scale
    return _force_result(1.0 - corr, f_c, coeff_err * scale, _flag(True, corr))
