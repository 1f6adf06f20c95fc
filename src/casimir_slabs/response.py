"""Electromagnetic response on the imaginary frequency axis.

Holds the slab descriptors and the one description of each response
model that the public functions and the force kernels share: the
confinement-induced nonlocal plasma frequencies of the in-plane
isotropic film and of the aligned-nanotube array, the (x, p) -> k
mapping used inside the force integrands, the half-space Fresnel pair
and the local Drude permittivity evaluated at omega = i*xi.

Lengths are nm, angular frequencies s^-1.  All functions are pure and
keep no state; the force kernels cache their node-block factors next to
themselves (lifshitz._film_ratio and _film_weight, anisotropic._tube_weights).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .special import bessel_i0k0_product

__all__ = [
    "IsotropicSlab",
    "NanotubeArraySlab",
    "eps_tilde",
    "momentum_from_xp",
    "plasma_freq_isotropic",
    "plasma_freq_nanotube",
    "drude_eps_imaginary_axis",
    "local_drude_fn",
]


def _require(ok, message: str, *values) -> None:
    """ValueError unless the comparison ``ok`` of numbers or arrays holds
    everywhere (NaN compares false, so it fails), naming ``values`` where
    it first fails."""
    ok = np.asarray(ok)
    if not ok.all():
        first = (np.broadcast_to(v, ok.shape).flat[np.argmin(ok)] for v in values)
        raise ValueError(message.format(*first))


def _plain(value):
    """A numpy scalar as a Python float, bool or str; anything else as it is."""
    return value.tolist() if isinstance(value, np.generic) else value


def _require_media(slab, *positive: str) -> None:
    """The checks both slab types make: the named fields in (0, inf),
    eps_b in [1, inf), the surrounding permittivities in (0, inf)."""
    for name in positive:
        value = getattr(slab, name)
        ok = (0.0 < value) & (value < math.inf)
        _require(ok, name + " must be in (0, inf), got {}", value)
    eps_b, sub, sup = slab.eps_b, slab.eps_sub, slab.eps_sup
    ok = (1.0 <= eps_b) & (eps_b < math.inf)
    _require(ok, "eps_b must be in [1, inf), got {}", eps_b)
    ok = (0.0 < sub) & (sub < math.inf) & (0.0 < sup) & (sup < math.inf)
    _require(ok, "environment permittivities must be in (0, inf)")


def _require_background(eps_b) -> None:
    """eps_b > 1, for numbers or arrays: the background factors phi and psi
    of the nanotube arrays have a vanishing denominator at eps_b = 1."""
    _require(np.greater(eps_b, 1.0), "background factors require eps_b > 1, got {} "
             "(the denominator vanishes at eps_b = 1)", eps_b)


@dataclass(frozen=True)
class IsotropicSlab:
    """Uniform in-plane isotropic film of finite thickness.

    The surroundings must screen less than the film itself
    (eps_sub + eps_sup < eps_b), which is the regime where the vertical
    confinement reshapes the carrier interaction and the in-plane plasma
    frequency becomes momentum dependent.  Fields may be arrays of one
    grid shape, checked at once.
    """

    omega_p3d: float          # bulk plasma angular frequency, 1/s
    thickness_d: float        # slab thickness, nm
    eps_b: float              # in-plane background permittivity
    eps_sub: float = 1.0      # substrate static permittivity (free-standing = 1)
    eps_sup: float = 1.0      # superstrate static permittivity

    def __post_init__(self) -> None:
        _require_media(self, "omega_p3d", "thickness_d")
        _require(
            self.eps_sub + self.eps_sup < self.eps_b,
            "confined-film regime requires eps_sub + eps_sup < eps_b, got "
            "{} + {} vs eps_b = {}",
            self.eps_sub, self.eps_sup, self.eps_b,
        )


@dataclass(frozen=True)
class NanotubeArraySlab:
    """Slab made of parallel aligned metallic nanotubes in a dielectric layer.

    ``period_Delta=None`` selects dense packing (period = tube diameter).
    Fields may be arrays of one grid shape, as for ``IsotropicSlab``.
    """

    omega_p3d: float            # bulk plasma angular frequency, 1/s
    radius_R: float             # nanotube radius, nm
    thickness_d: float          # slab thickness, nm
    eps_b: float                # transverse background permittivity
    period_Delta: float | None = None  # translational unit, nm
    eps_sub: float = 1.0
    eps_sup: float = 1.0

    def __post_init__(self) -> None:
        _require_media(self, "omega_p3d", "radius_R")
        _require_background(self.eps_b)
        if self.period_Delta is None:
            object.__setattr__(self, "period_Delta", 2.0 * self.radius_R)
        diameter = 2.0 * self.radius_R
        _require(
            (diameter <= self.period_Delta) & (self.period_Delta < math.inf),
            "period_Delta = {} nm is not a finite period clear of tubes of "
            "radius {} nm",
            self.period_Delta, self.radius_R,
        )
        _require(
            (diameter <= self.thickness_d) & (self.thickness_d < math.inf),
            "thickness_d = {} nm is not finite or is below one monolayer "
            "(2R = {} nm)",
            self.thickness_d, diameter,
        )


Slab = Union[IsotropicSlab, NanotubeArraySlab]


def eps_tilde(slab: Slab) -> float:
    """Screening ratio eps_b / (eps_sub + eps_sup) of film to surroundings."""
    return slab.eps_b / (slab.eps_sub + slab.eps_sup)


def momentum_from_xp(x, p, q, l: float):
    """In-plane momentum k = x q/(2 p l) in 1/nm of numbers or arrays, with
    q = sqrt(p^2-1) passed exactly, since p*p - 1 rounds to 0 near p = 1.

    Consistent with xi = x c/(2 p l) on the imaginary axis, where the
    wave-vector relation reads omega p / c = sqrt((omega/c)^2 - k^2).
    """
    return x * (q / (2.0 * p * l))


def _film_factor(beta, r):
    """omega_p3d / omega_p(k) of the isotropic film, sqrt(1 + beta r) with
    beta r = 1/(eps~ k d): the plasma frequencies pass beta = 1/(eps~ d)
    and r = 1/k, the force kernels beta = 2 l/(eps~ d) and r = p/(x q)."""
    return np.sqrt(1.0 + beta * r)


def _tube_normalisation(z):
    """sqrt(2 z I0(z) K0(z)), the carrier normalisation over the cylinder
    surfaces at z = k R."""
    z = np.asarray(z, dtype=float)
    return np.asarray(np.sqrt(2.0 * z * bessel_i0k0_product(z)))


def _node_block(key: tuple):
    """The read-only (x, p, q) of the bytes (x, p, q) of a node block as the
    kernels receive it: x a column, p and q rows."""
    x, p, q = map(np.frombuffer, key)
    return x[:, None], p[None, :], q[None, :]


def _plasma_freq(k, slab: Slab, tube: bool):
    """omega_p3d over the film factor at k, divided by the tube
    normalisation at z = k R if ``tube``, for k > 0; 0 at k = 0 by
    continuity."""
    k = np.asarray(k, dtype=float)
    if not np.all(k >= 0.0):
        raise ValueError(f"momentum must be >= 0, got {np.min(k)}")
    zero = k == 0.0
    k = np.where(zero, 1.0, k)
    factor = _film_factor(1.0 / (eps_tilde(slab) * slab.thickness_d), 1.0 / k)
    if tube:
        factor = factor / _tube_normalisation(k * slab.radius_R)
    return np.where(zero, 0.0, slab.omega_p3d / factor)[()]


def plasma_freq_isotropic(k, slab: Slab):
    """Momentum-dependent in-plane plasma frequency of a thin isotropic film.

    omega_p(k) = omega_p3d / sqrt(1 + 1/(eps~ k d)); tends to the bulk
    value for k d -> inf and to the sqrt(k)-dispersive two-dimensional
    form for small k.  0 at k = 0 by continuity; k may be an array.
    """
    return _plasma_freq(k, slab, tube=False)


def plasma_freq_nanotube(q, slab: NanotubeArraySlab):
    """Plasma frequency along the tube alignment of a nanotube-array slab.

    omega_p(q) = omega_p3d sqrt(2 q R I0(qR) K0(qR) / (1 + 1/(q eps~ d))).
    The Bessel product normalises the carrier distribution over the
    cylinder surfaces; for qR -> inf it tends to 1/(2qR) and the
    isotropic film expression is recovered.  0 at q = 0 by continuity;
    q may be an array.
    """
    return _plasma_freq(q, slab, tube=True)


def fresnel_coeffs(eps, p):
    """Imaginary-axis Fresnel pair r_s = (s-p)/(s+p), r_p = (s-eps p)/(s+eps p),
    s = sqrt(eps-1+p^2), of a half-space of permittivity eps, for numbers or
    arrays; in difference-free rational form, exactly 0 at eps = 1 and free
    of the large-p cancellation in s - p.
    """
    pp = p * p
    s = np.sqrt(eps - 1.0 + pp)
    r_s = (eps - 1.0) / (s + p) ** 2
    r_p = (eps - 1.0) * (1.0 - pp * (eps + 1.0)) / (s + eps * p) ** 2
    return r_s, r_p


def drude_eps_imaginary_axis(xi, omega_p: float, eps_b: float, delta: float = 0.0):
    """Drude permittivity continued to omega = i*xi: eps_b + wp^2/(xi(xi+delta)),
    for a number or an array of xi.

    Real, larger than eps_b, and monotonically decreasing in xi, as any
    response function must be on the imaginary axis.  The static point
    xi = 0 is a pole and rejected, as are non-finite parameters and delta < 0.
    """
    if not np.all(xi > 0.0):
        raise ValueError(f"xi must be > 0, got {np.min(xi)}")
    for name, value in (("omega_p", omega_p), ("eps_b", eps_b), ("delta", delta)):
        _require(np.isfinite(value), name + " must be finite, got {}", value)
    _require(np.greater_equal(delta, 0.0), "delta must be >= 0, got {}", delta)
    return eps_b + omega_p * omega_p / (xi * (xi + delta))


def local_drude_fn(omega_p: float, eps_b: float, delta: float = 0.0) -> Callable:
    """Permittivity-of-xi callback for the general force integral."""
    return lambda xi: drude_eps_imaginary_axis(xi, omega_p, eps_b, delta)
