"""Electromagnetic response on the imaginary frequency axis.

Holds the slab descriptors and the confinement-induced nonlocal plasma
frequencies: the in-plane isotropic film model and the aligned-nanotube
array model, together with the local Drude permittivity evaluated at
omega = i*xi and the (x, p) -> k mapping used inside the force
integrands.

Lengths are nm, angular frequencies s^-1.  All functions are pure.
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


@dataclass(frozen=True)
class IsotropicSlab:
    """Uniform in-plane isotropic film of finite thickness.

    The surroundings must screen less than the film itself
    (eps_sub + eps_sup < eps_b), which is the regime where the vertical
    confinement reshapes the carrier interaction and the in-plane plasma
    frequency becomes momentum dependent.
    """

    omega_p3d: float          # bulk plasma angular frequency, 1/s
    thickness_d: float        # slab thickness, nm
    eps_b: float              # in-plane background permittivity
    eps_sub: float = 1.0      # substrate static permittivity (free-standing = 1)
    eps_sup: float = 1.0      # superstrate static permittivity

    def __post_init__(self) -> None:
        # Written so that NaN fails every check.
        if not 0.0 < self.omega_p3d < math.inf:
            raise ValueError(f"omega_p3d must be in (0, inf), got {self.omega_p3d}")
        if not 0.0 < self.thickness_d < math.inf:
            raise ValueError(f"thickness_d must be in (0, inf), got {self.thickness_d}")
        if not 1.0 <= self.eps_b < math.inf:
            raise ValueError(f"eps_b must be in [1, inf), got {self.eps_b}")
        if not (0.0 < self.eps_sub < math.inf and 0.0 < self.eps_sup < math.inf):
            raise ValueError("environment permittivities must be in (0, inf)")
        if self.eps_sub + self.eps_sup >= self.eps_b:
            raise ValueError(
                "confined-film regime requires eps_sub + eps_sup < eps_b, got "
                f"{self.eps_sub} + {self.eps_sup} vs eps_b = {self.eps_b}"
            )


@dataclass(frozen=True)
class NanotubeArraySlab:
    """Slab made of parallel aligned metallic nanotubes in a dielectric layer.

    ``period_Delta=None`` selects dense packing (period = tube diameter).
    """

    omega_p3d: float            # bulk plasma angular frequency, 1/s
    radius_R: float             # nanotube radius, nm
    thickness_d: float          # slab thickness, nm
    eps_b: float                # transverse background permittivity
    period_Delta: float | None = None  # translational unit, nm
    eps_sub: float = 1.0
    eps_sup: float = 1.0

    def __post_init__(self) -> None:
        # Written so that NaN fails every check.
        if not 0.0 < self.omega_p3d < math.inf:
            raise ValueError(f"omega_p3d must be in (0, inf), got {self.omega_p3d}")
        if not 0.0 < self.radius_R < math.inf:
            raise ValueError(f"radius_R must be in (0, inf), got {self.radius_R}")
        if self.period_Delta is None:
            object.__setattr__(self, "period_Delta", 2.0 * self.radius_R)
        if not 2.0 * self.radius_R <= self.period_Delta < math.inf:
            raise ValueError(
                f"period_Delta = {self.period_Delta} nm is not a finite period "
                f"clear of tubes of radius {self.radius_R} nm"
            )
        if not 2.0 * self.radius_R <= self.thickness_d < math.inf:
            raise ValueError(
                f"thickness_d = {self.thickness_d} nm is not finite or is below "
                f"one monolayer (2R = {2.0 * self.radius_R} nm)"
            )
        if not 1.0 <= self.eps_b < math.inf:
            raise ValueError(f"eps_b must be in [1, inf), got {self.eps_b}")
        if not (0.0 < self.eps_sub < math.inf and 0.0 < self.eps_sup < math.inf):
            raise ValueError("environment permittivities must be in (0, inf)")


Slab = Union[IsotropicSlab, NanotubeArraySlab]


def eps_tilde(slab: Slab) -> float:
    """Screening ratio eps_b / (eps_sub + eps_sup) of film to surroundings."""
    return slab.eps_b / (slab.eps_sub + slab.eps_sup)


def momentum_from_xp(x: float, p: float, l: float) -> float:
    """In-plane momentum k = x sqrt(p^2-1)/(2 p l) in 1/nm.

    Consistent with xi = x c/(2 p l) on the imaginary axis, where the
    wave-vector relation reads omega p / c = sqrt((omega/c)^2 - k^2).
    """
    return x * math.sqrt(max(p * p - 1.0, 0.0)) / (2.0 * p * l)


def plasma_freq_isotropic(k: float, slab: Slab) -> float:
    """Momentum-dependent in-plane plasma frequency of a thin isotropic film.

    omega_p(k) = omega_p3d / sqrt(1 + 1/(eps~ k d)); tends to the bulk
    value for k d -> inf and to the sqrt(k)-dispersive two-dimensional
    form for small k.  Defined as 0 at k = 0 by continuity.
    """
    if k < 0.0:
        raise ValueError(f"momentum must be >= 0, got {k}")
    if k == 0.0:
        return 0.0
    return slab.omega_p3d / math.sqrt(
        1.0 + 1.0 / (eps_tilde(slab) * k * slab.thickness_d)
    )


def plasma_freq_nanotube(q: float, slab: NanotubeArraySlab) -> float:
    """Plasma frequency along the tube alignment of a nanotube-array slab.

    omega_p(q) = omega_p3d sqrt(2 q R I0(qR) K0(qR) / (1 + 1/(q eps~ d))).
    The Bessel product normalises the carrier distribution over the
    cylinder surfaces; for qR -> inf it tends to 1/(2qR) and the
    isotropic film expression is recovered.  0 at q = 0 by continuity.
    """
    if q < 0.0:
        raise ValueError(f"momentum must be >= 0, got {q}")
    if q == 0.0:
        return 0.0
    z = q * slab.radius_R
    num = 2.0 * z * bessel_i0k0_product(z)
    den = 1.0 + 1.0 / (q * eps_tilde(slab) * slab.thickness_d)
    return slab.omega_p3d * math.sqrt(num / den)


def drude_eps_imaginary_axis(xi, omega_p: float, eps_b: float, delta: float = 0.0):
    """Drude permittivity continued to omega = i*xi: eps_b + wp^2/(xi(xi+delta)),
    for a number or an array of xi.

    Real, larger than eps_b, and monotonically decreasing in xi, as any
    response function must be on the imaginary axis.  The static point
    xi = 0 is a pole and rejected.
    """
    # np.any costs ~4 us on one number, and each validity report makes 60 calls
    if np.any(xi <= 0.0) if isinstance(xi, np.ndarray) else xi <= 0.0:
        raise ValueError(f"xi must be > 0, got {np.min(xi)}")
    return eps_b + omega_p * omega_p / (xi * (xi + delta))


def local_drude_fn(omega_p: float, eps_b: float, delta: float = 0.0) -> Callable:
    """Permittivity-of-xi callback for the general force integral."""
    return lambda xi: drude_eps_imaginary_axis(xi, omega_p, eps_b, delta)
