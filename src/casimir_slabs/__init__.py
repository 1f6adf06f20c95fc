"""Casimir-Lifshitz attraction between ultrathin material slabs.

Long-range (zero-temperature, large-separation) forces between parallel
finite-thickness slabs whose in-plane response carries the
confinement-induced momentum dependence of vertically confined films:
isotropic plasmonic films and aligned metallic-nanotube arrays, with the
orientation crossover of the latter and applicability diagnostics for
the half-space force formula.
"""

__version__ = "0.1.0"

from .quadrature import (  # noqa: E402
    IntegralResult,
    QuadratureError,
    QuadratureSpec,
    integrate_p_axis,
    integrate_xp,
)
from .special import bessel_i0k0_product, bose_integral  # noqa: E402
from .response import (  # noqa: E402
    IsotropicSlab,
    NanotubeArraySlab,
    drude_eps_imaginary_axis,
    eps_tilde,
    local_drude_fn,
    momentum_from_xp,
    plasma_freq_isotropic,
    plasma_freq_nanotube,
)
from .lifshitz import (  # noqa: E402
    ForceResult,
    casimir_pressure,
    lifshitz_force_local,
    lifshitz_pressure_general,
    nonlocal_isotropic_ratio,
    thin_limit_coefficient,
    thin_limit_ratio,
)
from .anisotropic import (  # noqa: E402
    CrossoverResult,
    OrientationForces,
    crossover_thickness,
    f_parallel_ratio,
    f_perp_ratio,
    main_term_parallel,
    main_term_perp,
    orientation_forces,
    phi,
    psi,
)
from .validity import (  # noqa: E402
    ApplicabilityReport,
    applicability_report,
    film_reflection_coeffs,
    halfspace_reflection_coeffs,
    plasma_skin_depth_nm,
)

__all__ = [
    "__version__",
    "QuadratureSpec",
    "QuadratureError",
    "IntegralResult",
    "integrate_p_axis",
    "integrate_xp",
    "bessel_i0k0_product",
    "bose_integral",
    "IsotropicSlab",
    "NanotubeArraySlab",
    "eps_tilde",
    "momentum_from_xp",
    "plasma_freq_isotropic",
    "plasma_freq_nanotube",
    "drude_eps_imaginary_axis",
    "local_drude_fn",
    "ForceResult",
    "casimir_pressure",
    "lifshitz_pressure_general",
    "lifshitz_force_local",
    "nonlocal_isotropic_ratio",
    "thin_limit_ratio",
    "thin_limit_coefficient",
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
    "halfspace_reflection_coeffs",
    "film_reflection_coeffs",
    "ApplicabilityReport",
    "applicability_report",
    "plasma_skin_depth_nm",
]
