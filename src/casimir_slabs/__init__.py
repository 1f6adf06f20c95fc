"""Casimir-Lifshitz attraction between ultrathin material slabs.

Long-range (zero-temperature, large-separation) forces between parallel
finite-thickness slabs whose in-plane response carries the
confinement-induced momentum dependence of vertically confined films:
isotropic plasmonic films and aligned metallic-nanotube arrays, with the
orientation crossover of the latter and applicability diagnostics for
the half-space force formula.
"""

__version__ = "0.1.0"

from .quadrature import *  # noqa: E402,F403
from .special import *  # noqa: E402,F403
from .response import *  # noqa: E402,F403
from .lifshitz import *  # noqa: E402,F403
from .anisotropic import *  # noqa: E402,F403
from .validity import *  # noqa: E402,F403
from . import (  # noqa: E402
    anisotropic, lifshitz, quadrature, response, special, validity,
)

__all__ = ["__version__"]
for _module in (quadrature, special, response, lifshitz, anisotropic, validity):
    __all__ += _module.__all__
del _module
