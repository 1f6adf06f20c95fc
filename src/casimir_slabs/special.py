"""The two special-function evaluations the force integrands need.

Everything else (Fresnel factors, Bose weights) is elementary; only the
modified-Bessel product and the Bose-type moment integral warrant their
own functions, both delegated to scipy.special in numerically safe form.
"""

import numpy as np
from scipy.special import gamma, i0e, k0e, zeta

__all__ = ["bessel_i0k0_product", "bose_integral"]


def bessel_i0k0_product(z):
    """I0(z)*K0(z) of a number or array, from the scaled e^-z I0 and e^z K0.

    The scaled product stays finite for any representable z > 0 (I0 alone
    overflows near z ~ 700 while the product behaves as 1/(2z)).  For
    z -> 0+ the product diverges logarithmically through K0.
    """
    if np.any(z <= 0.0):
        raise ValueError(f"bessel_i0k0_product requires z > 0, got {np.min(z)}")
    return i0e(z) * k0e(z)


def bose_integral(s: float) -> float:
    """Closed form of the moment integral over the thermal-type weight.

    int_0^inf x^s e^x / (e^x - 1)^2 dx = Gamma(s+1) * zeta(s), by parts
    against d/dx[-1/(e^x-1)].  Diverges for s <= 1, where the integrand
    behaves as x^(s-2) at the origin.
    """
    if s <= 1.0:
        raise ValueError(f"bose_integral requires s > 1, got {s}")
    return float(gamma(s + 1.0) * zeta(s))
