"""The two special-function evaluations the force integrands need.

Everything else (Fresnel factors, Bose weights) is elementary; only the
modified-Bessel product and the Bose-type moment integral warrant their
own functions.  The Bessel product comes from scipy.special's scaled
i0e/k0e, imported on first call so that only the nanotube kernels pay
for scipy; the moment integral is Gamma(s+1) zeta(s) from math.gamma and
an Euler-Maclaurin zeta in plain Python.
"""

import math

import numpy as np

__all__ = ["bessel_i0k0_product", "bose_integral"]

_ZETA_N = 16  # direct terms n < 16, Euler-Maclaurin tail from n = 16
# B_2k / (2k)! for k = 1..6: the tail's terms through B_12
_EM_COEFFS = (
    1.0 / 12.0,
    -1.0 / 720.0,
    1.0 / 30240.0,
    -1.0 / 1209600.0,
    1.0 / 47900160.0,
    -691.0 / 1307674368000.0,
)


def bessel_i0k0_product(z):
    """I0(z)*K0(z) of a number or array, from the scaled e^-z I0 and e^z K0.

    The scaled product stays finite for any representable z > 0 (I0 alone
    overflows near z ~ 700 while the product behaves as 1/(2z)).  For
    z -> 0+ the product diverges logarithmically through K0.
    """
    from scipy.special import i0e, k0e

    if not np.all(z > 0.0):
        raise ValueError(f"bessel_i0k0_product requires z > 0, got {np.min(z)}")
    return i0e(z) * k0e(z)


def _zeta(s: float) -> float:
    """Riemann zeta of a real s > 1: sum_{n<N} n^-s plus the Euler-Maclaurin
    tail N^(1-s)/(s-1) + N^-s/2 + sum_k B_2k/(2k)! s(s+1)..(s+2k-2) N^(1-s-2k),
    all terms added by math.fsum.  With N = 16 and k <= 6 the remainder
    is below 1e-17 relative for every s > 1."""
    n = _ZETA_N
    terms = [k ** -s for k in range(1, n)]
    terms += [n ** (1.0 - s) / (s - 1.0), 0.5 * n ** -s]
    rising = s * n ** (-s - 1.0)  # s (s+1) .. (s+2k-2) N^(1-s-2k) at k = 1
    for k, coeff in enumerate(_EM_COEFFS):
        terms.append(coeff * rising)
        rising *= (s + 2 * k + 1) * (s + 2 * k + 2) / (n * n)
    return math.fsum(terms)


def bose_integral(s: float) -> float:
    """Closed form of the moment integral over the thermal-type weight.

    int_0^inf x^s e^x / (e^x - 1)^2 dx = Gamma(s+1) * zeta(s), by parts
    against d/dx[-1/(e^x-1)].  Diverges for s <= 1, where the integrand
    behaves as x^(s-2) at the origin.
    """
    if not s > 1.0:
        raise ValueError(f"bose_integral requires s > 1, got {s}")
    return math.gamma(s + 1.0) * _zeta(s)
