"""The two special-function evaluations the force integrands need, in numpy
and plain Python; everything else (Fresnel factors, Bose weights) is elementary."""

import math

import numpy as np

__all__ = ["bessel_i0k0_product", "bose_integral"]

# A&S 9.6.12-13 through t^13, t = z^2/4: I0 = sum t^k / (k!)^2 and
# K0 = sum (H_k - gamma) t^k / (k!)^2 - ln(z/2) I0, H_k = sum_{j<=k} 1/j
_I0_COEFS = [1 / math.factorial(k) ** 2 for k in range(14)]
_K0_COEFS = [sum(f // j for j in range(1, k + 1)) / f ** 3 - 0.5772156649015329 / f ** 2
             for k, f in enumerate(map(math.factorial, range(14)))]
# DLMF 10.40.6 at nu = 0: 2z I0 K0 ~ sum c_k (2z)^-2k, c_k = prod_{j<=k}
# (2j-1)^3 / (2j), cut before its smallest term at z = 20
_ASYMPTOTIC = [math.prod(range(1, 2 * k, 2)) ** 3 / math.prod(range(2, 2 * k + 1, 2))
               for k in range(20)]
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
    """I0(z)*K0(z) of a number or array, within 2e-15 relative for z > 0: a
    power series up to 2, the trapezoid rule below 20, then an asymptotic
    series.  The product behaves as 1/(2z) for large z (I0 alone overflows
    near z ~ 700) and diverges logarithmically through K0 as z -> 0+.
    """
    z = np.asarray(z, dtype=float)
    if not np.all(z > 0.0):
        raise ValueError(f"bessel_i0k0_product requires z > 0, got {np.min(z)}")
    if np.all(z <= 2.0):  # as in every preset and example
        return _product_series(z)[()]
    asymptotic = lambda z: _horner(_ASYMPTOTIC, 0.25 / z ** 2) * (0.5 / z)  # noqa: E731
    masks = [z <= 2.0, (2.0 < z) & (z < 20.0), z >= 20.0]
    return np.piecewise(z, masks, [_product_series, _product_trapezoid, asymptotic])[()]


def _horner(coeffs, t):
    """sum_k coeffs[k] t^k by Horner's rule, in place on one array."""
    total = np.full_like(t, coeffs[-1])
    for c in coeffs[-2::-1]:
        total *= t
        total += c
    return total


def _product_series(z):
    t = 0.25 * z * z
    i0 = _horner(_I0_COEFS, t)
    k0 = _horner(_K0_COEFS[2:], t) * (t * t)
    k0 += _K0_COEFS[0] + _K0_COEFS[1] * t  # apart: near z = 2 the sum cancels
    k0 -= np.log(0.5 * z) * i0
    return k0 * i0


def _product_trapezoid(z):
    # The trapezoid rule on e^-z I0 = (1/pi) int_0^pi exp(-2z sin^2(u/2)) du
    # (24 panels) and e^z K0 = int_0^inf exp(-2z sinh^2(t/2)) dt (step 0.15 to
    # 3.75) converges exponentially (Trefethen and Weideman, SIAM Rev. 56, 2014)
    i0 = sum(np.exp(-2.0 * math.sin(j * math.pi / 48.0) ** 2 * z) for j in range(1, 24))
    k0 = sum(np.exp(-2.0 * math.sinh(0.075 * j) ** 2 * z) for j in range(1, 26))
    return (i0 + 0.5 + 0.5 * np.exp(-2.0 * z)) * (k0 + 0.5) * (0.15 / 24.0)


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
