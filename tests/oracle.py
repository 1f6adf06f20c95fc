"""Independent references for the quadrature engine.

Nested adaptive Gauss-Kronrod quadrature (QUADPACK through
scipy.integrate.quad) over scalar kernels written out here from the
force formulas, with no code shared with the package's kernels or rule.
The only place scipy.integrate is used; mpmath serves the
closed-form checks elsewhere.
"""

import math
from functools import lru_cache

from scipy.integrate import quad
from scipy.special import i0, k0

__all__ = ["quad", "iso_nonlocal_ratio", "array_ratios"]

C_NM_PER_S = 2.99792458e17
RATIO_NORM = 15.0 / (2.0 * math.pi ** 4)
REL_TOL = 1.0e-11
X_MAX = 60.0  # e^-60 leaves nothing of the x^4 e^-x weights
U_MAX = 40.0  # p = cosh u; p^-2 integrands leave ~e^-40


def nested(f):
    """(value, error) of int_0^X_MAX int_0^U_MAX f(x, cosh u, sinh u) sinh u du dx.

    The error adds QUADPACK's outer estimate, the worst relative inner
    estimate times the value (the kernels are positive), and twice the
    integrand at both truncations."""
    worst = [0.0]

    def inner(x):
        g = lambda u: f(x, math.cosh(u), math.sinh(u)) * math.sinh(u)
        value, err = quad(g, 0.0, U_MAX, epsabs=0.0, epsrel=REL_TOL / 10, limit=400)
        worst[0] = max(worst[0], (err + 2.0 * abs(g(U_MAX))) / abs(value))
        return value

    value, err = quad(inner, 0.0, X_MAX, epsabs=0.0, epsrel=REL_TOL, limit=400)
    return value, err + worst[0] * abs(value) + 2.0 * abs(inner(X_MAX))


def bose(x):
    return x ** 4 * math.exp(-x) / math.expm1(-x) ** 2


def iso_nonlocal_ratio(omega_p, d, eps_tilde, l):
    """(F/F_C, error) of identical free-standing isotropic films."""
    beta = 2.0 * l / (eps_tilde * d)

    def kernel(x, p, q):
        return bose(x) * (p * p + 1.0) / p ** 4 * math.sqrt(1.0 + beta * p / (x * q))

    value, err = nested(kernel)
    coef = 15.0 * C_NM_PER_S / (math.pi ** 4 * omega_p * l)
    return 1.0 - coef * value, coef * err


def _phi(p, eps_b):
    s = math.sqrt(eps_b - 1.0 + p * p)
    return (s + p) / ((eps_b - 1.0) / (s + p))  # (S+p)/(S-p)


def _psi(p, eps_b):
    s = math.sqrt(eps_b - 1.0 + p * p)
    minus = (eps_b - 1.0) * (1.0 - p * p * (eps_b + 1.0)) / (s + eps_b * p)
    return (s + eps_b * p) / minus  # (S+eps_b p)/(S-eps_b p)


@lru_cache(maxsize=None)
def main_terms(eps_b):
    """((parallel, error), (perp, error)) in the infinite-omega_p limit."""

    def parallel(x, p, q):
        e = math.exp(-x)
        return x ** 3 / (p * p) * e / (_phi(p, eps_b) ** 2 - e)

    def perp(x, p, q):
        e = math.exp(-x)
        both = 1.0 / (_phi(p, eps_b) - e) - 1.0 / (_psi(p, eps_b) + e)
        return x ** 3 / (p * p) * e * both

    par, perp = nested(parallel), nested(perp)
    return (0.5 + RATIO_NORM * par[0], RATIO_NORM * par[1]), (
        RATIO_NORM * perp[0], RATIO_NORM * perp[1])


def array_ratios(omega_p, radius, period, d, eps_b, l):
    """((F_par/F_C, error), (F_perp/F_C, error)) of free-standing
    nanotube-array slabs, from the main terms minus the Bessel-weighted
    plasma-frequency corrections."""
    et_d = eps_b / 2.0 * d

    def radical(x, p, q):
        a = 2.0 * l / radius * p / (x * q)
        z = 1.0 / a
        pref = period / (4.0 * math.pi * radius)
        return math.sqrt(pref * a * (1.0 + radius * a / et_d) / (i0(z) * k0(z)))

    def perp_kernel(x, p, q):
        e, ph, ps = math.exp(-x), _phi(p, eps_b), _psi(p, eps_b)
        bracket = ph * p / (ph - e) ** 2 - (ps / p) / (ps + e) ** 2
        return x ** 4 * e * bracket / p ** 3 * radical(x, p, q)

    corr_par = nested(lambda x, p, q: bose(x) / p ** 4 * radical(x, p, q))
    corr_perp = nested(perp_kernel)
    coef = 15.0 * C_NM_PER_S / (math.pi ** 4 * omega_p * l)
    (m_par, e_par), (m_perp, e_perp) = main_terms(eps_b)
    return (
        (m_par - coef * corr_par[0], e_par + coef * corr_par[1]),
        (m_perp - 0.5 * coef * corr_perp[0], e_perp + 0.5 * coef * corr_perp[1]),
    )
