import math

import mpmath
import numpy as np
import pytest

from casimir_slabs import bessel_i0k0_product, bose_integral
from oracle import quad

EULER_GAMMA = 0.5772156649015329


def i0_series(z: float) -> float:
    """Independent power-series I0: sum (z^2/4)^k / (k!)^2."""
    term, total, k = 1.0, 1.0, 0
    while term > 1e-18 * total:
        k += 1
        term *= (z * z / 4.0) / (k * k)
        total += term
    return total


def k0_series(z: float) -> float:
    """Independent small-argument K0: -(ln(z/2)+gamma) I0 + harmonic series."""
    prefix = -(math.log(z / 2.0) + EULER_GAMMA) * i0_series(z)
    term, total, harmonic, k = 1.0, 0.0, 0.0, 0
    while k < 40:
        k += 1
        term *= (z * z / 4.0) / (k * k)
        harmonic += 1.0 / k
        total += term * harmonic
    return prefix + total


class TestBesselProduct:
    def test_z_equal_one_against_series_oracle(self):
        oracle = i0_series(1.0) * k0_series(1.0)  # 0.5330446749562685
        assert bessel_i0k0_product(1.0) == pytest.approx(oracle, rel=1e-12)
        assert bessel_i0k0_product(1.0) == pytest.approx(0.5330446749562685, abs=1e-12)

    def test_large_z_asymptote(self):
        # z I0(z) K0(z) -> 1/2
        assert 1.0e4 * bessel_i0k0_product(1.0e4) == pytest.approx(0.5, abs=1e-4)

    def test_no_overflow_up_to_1e6(self):
        value = bessel_i0k0_product(1.0e6)
        assert math.isfinite(value)
        assert 1.0e6 * value == pytest.approx(0.5, rel=1e-6)

    def test_small_z_log_divergence(self):
        tiny = bessel_i0k0_product(1.0e-6)
        assert math.isfinite(tiny) and tiny > 0.0
        assert tiny > bessel_i0k0_product(1.0)

    def test_strictly_decreasing_on_log_grid(self):
        grid = np.geomspace(1e-3, 1e4, 60)
        values = [bessel_i0k0_product(z) for z in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("z", [0.0, -1.0, -1e-9, math.nan])
    def test_domain_error(self, z):
        with pytest.raises(ValueError):
            bessel_i0k0_product(z)

    def test_against_mpmath_at_40_digits(self):
        # log-spaced over [1e-10, 1e6], denser where the K0 series cancels
        # (1 < z <= 2), plus the branch joins z = 2 and 20 and the three
        # floats on either side of each
        joins = []
        for join in (2.0, 20.0):
            below = above = join
            for _ in range(3):
                below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
                joins += [below, above]
            joins.append(join)
        grid = np.concatenate(
            [np.geomspace(1e-10, 1e6, 400), np.linspace(1.0, 2.0, 101), joins]
        )
        values = bessel_i0k0_product(grid)
        with mpmath.workdps(40):
            for z, value in zip(grid, values):
                exact = mpmath.besseli(0, z) * mpmath.besselk(0, z)
                assert abs(value - exact) <= 2.0e-15 * exact, z


def zeta_series(s: float, n_terms: int = 200) -> float:
    """Independent zeta via direct series plus Euler-Maclaurin tail."""
    total = sum(n ** -s for n in range(1, n_terms + 1))
    tail = n_terms ** (1.0 - s) / (s - 1.0) - 0.5 * n_terms ** -s
    correction = s / 12.0 * n_terms ** (-s - 1.0)
    return total + tail + correction


class TestBoseIntegral:
    def test_s_four_closed_form(self):
        # integration by parts gives Gamma(5) zeta(4) = 24 pi^4/90
        assert bose_integral(4.0) == pytest.approx(24.0 * math.pi ** 4 / 90.0, rel=1e-14)

    def test_s_seven_halves(self):
        # Gamma(9/2) = 105 sqrt(pi)/16, zeta(7/2) by series
        oracle = 105.0 * math.sqrt(math.pi) / 16.0 * zeta_series(3.5)
        assert bose_integral(3.5) == pytest.approx(oracle, rel=1e-9)
        assert bose_integral(3.5) == pytest.approx(13.105862319846068, rel=1e-12)

    def test_s_two_against_brute_force_quadrature(self):
        brute, _ = quad(lambda x: x * x * math.exp(-x) / math.expm1(-x) ** 2, 0, 60)
        assert bose_integral(2.0) == pytest.approx(brute, rel=1e-9)
        assert bose_integral(2.0) == pytest.approx(2.0 * math.pi ** 2 / 6.0, rel=1e-12)

    @pytest.mark.parametrize("s", [1.0, 0.5, 0.0, -2.0, math.nan])
    def test_domain_error(self, s):
        with pytest.raises(ValueError):
            bose_integral(s)

    def test_against_mpmath_at_40_digits(self):
        # s - 1 log-spaced over [1e-3, 59], plus s = 3.5 and 4, which the
        # thin-film law and the local-metal check use
        grid = [1.0 + t for t in np.geomspace(1.0e-3, 59.0, 60)] + [3.5, 4.0]
        with mpmath.workdps(40):
            for s in grid:
                exact = mpmath.gamma(s + 1.0) * mpmath.zeta(s)
                assert abs(bose_integral(s) - exact) <= 1.0e-15 * exact, s
