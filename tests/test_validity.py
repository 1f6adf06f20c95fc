import math

import pytest

from casimir_slabs import (
    IsotropicSlab,
    applicability_report,
    film_reflection_coeffs,
    halfspace_reflection_coeffs,
    local_drude_fn,
    plasma_skin_depth_nm,
)
from casimir_slabs.constants import C_NM_PER_S
from casimir_slabs.validity import _P_GRID, _X_GRID

OMEGA_P = 2.0e16
DRUDE = local_drude_fn(OMEGA_P, 9.0)


def film(d):
    return IsotropicSlab(omega_p3d=OMEGA_P, thickness_d=d, eps_b=9.0)


class TestHalfspaceCoefficients:
    def test_vacuum_has_no_interface(self):
        r_s, r_p = halfspace_reflection_coeffs(1.0, 2.0, 1000.0, lambda xi: 1.0)
        assert r_s == 0.0
        assert r_p == 0.0

    def test_normal_incidence_eps_409(self):
        # r_s = (sqrt(409)-1)/(sqrt(409)+1)
        r_s, r_p = halfspace_reflection_coeffs(1.0, 1.0, 1000.0, lambda xi: 409.0)
        s = math.sqrt(409.0)
        assert r_s == pytest.approx((s - 1.0) / (s + 1.0), rel=1e-12)
        assert r_s == pytest.approx(0.9058, abs=2e-4)
        assert r_p == pytest.approx(-r_s, rel=1e-9)  # degenerate at p = 1

    def test_conductor_asymptotes(self):
        r_s, r_p = halfspace_reflection_coeffs(1.0, 2.0, 1000.0, lambda xi: 1e8)
        assert 0.99 < r_s < 1.0  # approaches 1 only as 1 - O(1/sqrt(eps))
        assert -1.0 < r_p < -0.999

    def test_s_reflection_weaker_than_p_at_oblique(self):
        r_s, r_p = halfspace_reflection_coeffs(1.0, 4.0, 1000.0, DRUDE)
        assert abs(r_p) > abs(r_s)


class TestFilmCoefficients:
    def test_thick_film_equals_halfspace(self):
        r = halfspace_reflection_coeffs(1.0, 2.0, 1000.0, DRUDE)
        big = film_reflection_coeffs(1.0, 2.0, 1000.0, 1.0e9, DRUDE)
        assert big[0] == pytest.approx(r[0], rel=1e-12)
        assert big[1] == pytest.approx(r[1], rel=1e-12)

    def test_ten_nm_film_suppressed_backscattering(self):
        # 2 d omega_p / c = 4/3 > 1 at d = 10 nm (with c rounded to 3e8 m/s)
        assert 2.0 * 10.0 * OMEGA_P / C_NM_PER_S == pytest.approx(4.0 / 3.0, rel=1e-2)
        r_s, _ = halfspace_reflection_coeffs(1.0, 1.0, 100.0, DRUDE)
        f_s, _ = film_reflection_coeffs(1.0, 1.0, 100.0, 10.0, DRUDE)
        assert abs(f_s - r_s) / abs(r_s) == pytest.approx(0.0799, abs=2e-3)

    def test_one_nm_film_materially_worse(self):
        r_s, _ = halfspace_reflection_coeffs(1.0, 1.0, 100.0, DRUDE)
        f10, _ = film_reflection_coeffs(1.0, 1.0, 100.0, 10.0, DRUDE)
        f1, _ = film_reflection_coeffs(1.0, 1.0, 100.0, 1.0, DRUDE)
        dev10 = abs(f10 - r_s) / r_s
        dev1 = abs(f1 - r_s) / r_s
        assert dev1 > 5.0 * dev10

    def test_exponent_matches_metallic_closed_form(self):
        # for the damping-free metal the attenuation exponent equals
        # -2 d (wp/c) sqrt(1 + x^2 (p^2 + eps_b - 1)/p^2 (c/(2 l wp))^2)
        x, p, l, d, eps_b = 2.0, 1.5, 500.0, 15.0, 9.0
        exponent = (
            -2.0
            * d
            * OMEGA_P
            / C_NM_PER_S
            * math.sqrt(
                1.0
                + x * x * (p * p + eps_b - 1.0) / (p * p)
                * (C_NM_PER_S / (2.0 * l * OMEGA_P)) ** 2
            )
        )
        attenuation = math.exp(exponent)
        r_s, r_p = halfspace_reflection_coeffs(x, p, l, DRUDE)
        expected_s = r_s * (1.0 - attenuation) / (1.0 - r_s * r_s * attenuation)
        expected_p = r_p * (1.0 - attenuation) / (1.0 - r_p * r_p * attenuation)
        f_s, f_p = film_reflection_coeffs(x, p, l, d, DRUDE)
        assert f_s == pytest.approx(expected_s, rel=1e-12)
        assert f_p == pytest.approx(expected_p, rel=1e-12)

    def test_monotone_approach_with_thickness(self):
        r_s, r_p = halfspace_reflection_coeffs(1.0, 2.0, 1000.0, DRUDE)
        gaps_s, gaps_p = [], []
        for d in (5.0, 10.0, 20.0, 40.0, 80.0):
            f_s, f_p = film_reflection_coeffs(1.0, 2.0, 1000.0, d, DRUDE)
            gaps_s.append(abs(f_s - r_s))
            gaps_p.append(abs(f_p - r_p))
        assert all(a > b for a, b in zip(gaps_s, gaps_s[1:]))
        assert all(a > b for a, b in zip(gaps_p, gaps_p[1:]))

    def test_no_amplification(self):
        for x in (0.5, 1.0, 2.0, 4.0):
            for p in (1.0, 1.5, 2.0, 4.0, 10.0):
                r_s, r_p = halfspace_reflection_coeffs(x, p, 1000.0, DRUDE)
                f_s, f_p = film_reflection_coeffs(x, p, 1000.0, 15.0, DRUDE)
                assert abs(f_s) <= abs(r_s) * (1.0 + 1e-10)
                assert abs(f_p) <= abs(r_p) * (1.0 + 1e-10)


class TestApplicabilityReport:
    @pytest.mark.parametrize("d, l", [(2.0, 1000.0), (10.0, 100.0), (200.0, 5000.0)])
    def test_matches_scalar_loop_over_the_grid(self, d, l):
        # the report's one array evaluation against a point-by-point scan
        worst_s = worst_p = 0.0
        for x in _X_GRID:
            for p in _P_GRID:
                r_s, r_p = halfspace_reflection_coeffs(x, p, l, DRUDE)
                f_s, f_p = film_reflection_coeffs(x, p, l, d, DRUDE)
                worst_s = max(worst_s, abs(f_s - r_s) / abs(r_s))
                worst_p = max(worst_p, abs(f_p - r_p) / abs(r_p))
        report = applicability_report(film(d), l)
        assert report.max_rel_deviation_s == pytest.approx(worst_s, rel=1e-14)
        assert report.max_rel_deviation_p == pytest.approx(worst_p, rel=1e-14)

    @pytest.mark.parametrize("d, deviation", [(10.0, 0.18518), (20.0, 0.04310)])
    def test_worst_s_deviation_is_the_round_trip_closed_form(self, d, deviation):
        # Why acceptance 09 fails at l = 100 nm: at the grid point (4, 10)
        # R_s/r_s - 1 = -E(1 - r^2)/(1 - r^2 E), with r and E written out
        # here, dominates; it stays below e^(-2 d omega_p/c) but above 1%.
        x, p, l = 4.0, 10.0, 100.0
        xi = x * C_NM_PER_S / (2.0 * p * l)
        eps = 9.0 + (OMEGA_P / xi) ** 2
        s = math.sqrt(eps - 1.0 + p * p)
        r = (s - p) / (s + p)
        e = math.exp(-2.0 * d * xi * s / C_NM_PER_S)
        closed_form = e * (1.0 - r * r) / (1.0 - r * r * e)
        report = applicability_report(film(d), l)
        assert report.max_rel_deviation_s == pytest.approx(closed_form, rel=1e-13)
        assert report.max_rel_deviation_s == pytest.approx(deviation, abs=1e-5)
        assert 0.01 < closed_form < math.exp(-2.0 * d * OMEGA_P / C_NM_PER_S)
        assert report.d_ok and not report.verdict

    def test_twenty_nm_film_at_micron(self):
        report = applicability_report(film(20.0), 1000.0)
        assert report.d_ok and report.l_ok
        assert report.max_rel_deviation_s <= 0.01
        assert report.max_rel_deviation_p <= 0.01
        assert report.verdict

    def test_thick_film_deviations_negligible(self):
        report = applicability_report(film(200.0), 1000.0)
        assert report.max_rel_deviation_s < 1e-6
        assert report.max_rel_deviation_p < 1e-6
        assert report.verdict

    def test_two_nm_film_rejected(self):
        report = applicability_report(film(2.0), 1000.0)
        assert not report.d_ok  # 2 d omega_p / c = 0.267 < 1
        assert not report.verdict

    def test_verdict_consistent_with_fields(self):
        for d, l in ((2.0, 1000.0), (20.0, 1000.0), (10.0, 1000.0)):
            report = applicability_report(film(d), l)
            expected = (
                report.d_ok
                and report.l_ok
                and report.max_rel_deviation_s <= report.threshold
                and report.max_rel_deviation_p <= report.threshold
            )
            assert report.verdict == expected

    def test_threshold_configurable(self):
        strict = applicability_report(film(20.0), 1000.0, threshold=1e-4)
        assert not strict.verdict
        loose = applicability_report(film(20.0), 1000.0, threshold=0.5)
        assert loose.verdict

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            applicability_report(film(20.0), -1.0)
        with pytest.raises(ValueError):
            applicability_report(film(20.0), 1000.0, threshold=0.0)


class TestSkinDepth:
    def test_fifteen_nm_scale(self):
        depth = plasma_skin_depth_nm(OMEGA_P)
        assert depth == C_NM_PER_S / OMEGA_P
        assert depth == pytest.approx(15.0, rel=1e-3)

    def test_domain(self):
        with pytest.raises(ValueError):
            plasma_skin_depth_nm(0.0)
