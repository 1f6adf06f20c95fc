import math
from dataclasses import replace

import numpy as np
import pytest

from casimir_slabs import (
    NanotubeArraySlab,
    QuadratureError,
    QuadratureSpec,
    crossover_thickness,
    f_parallel_ratio,
    f_perp_ratio,
    halfspace_reflection_coeffs,
    lifshitz_pressure_general,
    main_term_parallel,
    main_term_perp,
    orientation_forces,
    phi,
    psi,
)

OMEGA_P = 2.0e16


def array(d, eps_b=10.0, radius=2.0):
    return NanotubeArraySlab(
        omega_p3d=OMEGA_P, radius_R=radius, thickness_d=d, eps_b=eps_b
    )


class TestBackgroundFactors:
    def test_phi_at_normal_incidence(self):
        # (3+1)/(3-1)
        assert phi(1.0, 9.0) == pytest.approx(2.0, rel=1e-14)

    def test_psi_at_normal_incidence(self):
        # (3+9)/(3-9)
        assert psi(1.0, 9.0) == pytest.approx(-2.0, rel=1e-14)

    def test_phi_large_p_growth(self):
        assert phi(100.0, 9.0) == pytest.approx(4.0 * 100.0 ** 2 / 8.0, rel=0.01)

    def test_large_eps_limits(self):
        assert phi(2.0, 1e12) == pytest.approx(1.0, abs=1e-5)
        assert psi(3.0, 1e12) == pytest.approx(-1.0, abs=1e-5)

    @pytest.mark.parametrize("eps_b", [1.0, 0.5, -3.0])
    def test_eps_b_domain(self, eps_b):
        with pytest.raises(ValueError):
            phi(1.0, eps_b)
        with pytest.raises(ValueError):
            psi(1.0, eps_b)

    def test_p_domain(self):
        with pytest.raises(ValueError):
            phi(0.5, 9.0)

    def test_reciprocals_of_the_halfspace_pair(self):
        # phi = 1/r_s and psi = 1/r_p of a half-space of permittivity eps_b
        for eps_b in (1.5, 10.0, 1e6):
            p = np.geomspace(1.0, 1e3, 7)
            r_s, r_p = halfspace_reflection_coeffs(1.0, p, 1000.0, lambda xi: eps_b)
            assert np.allclose(phi(p, eps_b) * r_s, 1.0, rtol=1e-14, atol=0.0)
            assert np.allclose(psi(p, eps_b) * r_p, 1.0, rtol=1e-14, atol=0.0)

    def test_sign_structure_on_grid(self):
        for eps_b in (1.5, 5.0, 10.0, 100.0):
            for p in np.geomspace(1.0, 1e3, 25):
                f, g = phi(p, eps_b), psi(p, eps_b)
                assert f >= 1.0
                assert g <= -1.0
                assert f * g < 0.0


class TestMainTerms:
    def test_computed_once_per_background(self, fast_spec, monkeypatch):
        from casimir_slabs import anisotropic

        integrate, calls = anisotropic.integrate_xp, []

        def counting(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(anisotropic, "integrate_xp", counting)
        anisotropic._main_parallel_integral.cache_clear()
        slab = array(20.0, eps_b=12.5)
        f_parallel_ratio(slab, 1000.0, fast_spec)
        assert len(calls) == 2  # main term and correction
        cached = f_parallel_ratio(slab, 2000.0, fast_spec)
        assert len(calls) == 3  # the correction only
        anisotropic._main_parallel_integral.cache_clear()
        assert f_parallel_ratio(slab, 2000.0, fast_spec) == cached

    def test_metal_dielectric_identity(self, fast_spec):
        # the crossed main term must equal the general force between a
        # perfect conductor and a constant dielectric, an entirely
        # different code path
        metal = lambda xi: 1e14
        for eps_b in (5.0, 10.0):
            general = lifshitz_pressure_general(
                metal, lambda xi, e=eps_b: e, 1000.0, fast_spec
            )
            assert main_term_perp(eps_b, fast_spec) == pytest.approx(
                general.ratio_to_casimir, rel=1e-5
            )

    def test_both_in_unit_interval_and_monotone(self, fast_spec):
        grid = (2.0, 5.0, 10.0, 50.0, 1e4)
        pars = [main_term_parallel(e, fast_spec) for e in grid]
        perps = [main_term_perp(e, fast_spec) for e in grid]
        for seq in (pars, perps):
            assert all(0.0 < v <= 1.0 for v in seq)
            assert all(a < b for a, b in zip(seq, seq[1:]))

    def test_parallel_exceeds_perp_at_moderate_eps(self, fast_spec):
        for eps_b in (2.0, 5.0, 10.0):
            assert main_term_parallel(eps_b, fast_spec) > main_term_perp(
                eps_b, fast_spec
            )

    def test_anisotropy_grows_as_eps_drops(self, fast_spec):
        def aniso(e):
            return main_term_parallel(e, fast_spec) - main_term_perp(e, fast_spec)

        assert aniso(5.0) > aniso(10.0) > 0.0

    def test_conductor_limit_values(self, spec):
        # frozen against independent high-precision nested quadrature;
        # convergence to 1 is logarithmic in eps_b
        assert main_term_parallel(1e6, spec) == pytest.approx(0.98717557, abs=1e-6)
        assert main_term_perp(1e6, spec) == pytest.approx(0.99229015, abs=1e-6)


class TestLargeEpsLaws:
    """Why acceptance 06's eps_b = 1e6 limit clause fails: 1 - M approaches
    0 only like ln(eps_b)/sqrt(eps_b), the crossed term with half the
    logarithmic coefficient of the co-aligned one."""

    def test_log_over_sqrt_approach(self, spec):
        decades = (1e4, 1e5, 1e6, 1e7, 1e8)

        def increments(term):
            scaled = [math.sqrt(e) * (1.0 - term(e, spec)) for e in decades]
            return [b - a for a, b in zip(scaled, scaled[1:])]

        par, perp = increments(main_term_parallel), increments(main_term_perp)
        assert all(abs(step - 2.556) <= 0.05 for step in par)
        assert all(abs(step - 1.278) <= 0.025 for step in perp)
        assert all(abs(a / b - 2.0) <= 0.03 for a, b in zip(par, perp))


class TestOrientationForces:
    def test_infinite_plasma_frequency_reduces_to_main_terms(self, fast_spec):
        stiff = NanotubeArraySlab(
            omega_p3d=1e30, radius_R=2.0, thickness_d=20.0, eps_b=10.0
        )
        par = f_parallel_ratio(stiff, 1000.0, fast_spec)
        perp = f_perp_ratio(stiff, 1000.0, fast_spec)
        assert par.ratio_to_casimir == pytest.approx(
            main_term_parallel(10.0, fast_spec), abs=1e-9
        )
        assert perp.ratio_to_casimir == pytest.approx(
            main_term_perp(10.0, fast_spec), abs=1e-9
        )

    def test_bounded_by_main_terms(self, fast_spec, tube_array):
        par = f_parallel_ratio(tube_array, 1000.0, fast_spec)
        perp = f_perp_ratio(tube_array, 1000.0, fast_spec)
        assert par.ratio_to_casimir < main_term_parallel(10.0, fast_spec)
        assert perp.ratio_to_casimir < main_term_perp(10.0, fast_spec)

    def test_ratio_increases_with_monolayer_count(self, fast_spec):
        ratios = [
            f_parallel_ratio(array(n * 4.0), 1000.0, fast_spec).ratio_to_casimir
            for n in (1, 3, 5, 10)
        ]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))

    def test_thick_slabs_prefer_parallel(self, fast_spec):
        forces = orientation_forces(array(50.0), 1000.0, fast_spec)
        assert forces.f_perp.ratio_to_casimir < forces.f_parallel.ratio_to_casimir

    def test_thin_slabs_prefer_perpendicular(self, fast_spec):
        forces = orientation_forces(array(4.0), 1000.0, fast_spec)
        assert forces.anisotropy < 0.0

    def test_anisotropy_is_exact_difference(self, fast_spec, tube_array):
        forces = orientation_forces(tube_array, 1000.0, fast_spec)
        assert forces.anisotropy == (
            forces.f_parallel.ratio_to_casimir - forces.f_perp.ratio_to_casimir
        )

    def test_quadrature_failure_flagged(self, tube_array):
        broken = QuadratureSpec(rel_tol=1e-15, abs_tol=0.0)  # below the roundoff floor
        res = f_parallel_ratio(tube_array, 1000.0, broken)
        assert res.validity == "quadrature_failed"


@pytest.fixture(scope="module")
def counted_crossover(fast_spec):
    """The eps_b = 10, l = 1000 nm search on [4, 100] nm, with the
    thickness of every orientation_forces call it made."""
    from casimir_slabs import anisotropic

    forces, probed = anisotropic.orientation_forces, []

    def counting(array, l, spec=None):
        probed.append(array.thickness_d)
        return forces(array, l, spec)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(anisotropic, "orientation_forces", counting)
        res = crossover_thickness(array(100.0), 1000.0, (4.0, 100.0), fast_spec)
    return res, probed


class TestCrossover:
    def test_bracketed_root_found(self, counted_crossover, fast_spec):
        res, _ = counted_crossover
        assert res.sign_low < 0.0 < res.sign_high
        assert res.crossover_d is not None
        assert 4.0 < res.crossover_d < 100.0
        assert res.iterations >= 1
        # the anisotropy is small at the returned thickness
        forces = orientation_forces(
            replace(array(100.0), thickness_d=res.crossover_d), 1000.0, fast_spec
        )
        assert abs(forces.anisotropy) <= 1e-4

    def test_sign_structure_around_root(self, counted_crossover, fast_spec):
        res, _ = counted_crossover
        below = orientation_forces(
            replace(array(100.0), thickness_d=res.crossover_d - 3.0), 1000.0, fast_spec
        )
        above = orientation_forces(
            replace(array(100.0), thickness_d=res.crossover_d + 3.0), 1000.0, fast_spec
        )
        assert below.anisotropy < 0.0 < above.anisotropy

    def test_thickness_error_is_stated(self, counted_crossover):
        res, _ = counted_crossover
        assert 0.0 < res.d_error <= 1e-2

    def test_root_lies_within_thickness_error(self, counted_crossover, fast_spec):
        # the bound holds for the anisotropy computed at tighter tolerances
        res, _ = counted_crossover
        d, tight = res.crossover_d, fast_spec.tightened()
        below = orientation_forces(
            replace(array(100.0), thickness_d=d - res.d_error), 1000.0, tight
        )
        above = orientation_forces(
            replace(array(100.0), thickness_d=d + res.d_error), 1000.0, tight
        )
        assert below.anisotropy < 0.0 < above.anisotropy

    def test_iterations_count_probes_after_bracket_ends(self, counted_crossover):
        res, probed = counted_crossover
        assert res.iterations == len(probed) - 2
        assert len(set(probed)) == len(probed)  # no thickness probed twice
        assert probed[:2] == [4.0, 100.0]

    def test_no_bracket_returns_none_with_signs(self, fast_spec):
        res = crossover_thickness(array(100.0), 1000.0, (50.0, 70.0), fast_spec)
        assert res.crossover_d is None
        assert res.sign_low > 0.0 and res.sign_high > 0.0
        assert res.iterations == 0
        assert res.d_error is None

    def test_inverted_range_rejected(self, fast_spec):
        with pytest.raises(ValueError):
            crossover_thickness(array(100.0), 1000.0, (100.0, 4.0), fast_spec)

    def test_probe_below_monolayer_rejected(self, fast_spec):
        with pytest.raises(ValueError):
            crossover_thickness(array(100.0), 1000.0, (1.0, 100.0), fast_spec)

    def test_quadrature_failure_propagates(self, tube_array):
        broken = QuadratureSpec(rel_tol=1e-15, abs_tol=0.0)  # below the roundoff floor
        with pytest.raises(QuadratureError):
            crossover_thickness(tube_array, 1000.0, (10.0, 30.0), broken)
