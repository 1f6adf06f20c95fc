import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from casimir_slabs import (
    IsotropicSlab,
    NanotubeArraySlab,
    QuadratureError,
    QuadratureSpec,
    bose_integral,
    crossover_thickness,
    f_parallel_ratio,
    f_perp_ratio,
    halfspace_reflection_coeffs,
    lifshitz_pressure_general,
    main_term_parallel,
    main_term_perp,
    nonlocal_isotropic_ratio,
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
        for p in (math.nan, np.array([1.0, math.nan])):
            with pytest.raises(ValueError):
                phi(p, 9.0)
            with pytest.raises(ValueError):
                psi(p, 9.0)

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
        from casimir_slabs import anisotropic, lifshitz

        integrate, calls = anisotropic.integrate_xp, []

        def counting(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        # main terms integrate in anisotropic, the shared correction in lifshitz
        for module in (anisotropic, lifshitz):
            monkeypatch.setattr(module, "integrate_xp", counting)
        anisotropic._main_parallel_integral.cache_clear()
        slab = array(20.0, eps_b=12.5)
        f_parallel_ratio(slab, 1000.0, fast_spec)
        assert len(calls) == 2  # main term and correction
        cached = f_parallel_ratio(slab, 2000.0, fast_spec)
        assert len(calls) == 3  # the correction only
        anisotropic._main_parallel_integral.cache_clear()
        assert f_parallel_ratio(slab, 2000.0, fast_spec) == cached

    @pytest.mark.parametrize(
        "call, integral",
        [
            (lambda *spec: main_term_parallel(10.0, *spec), "_main_parallel_integral"),
            (lambda *spec: main_term_perp(10.0, *spec), "_main_perp_integral"),
            (lambda *spec: f_parallel_ratio(array(20.0), 1000.0, *spec),
             "_main_parallel_integral"),
            (lambda *spec: f_perp_ratio(array(20.0), 1000.0, *spec),
             "_main_perp_integral"),
        ],
        ids=["main_term_parallel", "main_term_perp", "f_parallel_ratio", "f_perp_ratio"],
    )
    def test_omitted_and_default_spec_share_one_entry(self, call, integral):
        from casimir_slabs import anisotropic

        cache = getattr(anisotropic, integral)
        cache.cache_clear()
        assert call() == call(QuadratureSpec())
        assert cache.cache_info().misses == 1

    @pytest.mark.parametrize("main_term", [main_term_parallel, main_term_perp])
    def test_unconverged_main_term_raises(self, main_term):
        # below the roundoff floor neither integral converges; a bare main
        # term has no validity flag to carry that, so it must not return
        broken = QuadratureSpec(rel_tol=1e-16, abs_tol=0.0)
        with pytest.raises(QuadratureError, match="main term did not converge"):
            main_term(10.0, broken)

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

    def test_log_slope_is_the_derived_constant(self, spec):
        # phi^2 - 1 ~ 4p/sqrt(eps_b) for p << sqrt(eps_b), the x integral
        # is 6 zeta(3) and the p integral (1/2) ln eps_b, so
        # sqrt(eps_b)(1 - M_par) - (90 zeta(3)/pi^4) ln eps_b tends to a
        # constant; the crossed term has half the slope (phi - 1 ~ 2p/sqrt(eps_b),
        # the psi part gives no logarithm).
        slope = 90.0 * (bose_integral(3.0) / 6.0) / math.pi ** 4
        assert slope == pytest.approx(1.1106265, abs=1e-7)

        def residual(term, eps_b, c):
            return math.sqrt(eps_b) * (1.0 - term(eps_b, spec)) - c * math.log(eps_b)

        for term, c, at_1e7, at_1e8 in (
            (main_term_parallel, slope, -2.5236, -2.5249),
            (main_term_perp, 0.5 * slope, 0.03722, 0.03700),
        ):
            r7, r8 = residual(term, 1e7, c), residual(term, 1e8, c)
            assert r7 == pytest.approx(at_1e7, abs=1e-4)
            assert r8 == pytest.approx(at_1e8, abs=1e-4)
            assert abs(r8 - r7) < 0.002


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
    thickness and the result of every orientation_forces call it made."""
    from casimir_slabs import anisotropic

    forces, probed = anisotropic.orientation_forces, []

    def counting(array, l, spec=None):
        result = forces(array, l, spec)
        probed.append((array.thickness_d, result))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(anisotropic, "orientation_forces", counting)
        res = crossover_thickness(array(100.0), 1000.0, (4.0, 100.0), fast_spec)
    return res, probed


@pytest.fixture
def background_calls(monkeypatch):
    """Calls of phi and psi through anisotropic, by name."""
    from collections import Counter

    from casimir_slabs import anisotropic

    calls = Counter()

    def counting(name, function):
        def counted(*args):
            calls[name] += 1
            return function(*args)
        return counted

    for name, function in (("phi", phi), ("psi", psi)):
        monkeypatch.setattr(anisotropic, name, counting(name, function))
    return calls


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
        thicknesses = [d for d, _ in probed]
        assert res.iterations == len(thicknesses) - 2
        assert len(set(thicknesses)) == len(thicknesses)  # no thickness probed twice
        assert thicknesses[:2] == [4.0, 100.0]

    def test_probes_equal_standalone_forces(self, counted_crossover, fast_spec):
        # the search's shared Bessel table changes no bit of any probe
        _, probed = counted_crossover
        for d, forces in probed:
            slab = replace(array(100.0), thickness_d=d)
            assert forces.f_parallel == f_parallel_ratio(slab, 1000.0, fast_spec)
            assert forces.f_perp == f_perp_ratio(slab, 1000.0, fast_spec)

    def test_bessel_normalisation_computed_once_per_block(self, bessel_calls):
        # Every probe and both orientations reuse the cached blocks: one
        # Bessel call per distinct node block (at most 2 per level, 5 levels),
        # where each probe and orientation would otherwise recompute all.
        counts = []
        for _ in range(2):
            bessel_calls.cold()
            res = crossover_thickness(array(100.0), 1000.0, (4.0, 100.0))
            assert res.iterations >= 5
            assert len(set(bessel_calls)) == len(bessel_calls) <= 10
            counts.append(len(bessel_calls))
        # each search from an empty cache makes the same calls, and a
        # second search on the kept blocks makes none
        assert counts[0] == counts[1] > 0
        bessel_calls.clear()
        crossover_thickness(array(100.0), 1000.0, (4.0, 100.0))
        assert bessel_calls == []

    def test_cache_holds_every_block_of_one_integral(self, bessel_calls, monkeypatch,
                                                    background_calls):
        # At this tolerance every level runs, so the co-aligned integral
        # touches one node block per level it runs, levels 3 to 5; both
        # caches must hold them all for the crossed one to make no Bessel
        # or phi call at all.
        from casimir_slabs import anisotropic

        perp, before_perp = anisotropic.f_perp_ratio, []

        def counted(*args):
            before_perp.append((len(bessel_calls), background_calls["phi"]))
            return perp(*args)

        monkeypatch.setattr(anisotropic, "f_perp_ratio", counted)
        every_level = QuadratureSpec(rel_tol=1e-15, abs_tol=0.0)
        # the main terms' own phi calls; at this spec they do not converge,
        # so their integrals are cached directly
        anisotropic._main_parallel_integral(10.0, every_level)
        anisotropic._main_perp_integral(10.0, every_level)
        background_calls.clear()
        orientation_forces(array(20.0), 1000.0, every_level)
        blocks = 3
        assert before_perp == [(len(bessel_calls), background_calls["phi"])]
        assert before_perp == [(blocks, blocks)]

    def test_cold_search_computes_each_weight_once_per_block(
        self, bessel_calls, background_calls
    ):
        # The weights do not depend on the thickness: a search makes one
        # phi and one psi call per node block, not one per block and probe.
        main_term_parallel(10.0)  # the main terms' own calls are cached
        main_term_perp(10.0)
        bessel_calls.cold()
        background_calls.clear()
        res = crossover_thickness(array(100.0), 1000.0, (4.0, 100.0))
        assert res.iterations >= 5
        assert 0 < background_calls["phi"] <= 10
        assert 0 < background_calls["psi"] <= 10

    def test_second_search_at_one_l_radius_and_eps_b_makes_no_calls(
        self, bessel_calls, background_calls
    ):
        crossover_thickness(array(100.0), 1000.0, (4.0, 100.0))
        bessel_calls.clear()
        background_calls.clear()
        crossover_thickness(array(100.0), 1000.0, (4.0, 100.0))
        assert bessel_calls == []
        assert background_calls == {}

    def test_cached_weights_are_read_only(self, bessel_calls):
        # every force at one (l, R, eps_b) reads the same cached arrays
        from casimir_slabs import anisotropic
        from casimir_slabs.lifshitz import _bose
        from casimir_slabs.quadrature import _p_nodes, _tanh_sinh
        from casimir_slabs.response import _tube_normalisation, momentum_from_xp

        x = _tanh_sinh(40.0, 0.5, 1)[0][:, None]
        p, q = (nodes[None, :] for nodes in _p_nodes("hyperbolic", 1)[:2])
        key = x.tobytes(), p.tobytes(), q.tobytes()
        weights = anisotropic._tube_weights(key, 1000.0, 2.0, 10.0)
        assert anisotropic._tube_weights(key, 1000.0, 2.0, 10.0) is weights
        norm = _tube_normalisation(momentum_from_xp(x, p, q, 1000.0) * 2.0)
        assert np.array_equal(weights[0], _bose(x) / (p * p) ** 2 / norm)
        for weight in weights:
            assert weight.shape == (x.size, p.size)
            with pytest.raises(ValueError, match="read-only"):
                weight *= 2.0
            with pytest.raises(ValueError, match="read-only"):
                weight[0, 0] = 1.0

    def test_threads_share_the_cache_bit_for_bit(self, fast_spec, bessel_calls):
        # orientation_forces at two separations and film forces at four
        # (d, l), run concurrently in six threads from empty node-block
        # caches, return the bits of the serial calls
        slab = array(20.0)
        separations = (500.0, 1000.0)
        films = [(IsotropicSlab(omega_p3d=OMEGA_P, thickness_d=d, eps_b=9.0), l)
                 for d, l in ((10.0, 1000.0), (10.0, 300.0), (200.0, 1000.0),
                              (1.0, 5000.0))]
        calls = [(orientation_forces, (slab, l, fast_spec)) for l in separations]
        calls += [(nonlocal_isotropic_ratio, (film, l, fast_spec)) for film, l in films]
        serial = [f(*args) for f, args in calls]
        bessel_calls.cold()
        results = [None] * len(calls)

        def run(i):
            f, args = calls[i]
            for _ in range(3):
                results[i] = f(*args)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(len(calls))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == serial

    def test_threads_fill_the_caches_with_the_serial_bits(self, fast_spec,
                                                          bessel_calls,
                                                          background_calls):
        # Two threads probe different thicknesses at one (l, R, eps_b) from
        # empty caches: each gets the serial bits, and the blocks they
        # cached serve a third thickness with no Bessel, phi or psi call.
        thicknesses = (20.0, 60.0, 40.0)
        serial = [orientation_forces(array(d), 1000.0, fast_spec) for d in thicknesses]
        bessel_calls.cold()
        results = [None, None]

        def run(i):
            results[i] = orientation_forces(array(thicknesses[i]), 1000.0, fast_spec)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == serial[:2]
        bessel_calls.clear()
        background_calls.clear()
        assert orientation_forces(array(40.0), 1000.0, fast_spec) == serial[2]
        assert bessel_calls == []
        assert background_calls == {}

    def test_bad_high_end_rejected_before_any_integral(self, monkeypatch):
        from casimir_slabs import quadrature

        integrate, started = quadrature.integrate_p_axis, []

        def counting(*args, **kwargs):
            started.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(quadrature, "integrate_p_axis", counting)
        with pytest.raises(ValueError, match="thickness_d = inf nm"):
            crossover_thickness(array(40.0), 1000.0, (40.0, math.inf))
        assert started == []

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
