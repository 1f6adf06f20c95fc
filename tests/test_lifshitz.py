import math

import numpy as np
import pytest

from conftest import empty_node_block_caches
from casimir_slabs import (
    IsotropicSlab,
    bose_integral,
    casimir_pressure,
    integrate_xp,
    lifshitz_force_local,
    lifshitz_pressure_general,
    local_drude_fn,
    nonlocal_isotropic_ratio,
    thin_limit_coefficient,
    thin_limit_ratio,
)
from casimir_slabs import QuadratureSpec, cli, eps_tilde, lifshitz, momentum_from_xp
from casimir_slabs.constants import C_NM_PER_S, HBAR_C_J_M
from casimir_slabs.lifshitz import _film_ratio, _film_weight, _thin_limit_parts
from casimir_slabs.quadrature import IntegralResult, QuadratureError, _levels

OMEGA_P = 2.0e16


def film(d, eps_b=9.0):
    return IsotropicSlab(omega_p3d=OMEGA_P, thickness_d=d, eps_b=eps_b)


class TestCasimirPressure:
    def test_micron_separation(self):
        expected = HBAR_C_J_M * math.pi ** 2 / (240.0 * (1e-6) ** 4)
        assert casimir_pressure(1000.0) == pytest.approx(expected, rel=1e-14)
        assert casimir_pressure(1000.0) == pytest.approx(1.300e-3, rel=1e-3)

    def test_quartic_scaling(self):
        assert casimir_pressure(500.0) / casimir_pressure(1000.0) == pytest.approx(
            16.0, rel=1e-12
        )

    def test_hundred_nm(self):
        assert casimir_pressure(100.0) == pytest.approx(13.00, rel=1e-3)

    def test_array_equals_scalar_calls_bit_for_bit(self):
        # A sweep row and the point command at the same l print the same
        # pressure only if the array law rounds as the scalar one does.
        l = np.geomspace(1.0, 1.0e4, 20001)
        pressures = casimir_pressure(l)
        assert pressures.tolist() == [casimir_pressure(x) for x in l.tolist()]

    def test_array_domain_names_first_bad_separation(self):
        with pytest.raises(ValueError, match="got -5.0 nm"):
            casimir_pressure(np.array([100.0, -5.0, math.nan]))

    @pytest.mark.parametrize("l", [0.0, -5.0, math.nan, math.inf, 1e-80])
    def test_domain(self, l):
        with pytest.raises(ValueError):
            casimir_pressure(l)

    @pytest.mark.parametrize("l", [0.0, math.nan, -math.inf, 1e-80, 1e100])
    def test_every_evaluator_checks_separation_first(self, l, monkeypatch):
        # The check runs before any quadrature: an integral would raise.
        from casimir_slabs import anisotropic, lifshitz, validity

        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran before the separation check")

        for module in (lifshitz, anisotropic):
            monkeypatch.setattr(module, "integrate_xp", no_quadrature)
        metal = local_drude_fn(OMEGA_P, 1.0)
        tubes = anisotropic.NanotubeArraySlab(
            omega_p3d=OMEGA_P, radius_R=2.0, thickness_d=20.0, eps_b=10.0
        )
        evaluators = [
            lambda: lifshitz_pressure_general(metal, metal, l),
            lambda: lifshitz_force_local(OMEGA_P, l),
            lambda: nonlocal_isotropic_ratio(film(10.0), l),
            lambda: thin_limit_ratio(film(10.0), l),
            lambda: anisotropic.f_parallel_ratio(tubes, l),
            lambda: anisotropic.f_perp_ratio(tubes, l),
            lambda: validity.applicability_report(film(10.0), l),
        ]
        for evaluate in evaluators:
            with pytest.raises(ValueError, match="separation must be > 0"):
                evaluate()


class TestGeneralForce:
    def test_perfect_metal_recovers_unity(self, spec):
        metal = lambda xi: 1e12
        res = lifshitz_pressure_general(metal, metal, 1000.0, spec)
        assert res.validity == "valid"
        assert res.ratio_to_casimir == pytest.approx(1.0, abs=1e-4)

    def test_vacuum_gives_zero(self, spec):
        vacuum = lambda xi: 1.0
        res = lifshitz_pressure_general(vacuum, vacuum, 1000.0, spec)
        assert res.ratio_to_casimir == 0.0

    def test_local_drude_matches_expansion_at_large_l(self, spec):
        drude = local_drude_fn(OMEGA_P, 9.0)
        general = lifshitz_pressure_general(drude, drude, 5000.0, spec)
        closed = lifshitz_force_local(OMEGA_P, 5000.0)
        assert general.ratio_to_casimir == pytest.approx(
            closed.ratio_to_casimir, rel=0.02
        )

    def test_monotone_in_constant_permittivity(self, fast_spec):
        ratios = [
            lifshitz_pressure_general(
                lambda xi, e=e: e, lambda xi, e=e: e, 1000.0, fast_spec
            ).ratio_to_casimir
            for e in (2.0, 5.0, 20.0, 100.0)
        ]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))

    def test_pressure_consistent_with_ratio(self, fast_spec):
        res = lifshitz_pressure_general(
            lambda xi: 4.0, lambda xi: 4.0, 800.0, fast_spec
        )
        assert res.pressure == res.ratio_to_casimir * casimir_pressure(800.0)


class TestLocalForce:
    def test_micron_value(self):
        res = lifshitz_force_local(OMEGA_P, 1000.0)
        corr = 16.0 * C_NM_PER_S / (3.0 * OMEGA_P * 1000.0)
        assert res.ratio_to_casimir == pytest.approx(1.0 - corr, rel=1e-14)
        assert res.ratio_to_casimir == pytest.approx(0.92, abs=1e-3)
        assert res.validity == "valid"

    def test_large_separation_limit(self):
        assert lifshitz_force_local(OMEGA_P, 1e12).ratio_to_casimir == pytest.approx(
            1.0, abs=1e-9
        )

    def test_correction_dominant_flip(self):
        # correction = 1/2 exactly at l = 32 c / (3 omega_p) = 159.889 nm
        flip = 32.0 * C_NM_PER_S / (3.0 * OMEGA_P)
        assert flip == pytest.approx(159.8893109, rel=1e-9)
        assert lifshitz_force_local(OMEGA_P, flip - 1.0).validity == "correction_dominant"
        assert lifshitz_force_local(OMEGA_P, flip + 1.0).validity == "valid"

    # omega_p l underflowing to 0 must not become a ZeroDivisionError
    @pytest.mark.parametrize(
        "omega_p,l", [(0.0, 1000.0), (OMEGA_P, 0.0), (1e-300, 1e-30)]
    )
    def test_domain(self, omega_p, l):
        with pytest.raises(ValueError):
            lifshitz_force_local(omega_p, l)


class TestNonlocalIsotropic:
    def test_bulk_limit_reduces_to_local(self, spec):
        slab = film(1.0e6)
        for l in (500.0, 1000.0):
            nl = nonlocal_isotropic_ratio(slab, l, spec)
            loc = lifshitz_force_local(OMEGA_P, l)
            assert nl.validity == "valid"
            assert nl.ratio_to_casimir == pytest.approx(
                loc.ratio_to_casimir, rel=0.01
            )

    def test_thin_slab_approaches_thin_limit(self, spec):
        nl = nonlocal_isotropic_ratio(film(10.0), 1000.0, spec)
        thin = thin_limit_ratio(film(10.0), 1000.0)
        assert nl.ratio_to_casimir == pytest.approx(
            thin.ratio_to_casimir, rel=0.03
        )

    def test_thickness_ordering(self, spec):
        r10 = nonlocal_isotropic_ratio(film(10.0), 1000.0, spec).ratio_to_casimir
        r20 = nonlocal_isotropic_ratio(film(20.0), 1000.0, spec).ratio_to_casimir
        r200 = nonlocal_isotropic_ratio(film(200.0), 1000.0, spec).ratio_to_casimir
        assert r10 < r20 < r200

    def test_monotone_in_separation(self, spec):
        slab = film(20.0)
        ratios = [
            nonlocal_isotropic_ratio(slab, l, spec).ratio_to_casimir
            for l in (500.0, 1000.0, 2000.0, 5000.0)
        ]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))

    def test_nonlocality_only_weakens(self, spec):
        # full result <= small-d closed form <= local closed form <= 1:
        # the dispersion radical sqrt(1+y) exceeds both its y -> 0 and
        # y -> inf replacements, so the full correction is the largest.
        for d, l in ((10.0, 1000.0), (50.0, 2000.0), (200.0, 5000.0)):
            slab = film(d)
            nl = nonlocal_isotropic_ratio(slab, l, spec).ratio_to_casimir
            thin = thin_limit_ratio(slab, l).ratio_to_casimir
            local = lifshitz_force_local(OMEGA_P, l).ratio_to_casimir
            assert nl <= thin <= local <= 1.0

    def test_correction_dominant_flag(self, fast_spec):
        res = nonlocal_isotropic_ratio(film(10.0), 120.0, fast_spec)
        assert res.validity == "correction_dominant"

    def test_loose_tolerance_gets_the_level_four_answer(self, spec, monkeypatch):
        # The first kernel call sees level 4's whole grid, whose even nodes
        # give level 3's sum, and the first comparison is against level 4,
        # so a tolerance that a coarser level would meet gives the default
        # spec's result bit for bit.
        shapes, integrate = [], lifshitz.integrate_xp

        def recorded(f, *args, **kwargs):
            def kernel(x, p, q):
                shapes.append((x.size, p.size))
                return f(x, p, q)
            return integrate(kernel, *args, **kwargs)

        monkeypatch.setattr(lifshitz, "integrate_xp", recorded)
        loose = nonlocal_isotropic_ratio(film(10.0), 1000.0, QuadratureSpec(rel_tol=1e-2))
        assert shapes == [(177, 177)]
        assert loose == nonlocal_isotropic_ratio(film(10.0), 1000.0, spec)


class TestFilmCache:
    # rel_tol below the roundoff floor: every level runs, so one integral
    # touches one node block per level whose kernel it calls, levels 4 and 5
    EVERY_LEVEL = QuadratureSpec(rel_tol=1e-15, abs_tol=0.0)

    def test_cold_cache_gives_the_warm_bits(self, spec):
        empty_node_block_caches()
        cold = nonlocal_isotropic_ratio(film(10.0), 1000.0, spec)
        assert _film_ratio.cache_info().misses > 0
        nonlocal_isotropic_ratio(film(200.0), 300.0, spec)
        warm = nonlocal_isotropic_ratio(film(10.0), 1000.0, spec)
        assert warm == cold

    def test_second_point_adds_no_miss(self):
        # r and the film weight depend on the node alone: a point at
        # another (d, l) reads every block the first one computed
        empty_node_block_caches()
        nonlocal_isotropic_ratio(film(10.0), 1000.0, self.EVERY_LEVEL)
        blocks = 2
        before = _film_ratio.cache_info(), _film_weight.cache_info()
        assert [info.misses for info in before] == [blocks, blocks]
        nonlocal_isotropic_ratio(film(200.0), 300.0, self.EVERY_LEVEL)
        after = _film_ratio.cache_info(), _film_weight.cache_info()
        assert [info.misses for info in after] == [blocks, blocks]
        assert [info.hits for info in after] == [info.hits + blocks for info in before]

    @pytest.mark.parametrize("d", [1.0, 10.0, 200.0])
    @pytest.mark.parametrize("l", [50.0, 1000.0, 5000.0])
    def test_film_factor_of_beta_r_is_that_of_k(self, monkeypatch, d, l):
        # The kernels enter omega_p3d/omega_p(k) = sqrt(1 + 1/(eps~ d k)),
        # k = x q/(2 p l), as sqrt(1 + beta r), beta = 2 l/(eps~ d) and
        # r = p/(x q).  With the beta the force passes, the two agree
        # within 4 ulp on every node of levels 0-5.
        slab, factor, betas = film(d), lifshitz._film_factor, []
        monkeypatch.setattr(lifshitz, "_film_factor",
                            lambda beta, r: betas.append(beta) or factor(beta, r))
        nonlocal_isotropic_ratio(slab, l, QuadratureSpec(rel_tol=1e-4))
        assert len(set(betas)) == 1
        x, _, p, q, _ = _levels(40.0, "hyperbolic", True)[0][-1]
        block = x[:, None], p[None, :], q[None, :]
        new = factor(betas[0], _film_ratio(tuple(n.tobytes() for n in block)))
        k = momentum_from_xp(*block, l)
        old = np.sqrt(1.0 + 1.0 / (eps_tilde(slab) * d) / k)
        assert np.all(np.abs(new - old) <= 4.0 * np.spacing(old))


# The extra arguments each node-block cache takes after its key.
NODE_BLOCK_ARGS = {
    "_film_ratio": (), "_film_weight": (), "_tube_weights": (1000.0, 2.0, 10.0),
}


def test_every_node_block_cache_shares_read_only_arrays():
    # Every cache of lifshitz and anisotropic sized to the kernel levels is
    # made by _node_block_cache: a hit returns the arrays of the miss, and
    # no caller can write into them.
    from casimir_slabs import anisotropic
    from casimir_slabs.quadrature import _KERNEL_LEVELS

    made = lifshitz._node_block_cache(lambda x, p, q: x).__wrapped__.__code__
    caches = {
        name: value
        for module in (lifshitz, anisotropic)
        for name, value in vars(module).items()
        if hasattr(value, "cache_parameters")
        and value.cache_parameters()["maxsize"] == len(_KERNEL_LEVELS)
    }
    assert caches.keys() == NODE_BLOCK_ARGS.keys()
    x, _, p, q, _ = _levels(40.0, "hyperbolic", True)[0][-1]
    key = x.tobytes(), p.tobytes(), q.tobytes()
    empty_node_block_caches()
    for name, cache in caches.items():
        assert cache.__wrapped__.__code__ is made, name
        arrays = cache(key, *NODE_BLOCK_ARGS[name])
        assert cache(key, *NODE_BLOCK_ARGS[name]) is arrays
        assert cache.cache_info()[:2] == (1, 1)  # one hit after one miss
        for array in arrays if isinstance(arrays, tuple) else (arrays,):
            assert array.shape == (x.size, p.size)
            with pytest.raises(ValueError, match="read-only"):
                array *= 2.0
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1.0


class TestThinLimit:
    def test_coefficient_value(self):
        assert thin_limit_coefficient() == pytest.approx(4.79, abs=0.01)

    def test_coefficient_cached(self):
        assert thin_limit_coefficient() is thin_limit_coefficient()

    def test_coefficient_within_its_error_of_the_closed_form(self):
        # C = 15 sqrt(2)/pi^4 Gamma(9/2) zeta(7/2) (B(1/2,3/4) + B(3/2,3/4))/2,
        # 4.787491936684390405 from mpmath at 40 digits
        coeff, err = _thin_limit_parts()
        assert thin_limit_coefficient() == coeff
        assert err < 1.0e-11
        assert abs(coeff - 4.787491936684390) <= err

    def test_unconverged_p_integral_raises(self, monkeypatch, capsys):
        # The coefficient is certified: a p integral that did not converge
        # raises, and the command line exits 3 with no RESULT line.
        failed = IntegralResult(4.0, 1.0, False, 1)
        monkeypatch.setattr(lifshitz, "integrate_p_axis", lambda *args: failed)
        _thin_limit_parts.cache_clear()
        try:
            with pytest.raises(QuadratureError, match="thin-limit"):
                thin_limit_coefficient()
            assert cli.main(["iso-thin", "--d-nm", "1", "--l-nm", "1000"]) == 3
        finally:
            _thin_limit_parts.cache_clear()
        out, err = capsys.readouterr()
        assert "RESULT" not in out
        assert "thin-limit p integral did not converge" in err

    def test_example_arithmetic(self):
        res = thin_limit_ratio(film(10.0), 1000.0)
        corr = thin_limit_coefficient() * C_NM_PER_S / (
            OMEGA_P * math.sqrt(4.5 * 10.0 * 1000.0)
        )
        assert 1.0 - res.ratio_to_casimir == pytest.approx(corr, rel=1e-12)
        assert res.ratio_to_casimir == pytest.approx(0.661, abs=1e-3)

    def test_inverse_sqrt_separation_scaling(self):
        c1 = 1.0 - thin_limit_ratio(film(10.0), 1000.0).ratio_to_casimir
        c4 = 1.0 - thin_limit_ratio(film(10.0), 4000.0).ratio_to_casimir
        assert c1 / c4 == pytest.approx(2.0, rel=1e-12)

    def test_huge_geometry_tends_to_unity(self):
        res = thin_limit_ratio(film(1e6), 1e6)
        assert res.ratio_to_casimir == pytest.approx(1.0, abs=1e-4)

    def test_factorized_vs_two_dimensional_quadrature(self, spec):
        def unfactorized(x, p, q):
            bose = x ** 3.5 * np.exp(-x) / np.expm1(-x) ** 2
            return bose * (p * p + 1.0) / (p ** 3.5 * np.sqrt(q))

        res = integrate_xp(unfactorized, spec, p_singularity_order=0.25)
        coeff_2d = 15.0 * math.sqrt(2.0) / math.pi ** 4 * res.value
        assert coeff_2d == pytest.approx(thin_limit_coefficient(), rel=1e-3)

    def test_sixteen_thirds_identity(self):
        value = 15.0 / math.pi ** 4 * bose_integral(4.0) * (4.0 / 3.0)
        assert value == pytest.approx(16.0 / 3.0, abs=1e-6)


def test_closed_forms_over_arrays_equal_their_scalar_calls():
    # One call over a grid gives, field by field, the scalar calls' values;
    # a scalar call gives plain Python numbers and strings.
    d, l = np.array([0.5, 5.0, 10.0, 200.0]), np.array([20.0, 300.0, 1000.0, 4000.0])
    films = IsotropicSlab(omega_p3d=OMEGA_P, thickness_d=d, eps_b=9.0)
    pairs = [
        (thin_limit_ratio(films, l),
         [thin_limit_ratio(film(x), y) for x, y in zip(d.tolist(), l.tolist())]),
        (lifshitz_force_local(OMEGA_P / d, l),
         [lifshitz_force_local(OMEGA_P / x, y) for x, y in zip(d.tolist(), l.tolist())]),
    ]
    for grid, points in pairs:
        for field in ("ratio_to_casimir", "pressure", "error_estimate", "validity"):
            values = [getattr(point, field) for point in points]
            assert np.broadcast_to(getattr(grid, field), 4).tolist() == values
            assert {type(v) for v in values} <= {float, str}
