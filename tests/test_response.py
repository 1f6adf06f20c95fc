import math
import threading

import numpy as np
import pytest

from casimir_slabs import (
    IsotropicSlab,
    NanotubeArraySlab,
    bessel_i0k0_product,
    drude_eps_imaginary_axis,
    eps_tilde,
    momentum_from_xp,
    plasma_freq_isotropic,
    plasma_freq_nanotube,
)
from casimir_slabs import lifshitz, orientation_forces, phi, psi
from casimir_slabs.anisotropic import _tube_weights
from casimir_slabs.lifshitz import _bose
from casimir_slabs.quadrature import _VISITED_LEVELS, _levels
from casimir_slabs.response import _film_factor, _tube_normalisation, fresnel_coeffs

OMEGA_P = 2.0e16


class TestSlabValidation:
    def test_isotropic_ok(self):
        slab = IsotropicSlab(omega_p3d=OMEGA_P, thickness_d=10.0, eps_b=9.0)
        assert slab.eps_sub == slab.eps_sup == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"omega_p3d": 0.0, "thickness_d": 10.0, "eps_b": 9.0},
            {"omega_p3d": OMEGA_P, "thickness_d": -1.0, "eps_b": 9.0},
            {"omega_p3d": OMEGA_P, "thickness_d": 10.0, "eps_b": 0.5},
            # surroundings screening as much as the film breaks the confined regime
            {"omega_p3d": OMEGA_P, "thickness_d": 10.0, "eps_b": 2.0},
            {"omega_p3d": OMEGA_P, "thickness_d": 10.0, "eps_b": 9.0, "eps_sub": 5.0, "eps_sup": 5.0},
            # NaN or infinite fields would give a NaN ratio flagged valid
            {"omega_p3d": math.nan, "thickness_d": 10.0, "eps_b": 9.0},
            {"omega_p3d": math.inf, "thickness_d": 10.0, "eps_b": 9.0},
            {"omega_p3d": OMEGA_P, "thickness_d": math.nan, "eps_b": 9.0},
            {"omega_p3d": OMEGA_P, "thickness_d": math.inf, "eps_b": 9.0},
            {"omega_p3d": OMEGA_P, "thickness_d": 10.0, "eps_b": math.nan},
            {"omega_p3d": OMEGA_P, "thickness_d": 10.0, "eps_b": math.inf},
            {"omega_p3d": OMEGA_P, "thickness_d": 10.0, "eps_b": 9.0, "eps_sub": math.nan},
            {"omega_p3d": OMEGA_P, "thickness_d": 10.0, "eps_b": 9.0, "eps_sup": math.nan},
        ],
    )
    def test_isotropic_invalid(self, kwargs):
        with pytest.raises(ValueError):
            IsotropicSlab(**kwargs)

    def test_array_dense_packing_default(self):
        slab = NanotubeArraySlab(
            omega_p3d=OMEGA_P, radius_R=2.0, thickness_d=20.0, eps_b=10.0
        )
        assert slab.period_Delta == 4.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"radius_R": -1.0, "thickness_d": 20.0, "eps_b": 10.0},
            {"radius_R": 2.0, "thickness_d": 3.0, "eps_b": 10.0},  # < one monolayer
            {"radius_R": 2.0, "thickness_d": 20.0, "eps_b": 10.0, "period_Delta": 3.0},
            {"radius_R": 2.0, "thickness_d": 20.0, "eps_b": 0.9},
            {"radius_R": math.nan, "thickness_d": 20.0, "eps_b": 10.0},
            {"radius_R": math.inf, "thickness_d": math.inf, "eps_b": 10.0},
            {"radius_R": 2.0, "thickness_d": math.nan, "eps_b": 10.0},
            {"radius_R": 2.0, "thickness_d": math.inf, "eps_b": 10.0},
            {"radius_R": 2.0, "thickness_d": 20.0, "eps_b": math.nan},
            {"radius_R": 2.0, "thickness_d": 20.0, "eps_b": math.inf},
            {"radius_R": 2.0, "thickness_d": 20.0, "eps_b": 10.0, "period_Delta": math.nan},
            {"radius_R": 2.0, "thickness_d": 20.0, "eps_b": 10.0, "period_Delta": math.inf},
            {"radius_R": 2.0, "thickness_d": 20.0, "eps_b": 10.0, "eps_sub": math.nan},
            {"radius_R": 2.0, "thickness_d": 20.0, "eps_b": 10.0, "eps_sup": math.inf},
            {"radius_R": 2.0, "thickness_d": 20.0, "eps_b": 10.0, "omega_p3d": math.nan},
            {"radius_R": 2.0, "thickness_d": 20.0, "eps_b": 10.0, "omega_p3d": math.inf},
        ],
    )
    def test_array_invalid(self, kwargs):
        with pytest.raises(ValueError):
            NanotubeArraySlab(**{"omega_p3d": OMEGA_P, **kwargs})


class TestEpsTilde:
    def test_free_standing_eps9(self):
        slab = IsotropicSlab(omega_p3d=OMEGA_P, thickness_d=10.0, eps_b=9.0)
        assert eps_tilde(slab) == pytest.approx(4.5)

    def test_equal_screening_gives_one(self):
        # the array type allows eps_b down to 1, so the degenerate ratio
        # is reachable there
        slab = NanotubeArraySlab(
            omega_p3d=OMEGA_P, radius_R=2.0, thickness_d=20.0, eps_b=2.0
        )
        assert eps_tilde(slab) == pytest.approx(1.0)

    def test_free_standing_eps10(self):
        slab = IsotropicSlab(omega_p3d=OMEGA_P, thickness_d=10.0, eps_b=10.0)
        assert eps_tilde(slab) == pytest.approx(5.0)


class TestMomentumMap:
    def test_normal_incidence(self):
        assert momentum_from_xp(3.7, 1.0, 0.0, 250.0) == 0.0

    def test_sample_point(self):
        k = momentum_from_xp(2.0, math.sqrt(2.0), 1.0, 1000.0)
        assert k == pytest.approx(1.0 / (math.sqrt(2.0) * 1000.0), rel=1e-12)
        assert k == pytest.approx(7.0711e-4, rel=1e-4)

    def test_radicand_identity(self):
        # 1/(eps~ k d) must equal (2l/(eps~ d)) p/(x sqrt(p^2-1))
        slab = IsotropicSlab(omega_p3d=OMEGA_P, thickness_d=10.0, eps_b=9.0)
        et, d, l = eps_tilde(slab), slab.thickness_d, 1000.0
        for x, p in [(0.5, 1.5), (2.0, 1.01), (4.0, 10.0)]:
            k = momentum_from_xp(x, p, math.sqrt(p * p - 1.0), l)
            lhs = 1.0 / (et * k * d)
            rhs = 2.0 * l / (et * d) * p / (x * math.sqrt(p * p - 1.0))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_positive_where_p_squared_minus_one_rounds_to_zero(self):
        # cosh(1e-20) is 1.0 in double precision; the exact q keeps k > 0
        p, q = math.cosh(1e-20), math.sinh(1e-20)
        assert p * p - 1.0 == 0.0
        assert momentum_from_xp(1.0, p, q, 1000.0) > 0.0

    def test_array_matches_scalar_calls(self):
        x = np.array([0.5, 2.0, 30.0])[:, None]
        u = np.array([1e-3, 0.5, 3.0])
        k = momentum_from_xp(x, np.cosh(u), np.sinh(u), 700.0)
        assert k.shape == (3, 3)
        for i, xi in enumerate(x[:, 0]):
            for j, uj in enumerate(u):
                scalar = momentum_from_xp(xi, math.cosh(uj), math.sinh(uj), 700.0)
                assert k[i, j] == pytest.approx(scalar, rel=1e-15)


class TestIsotropicPlasmaFrequency:
    def test_unit_argument(self, film_slab):
        # k eps~ d = 1 -> omega_p / sqrt(2)
        k = 1.0 / (eps_tilde(film_slab) * film_slab.thickness_d)
        assert plasma_freq_isotropic(k, film_slab) == pytest.approx(
            OMEGA_P / math.sqrt(2.0), rel=1e-12
        )

    def test_bulk_limit(self):
        thick = IsotropicSlab(omega_p3d=OMEGA_P, thickness_d=1e9, eps_b=9.0)
        assert plasma_freq_isotropic(0.1, thick) == pytest.approx(OMEGA_P, rel=1e-8)

    def test_small_k_sqrt_dispersion(self, film_slab):
        et_d = eps_tilde(film_slab) * film_slab.thickness_d
        k1, k2 = 1e-9, 4e-9
        w1 = plasma_freq_isotropic(k1, film_slab)
        w2 = plasma_freq_isotropic(k2, film_slab)
        assert w2 / w1 == pytest.approx(math.sqrt(k2 / k1), rel=1e-6)
        assert w1 == pytest.approx(OMEGA_P * math.sqrt(et_d * k1), rel=1e-6)

    def test_zero_momentum_limit(self, film_slab):
        assert plasma_freq_isotropic(0.0, film_slab) == 0.0

    def test_bounded_by_bulk_and_monotone(self, film_slab):
        grid = np.geomspace(1e-6, 1e3, 40)
        values = [plasma_freq_isotropic(k, film_slab) for k in grid]
        assert all(v < OMEGA_P for v in values)
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_monotone_in_thickness(self):
        k = 0.01
        thicknesses = [5.0, 10.0, 50.0, 200.0, 1e4]
        values = [
            plasma_freq_isotropic(
                k, IsotropicSlab(omega_p3d=OMEGA_P, thickness_d=d, eps_b=9.0)
            )
            for d in thicknesses
        ]
        assert all(a < b for a, b in zip(values, values[1:]))


MODELS = pytest.mark.parametrize(
    "fn, slab_fixture",
    [(plasma_freq_isotropic, "film_slab"), (plasma_freq_nanotube, "tube_array")],
)


class TestVectorisedPlasmaFrequencies:
    GRID = np.array([[0.0, 1e-6, 1e-3], [0.05, 1.0, 1e3]])

    @MODELS
    def test_array_matches_scalar_calls(self, fn, slab_fixture, request):
        slab = request.getfixturevalue(slab_fixture)
        values = fn(self.GRID, slab)
        assert values.shape == self.GRID.shape
        assert values[0, 0] == 0.0  # k = 0 inside an array
        for k, value in zip(self.GRID.ravel(), values.ravel()):
            assert value == pytest.approx(fn(float(k), slab), rel=1e-15)

    @MODELS
    def test_negative_entry_rejected(self, fn, slab_fixture, request):
        with pytest.raises(ValueError):
            fn(np.array([0.0, 0.1, -1e-9]), request.getfixturevalue(slab_fixture))
        with pytest.raises(ValueError):
            fn(np.array([0.0, 0.1, math.nan]), request.getfixturevalue(slab_fixture))


class TestFresnelPair:
    def test_array_matches_scalar_calls(self):
        eps = np.array([1.0, 1.5, 409.0, 1e8])[:, None]
        p = np.array([1.0, 2.0, 1e4])
        r_s, r_p = fresnel_coeffs(eps, p)
        assert r_s.shape == r_p.shape == (4, 3)
        for i, e in enumerate(eps[:, 0]):
            for j, pj in enumerate(p):
                s, rp = fresnel_coeffs(float(e), float(pj))
                assert r_s[i, j] == pytest.approx(s, rel=1e-15)
                assert r_p[i, j] == pytest.approx(rp, rel=1e-15)

    def test_against_textbook_form(self):
        # (s-p)/(s+p) and (s - eps p)/(s + eps p) where no cancellation bites
        for eps, p in [(9.0, 1.0), (2.5, 1.7), (409.0, 3.0)]:
            s = math.sqrt(eps - 1.0 + p * p)
            r_s, r_p = fresnel_coeffs(eps, p)
            assert r_s == pytest.approx((s - p) / (s + p), rel=1e-13)
            assert r_p == pytest.approx((s - eps * p) / (s + eps * p), rel=1e-13)


class TestNanotubePlasmaFrequency:
    def test_zero_momentum(self, tube_array):
        assert plasma_freq_nanotube(0.0, tube_array) == 0.0

    def test_monotone_in_q_at_long_wavelength(self, tube_array):
        # monotone over the momentum window the force integrals sample
        # (qR <~ 0.5); near qR ~ 1.4 the cylinder normalization makes the
        # frequency overshoot the bulk value by ~2% and turn over
        grid = np.geomspace(1e-5, 0.25, 40)
        values = [plasma_freq_nanotube(q, tube_array) for q in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_bulk_limit_and_bounded_overshoot(self, tube_array):
        assert plasma_freq_nanotube(1e3, tube_array) == pytest.approx(
            OMEGA_P, rel=1e-4
        )
        grid = np.geomspace(1e-5, 1e2, 60)
        values = [plasma_freq_nanotube(q, tube_array) for q in grid]
        assert max(values) < 1.03 * OMEGA_P

    def test_wide_tube_matches_isotropic_film(self):
        # R -> inf at fixed q: the cylinder normalization tends to 1/2
        # and the isotropic expression must be recovered
        q = 1.0
        radius = 1.0e4 / q  # qR = 1e4
        tube = NanotubeArraySlab(
            omega_p3d=OMEGA_P,
            radius_R=radius,
            thickness_d=2.0 * radius,
            eps_b=9.0,
        )
        film = IsotropicSlab(
            omega_p3d=OMEGA_P, thickness_d=tube.thickness_d, eps_b=9.0
        )
        w_tube = plasma_freq_nanotube(q, tube)
        w_film = plasma_freq_isotropic(q, film)
        assert abs(w_tube - w_film) / w_film < 1e-3

    def test_negative_momentum_rejected(self, tube_array):
        with pytest.raises(ValueError):
            plasma_freq_nanotube(-1.0, tube_array)
        with pytest.raises(ValueError):
            plasma_freq_nanotube(math.nan, tube_array)


class TestDrude:
    def test_at_plasma_frequency(self):
        assert drude_eps_imaginary_axis(OMEGA_P, OMEGA_P, 9.0) == pytest.approx(10.0)

    def test_high_frequency_limit(self):
        assert drude_eps_imaginary_axis(1e25, OMEGA_P, 9.0) == pytest.approx(9.0, rel=1e-6)

    def test_direct_arithmetic(self):
        # eps_b = 9, wp = 2e16, xi = 1e15 -> 9 + 400
        assert drude_eps_imaginary_axis(1e15, 2e16, 9.0) == pytest.approx(409.0)

    @pytest.mark.parametrize("xi", [0.0, -1e10, math.nan])
    def test_static_pole_rejected(self, xi):
        with pytest.raises(ValueError):
            drude_eps_imaginary_axis(xi, OMEGA_P, 9.0)

    def test_decreasing_and_bounded_below(self):
        grid = np.geomspace(1e12, 1e20, 30)
        values = [drude_eps_imaginary_axis(x, OMEGA_P, 9.0) for x in grid]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > 9.0 for v in values)

    def test_damping_lowers_response(self):
        undamped = drude_eps_imaginary_axis(1e15, OMEGA_P, 9.0)
        damped = drude_eps_imaginary_axis(1e15, OMEGA_P, 9.0, delta=1e14)
        assert damped < undamped


def node_block(level):
    """The (x, p, q) node grid of ``level`` of the default spec, shaped as
    the engine passes it to a kernel, and its cache key."""
    x, _, p, q, _ = _levels(40.0, "hyperbolic", True)[_VISITED_LEVELS.index(level)]
    block = x[:, None], p[None, :], q[None, :]
    return block, tuple(nodes.tobytes() for nodes in block)


class TestNormalisationCache:
    def test_cached_block_is_shared_and_read_only(self):
        # every caller, in every thread, receives the one cached pair of
        # weights, each over the tube normalisation, so none may write
        # into them
        block, key = node_block(3)
        weights = _tube_weights(key, 1000.0, 2.0, 10.0)
        in_thread = []
        thread = threading.Thread(
            target=lambda: in_thread.append(_tube_weights(key, 1000.0, 2.0, 10.0))
        )
        thread.start()
        thread.join(timeout=60.0)
        [shared] = in_thread
        assert shared is weights
        assert shared[0] is weights[0] and shared[1] is weights[1]
        x, p, _ = block
        z = momentum_from_xp(*block, 1000.0) * 2.0
        norm = np.sqrt(2.0 * z * bessel_i0k0_product(z))
        emx, ph, ps = np.exp(-x), phi(p, 10.0), psi(p, 10.0)
        bracket = ph * p / (ph - emx) ** 2 - (ps / p) / (ps + emx) ** 2
        assert np.array_equal(weights[0], _bose(x) / (p * p) ** 2 / norm)
        assert np.array_equal(weights[1], x ** 4 * emx * bracket / p ** 3 / norm)
        for value in weights:
            with pytest.raises(ValueError, match="read-only"):
                value *= 2.0
            with pytest.raises(ValueError, match="read-only"):
                value[0, 0] = 1.0

    @pytest.mark.parametrize("level", [3, 4])
    def test_kernel_factor_is_the_public_plasma_frequency(self, level, monkeypatch):
        # one description of the nanotube response: on a node block, the
        # force kernel is the cached weight over _tube_normalisation times
        # _film_factor(2 l/(eps~ d), p/(x q)), and plasma_freq_nanotube is
        # omega_p3d over _film_factor(1/(eps~ d), 1/k) / _tube_normalisation,
        # both bit for bit
        slab = NanotubeArraySlab(omega_p3d=OMEGA_P, radius_R=2.0, thickness_d=20.0,
                                 eps_b=10.0)
        kernels = []
        integrate = lifshitz.integrate_xp
        monkeypatch.setattr(lifshitz, "integrate_xp", lambda f, *args, **kwargs: (
            kernels.append(f) or integrate(f, *args, **kwargs)))
        orientation_forces(slab, 1000.0)
        block, key = node_block(level)
        x, p, q = block
        beta = 2.0 * 1000.0 / (eps_tilde(slab) * slab.thickness_d)
        film = _film_factor(beta, p / (x * q))
        assert len(kernels) == 2
        for orientation, kernel in enumerate(kernels):
            weight = _tube_weights(key, 1000.0, slab.radius_R, slab.eps_b)[orientation]
            assert np.array_equal(kernel(*block), weight * film)
        k = momentum_from_xp(*block, 1000.0)
        factor = _film_factor(1.0 / (eps_tilde(slab) * slab.thickness_d), 1.0 / k)
        factor = factor / _tube_normalisation(k * slab.radius_R)
        assert np.all(k > 0.0)
        assert np.array_equal(plasma_freq_nanotube(k, slab), OMEGA_P / factor)
