"""The engine against nested QUADPACK at rel_tol 1e-11 (tests/oracle.py),
and its two p substitutions against each other: every difference must lie
within the sum of the two error estimates."""

import math

import pytest

import oracle
from casimir_slabs import (
    IsotropicSlab,
    NanotubeArraySlab,
    QuadratureSpec,
    main_term_parallel,
    main_term_perp,
    nonlocal_isotropic_ratio,
    orientation_forces,
)
from casimir_slabs.anisotropic import _main_parallel_integral, _main_perp_integral
from casimir_slabs.lifshitz import RATIO_NORM

OMEGA_P = 2.0e16
SHIFTED = QuadratureSpec(p_transform="shifted-square")


def assert_within(engine, other, other_err):
    assert engine.validity != "quadrature_failed"
    deviation = abs(engine.ratio_to_casimir - other)
    assert deviation <= engine.error_estimate + other_err


@pytest.mark.parametrize("l", [100.0, 1000.0, 5000.0])
@pytest.mark.parametrize("d", [5.0, 10.0, 20.0, 200.0])
def test_iso_nonlocal(d, l):
    slab = IsotropicSlab(omega_p3d=OMEGA_P, thickness_d=d, eps_b=9.0)
    res = nonlocal_isotropic_ratio(slab, l)
    assert_within(res, *oracle.iso_nonlocal_ratio(OMEGA_P, d, 4.5, l))
    shifted = nonlocal_isotropic_ratio(slab, l, SHIFTED)
    assert_within(res, shifted.ratio_to_casimir, shifted.error_estimate)


@pytest.mark.parametrize("eps_b", [3.0, 10.0, 100.0])
@pytest.mark.parametrize("d", [4.4, 10.0, 45.0, 100.0])
def test_nanotube_ratios(d, eps_b):
    array = NanotubeArraySlab(
        omega_p3d=OMEGA_P, radius_R=2.0, thickness_d=d, eps_b=eps_b
    )
    forces = orientation_forces(array, 1000.0)
    par, perp = oracle.array_ratios(OMEGA_P, 2.0, 4.0, d, eps_b, 1000.0)
    assert_within(forces.f_parallel, *par)
    assert_within(forces.f_perp, *perp)
    shifted = orientation_forces(array, 1000.0, SHIFTED)
    for res, other in zip(
        (forces.f_parallel, forces.f_perp), (shifted.f_parallel, shifted.f_perp)
    ):
        assert_within(res, other.ratio_to_casimir, other.error_estimate)


@pytest.mark.parametrize(
    "eps_b, sign", [(25.0, 1.0), (29.0, 1.0), (30.0, -1.0), (50.0, -1.0)]
)
def test_main_term_ordering_flips_between_29_and_30(eps_b, sign):
    """Why acceptance 06's ordering clause fails at eps_b = 50: the oracle's
    M_par - M_perp changes sign between eps_b = 29 and 30, each gap beyond
    the summed error estimates, and the engine agrees."""
    (par, par_err), (perp, perp_err) = oracle.main_terms(eps_b)
    gap = par - perp
    assert math.copysign(1.0, gap) == sign
    assert abs(gap) > par_err + perp_err
    engine_err = RATIO_NORM * (
        _main_parallel_integral(eps_b, None).error_estimate
        + _main_perp_integral(eps_b, None).error_estimate
    )
    engine_gap = main_term_parallel(eps_b) - main_term_perp(eps_b)
    assert abs(engine_gap - gap) <= engine_err + par_err + perp_err
