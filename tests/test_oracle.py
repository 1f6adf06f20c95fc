"""The engine against nested QUADPACK at rel_tol 1e-11 (tests/oracle.py),
and its two p substitutions against each other: every difference must lie
within the sum of the two error estimates."""

import pytest

import oracle
from casimir_slabs import (
    IsotropicSlab,
    NanotubeArraySlab,
    QuadratureSpec,
    nonlocal_isotropic_ratio,
    orientation_forces,
)

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
