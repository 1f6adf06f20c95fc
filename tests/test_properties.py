"""Property tests of the closed forms and the quadrature evaluators, with
few, derandomized examples so that the suite stays deterministic and
quick."""

import contextlib
import io
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casimir_slabs import (
    IsotropicSlab,
    NanotubeArraySlab,
    applicability_report,
    f_parallel_ratio,
    f_perp_ratio,
    lifshitz_force_local,
    main_term_parallel,
    main_term_perp,
    nonlocal_isotropic_ratio,
    thin_limit_ratio,
)
from casimir_slabs.cli import main
from casimir_slabs.constants import C_NM_PER_S

few = settings(max_examples=40, derandomize=True, deadline=None)

thickness = st.floats(0.1, 1.0e4)
separation = st.floats(10.0, 1.0e6)
omega_p = st.floats(1.0e14, 1.0e18)
eps_b = st.floats(2.5, 100.0)  # free-standing films need eps_b > 2
factor = st.floats(1.01, 10.0)  # a step that the ratio resolves
bad = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0])


def film(d, w=2.0e16, e=9.0):
    return IsotropicSlab(omega_p3d=w, thickness_d=d, eps_b=e)


@few
@given(thickness, separation, omega_p, eps_b)
def test_thin_limit_ratio_in_unit_interval_where_valid(d, l, w, e):
    res = thin_limit_ratio(film(d, w, e), l)
    if res.validity == "valid":
        assert 0.0 < res.ratio_to_casimir <= 1.0


@few
@given(thickness, separation, omega_p, eps_b, factor)
def test_thin_limit_ratio_increases_in_d_and_l(d, l, w, e, k):
    ratio = thin_limit_ratio(film(d, w, e), l).ratio_to_casimir
    assert thin_limit_ratio(film(k * d, w, e), l).ratio_to_casimir > ratio
    assert thin_limit_ratio(film(d, w, e), k * l).ratio_to_casimir > ratio


@few
@given(separation, omega_p, factor)
def test_local_force_increases_in_l(l, w, k):
    ratio = lifshitz_force_local(w, l).ratio_to_casimir
    assert lifshitz_force_local(w, k * l).ratio_to_casimir > ratio


@settings(max_examples=15, derandomize=True, deadline=None)
@given(st.floats(0.5, 500.0), st.floats(0.5, 1.0e4), omega_p)
def test_applicability_flags_are_their_inequalities(d, l, w):
    rep = applicability_report(film(d, w), l)
    assert rep.d_ok == (2.0 * d * w / C_NM_PER_S > 1.0)
    assert rep.l_ok == (C_NM_PER_S / (2.0 * l * w) < 1.0)


@few
@given(st.sampled_from(["omega_p3d", "thickness_d", "eps_b", "eps_sub", "eps_sup"]), bad)
def test_film_rejects_non_finite_or_non_positive_field(field, value):
    fields = {"omega_p3d": 2.0e16, "thickness_d": 10.0, "eps_b": 9.0, field: value}
    with pytest.raises(ValueError):
        IsotropicSlab(**fields)


@few
@given(
    st.sampled_from(
        ["omega_p3d", "radius_R", "thickness_d", "eps_b", "period_Delta", "eps_sub"]
    ),
    bad,
)
def test_array_rejects_non_finite_or_non_positive_field(field, value):
    fields = {"omega_p3d": 2.0e16, "radius_R": 2.0, "thickness_d": 20.0, "eps_b": 10.0}
    with pytest.raises(ValueError):
        NanotubeArraySlab(**{**fields, field: value})


@few
@given(bad)
def test_closed_forms_reject_non_finite_or_non_positive_l(l):
    with pytest.raises(ValueError):
        thin_limit_ratio(film(10.0), l)
    with pytest.raises(ValueError):
        lifshitz_force_local(2.0e16, l)
    with pytest.raises(ValueError):
        applicability_report(film(10.0), l)


positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@few
@given(positive, positive, positive, st.floats(2.5, 1.0e300))
@example(5e-324, 1e-60, 2e16, 9.0)  # eps~ d l underflows to 0
def test_iso_thin_result_line_has_no_nan(d, l, w, e):
    argv = ["iso-thin", "--d-nm", repr(d), "--l-nm", repr(l),
            "--omega-p", repr(w), "--eps-b", repr(e)]
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    results = [line for line in out.getvalue().splitlines() if line.startswith("RESULT")]
    assert code in (0, 2)
    assert len(results) == (code == 0)
    assert not any("NaN" in line for line in results)


@settings(max_examples=15, derandomize=True, deadline=None)
@given(st.floats(1.0, 1.0e3), st.floats(50.0, 1.0e5), omega_p, eps_b, factor)
def test_iso_nonlocal_in_unit_interval_and_increasing_in_d_and_l(d, l, w, e, k):
    res = nonlocal_isotropic_ratio(film(d, w, e), l)
    assert math.isfinite(res.error_estimate)
    if res.validity == "valid":
        assert 0.0 < res.ratio_to_casimir <= 1.0
    for other in (nonlocal_isotropic_ratio(film(k * d, w, e), l),
                  nonlocal_isotropic_ratio(film(d, w, e), k * l)):
        gain = other.ratio_to_casimir - res.ratio_to_casimir
        assert gain > other.error_estimate + res.error_estimate


@settings(max_examples=8, derandomize=True, deadline=None)
@given(st.floats(0.5, 5.0), st.floats(1.0, 50.0), st.floats(50.0, 1.0e4),
       st.floats(1.5, 100.0), factor)
def test_array_ratios_below_main_terms_and_increasing_in_d(radius, layers, l, e, k):
    def forces(d):
        array = NanotubeArraySlab(
            omega_p3d=2.0e16, radius_R=radius, thickness_d=d, eps_b=e
        )
        return f_parallel_ratio(array, l), f_perp_ratio(array, l)

    d = 2.0 * radius * layers
    main = (main_term_parallel(e), main_term_perp(e))
    for res, thicker, limit in zip(forces(d), forces(k * d), main):
        assert math.isfinite(res.error_estimate)
        assert math.isfinite(thicker.error_estimate)
        assert res.ratio_to_casimir < limit
        gain = thicker.ratio_to_casimir - res.ratio_to_casimir
        assert gain > thicker.error_estimate + res.error_estimate


@few
@given(positive, positive, positive, st.floats(2.5, 1.0e300))
@example(10.0, 1e-30, 1e-300, 9.0)  # omega_p l underflows to 0
def test_iso_nonlocal_edge_inputs_fail_loudly(d, l, w, e):
    try:
        res = nonlocal_isotropic_ratio(film(d, w, e), l)
    except ValueError:
        return
    values = (res.ratio_to_casimir, res.pressure, res.error_estimate)
    assert res.validity == "quadrature_failed" or all(map(math.isfinite, values))


@settings(max_examples=20, derandomize=True, deadline=None)
@given(st.sampled_from(["iso-nonlocal", "aniso"]), positive, positive, positive)
@example("iso-nonlocal", 10.0, 1000.0, 1e-300)  # the correction overflows
@example("aniso", 20.0, 1000.0, 1e-300)
def test_quadrature_result_lines_have_no_nan_or_infinity(command, d, l, w):
    argv = [command, "--d-nm", repr(d), "--l-nm", repr(l), "--omega-p", repr(w)]
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    results = [line for line in out.getvalue().splitlines() if line.startswith("RESULT")]
    assert code in (0, 2, 3)
    assert not any(word in line for line in results for word in ("NaN", "Infinity"))
