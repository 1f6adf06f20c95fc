"""Property tests of the closed forms and the quadrature evaluators, with
few, derandomized examples so that the suite stays deterministic and
quick."""

import contextlib
import io
import math

import numpy as np
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
from casimir_slabs.sweep import format_value, write_table

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


# The nonlocal kernel carries sqrt(1 + z), z = beta p/(x q) with
# beta = 2 l/(eps~ d), where the thin limit carries sqrt(z) and the local
# metal 1; 0 <= sqrt(1 + z) - sqrt(z) <= 1 and sqrt(1 + z) >= 1 bound the
# nonlocal correction by the other two.
sandwich = settings(max_examples=10, derandomize=True, deadline=None)
film_point = (st.floats(1.0, 500.0), st.floats(50.0, 1.0e4), omega_p, eps_b)


@sandwich
@given(*film_point)
def test_iso_nonlocal_between_thin_and_local_limits(d, l, w, e):
    slab = film(d, w, e)
    nonlocal_ = nonlocal_isotropic_ratio(slab, l)
    thin = thin_limit_ratio(slab, l)
    local = lifshitz_force_local(w, l).ratio_to_casimir  # exact: no estimate
    err = nonlocal_.error_estimate + thin.error_estimate
    ratio = nonlocal_.ratio_to_casimir
    assert thin.ratio_to_casimir - (1.0 - local) - err <= ratio
    assert ratio <= min(thin.ratio_to_casimir, local) + err


@sandwich
@given(*film_point)
def test_iso_nonlocal_depends_on_d_and_l_through_beta(d, l, w, e):
    # (d, l) and (2d, 2l) share beta, so (1 - ratio) l is the same integral.
    one = nonlocal_isotropic_ratio(film(d, w, e), l)
    two = nonlocal_isotropic_ratio(film(2.0 * d, w, e), 2.0 * l)
    gap = (1.0 - one.ratio_to_casimir) * l - (1.0 - two.ratio_to_casimir) * 2.0 * l
    assert abs(gap) <= one.error_estimate * l + two.error_estimate * 2.0 * l


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


# The CSV writer: any table, written as format_value writes each cell.
any_float = st.floats(allow_nan=True, allow_infinity=True)
edge_floats = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16]
cell_text = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=4)
scalar = st.one_of(st.none(), any_float, cell_text, st.integers(-2**63, 2**63 - 1),
                   st.booleans())


@st.composite
def table_columns(draw):
    """A table's columns: float columns with many repeats (as the axes of a
    product grid), mostly distinct floats, broadcast (stride-0) floats,
    int, bool, None-bearing object and string columns."""
    n = draw(st.integers(1, 40))
    floats = st.sampled_from(edge_floats + draw(st.lists(any_float, max_size=3)))
    kinds = {
        "repeated": lambda: draw(st.lists(floats, min_size=n, max_size=n)),
        "distinct": lambda: np.array(draw(st.lists(any_float, min_size=n, max_size=n))),
        "broadcast": lambda: np.broadcast_to(draw(any_float), (n,)),
        "int": lambda: np.array(draw(st.lists(st.integers(-2**63, 2**63 - 1),
                                              min_size=n, max_size=n))),
        "bool": lambda: np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))),
        "object": lambda: [None, *draw(st.lists(scalar, min_size=n - 1, max_size=n - 1))],
        "string": lambda: np.array(draw(st.lists(cell_text, min_size=n, max_size=n))),
    }
    chosen = draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1, max_size=6))
    return [kinds[kind]() for kind in chosen]


def _expected_csv(names, columns):
    values = [column if isinstance(column, list) else column.tolist()
              for column in columns]
    rows = [names, *zip(*values)]
    return "".join(",".join(map(format_value, row)) + "\n" for row in rows)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(table_columns())
@example([[-0.0, 0.0] * 20, np.broadcast_to(-0.0, (40,)), np.arange(40.0) % 3])
@example([edge_floats * 6, np.array(edge_floats * 6), np.arange(42)])
@example([[1e16], np.array([math.nan]), np.array([True]), [None], np.array(["%s"])])
def test_csv_rows_are_format_value_of_each_cell(tmp_path_factory, columns):
    names = [f"c{i}%s" for i in range(len(columns))]
    path = tmp_path_factory.getbasetemp() / "table.csv"
    write_table(path, names, columns)
    assert path.read_bytes().decode() == _expected_csv(names, columns)


@few
@given(any_float)
@example(-0.0)
@example(5e-324)
def test_format_value_writes_ten_significant_digits(value):
    assert format_value(value) == f"{value:.10g}"
