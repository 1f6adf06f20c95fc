"""End-to-end acceptance gate.

One test per criterion, each printing a single ``[acceptance NN]``
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).
Every tolerance is pinned here; criteria that the governing equations
cannot satisfy are asserted as stated and allowed to fail visibly
rather than being loosened.
"""

import math
import time
from dataclasses import replace

import pytest

from casimir_slabs import (
    IsotropicSlab,
    NanotubeArraySlab,
    QuadratureSpec,
    applicability_report,
    bose_integral,
    crossover_thickness,
    f_parallel_ratio,
    lifshitz_force_local,
    lifshitz_pressure_general,
    main_term_parallel,
    main_term_perp,
    nonlocal_isotropic_ratio,
    plasma_skin_depth_nm,
    thin_limit_coefficient,
    thin_limit_ratio,
)
from casimir_slabs.lifshitz import _thin_limit_parts
from casimir_slabs.sweep import SweepAxis, SweepRequest, run_sweep

_SUITE_START = time.perf_counter()

OMEGA_P = 2.0e16
SPEC = QuadratureSpec()
ANISO_SPEC = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-11)


def film(d, eps_b=9.0):
    return IsotropicSlab(omega_p3d=OMEGA_P, thickness_d=d, eps_b=eps_b)


def tube_template(eps_b):
    return NanotubeArraySlab(
        omega_p3d=OMEGA_P, radius_R=2.0, thickness_d=100.0, eps_b=eps_b,
        period_Delta=4.0,
    )


def report(index, name, failures, detail_ok=""):
    ok = not failures
    detail = detail_ok if ok else "; ".join(failures)
    print(f"[acceptance {index:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def crossover_eps10():
    return crossover_thickness(
        tube_template(10.0), 1000.0, (4.0, 100.0), ANISO_SPEC
    )


@pytest.fixture(scope="module")
def crossover_eps5():
    return crossover_thickness(
        tube_template(5.0), 1000.0, (4.0, 100.0), ANISO_SPEC
    )


def test_01_thin_limit_coefficient():
    failures = []
    _thin_limit_parts.cache_clear()
    start = time.perf_counter()
    coeff = thin_limit_coefficient()
    elapsed = time.perf_counter() - start
    if abs(coeff - 4.79) > 0.01:
        failures.append(f"coefficient {coeff:.5f} outside 4.79 +/- 0.01")
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f} s (limit 1 s)")
    report(1, "thin-limit-coefficient", failures,
           f"coefficient={coeff:.5f} in {elapsed*1e3:.1f} ms")


def test_02_lifshitz_sixteen_thirds_recovery():
    failures = []
    analytic = 15.0 / math.pi ** 4 * bose_integral(4.0) * (4.0 / 3.0)
    if abs(analytic - 16.0 / 3.0) > 1e-6:
        failures.append(f"analytic identity off: {analytic!r}")
    bulk = film(1.0e6)
    for l in (500.0, 1000.0, 5000.0):
        nl = nonlocal_isotropic_ratio(bulk, l, SPEC).ratio_to_casimir
        loc = lifshitz_force_local(OMEGA_P, l).ratio_to_casimir
        rel = abs(nl - loc) / abs(loc)
        if rel > 0.01:
            failures.append(f"l={l}: bulk-limit mismatch {rel:.4f} > 1%")
    report(2, "lifshitz-16-3-recovery", failures,
           f"identity residual {abs(analytic - 16.0/3.0):.1e}")


def test_03_perfect_metal_limit():
    failures = []
    metal = lambda xi: 1e12
    res = lifshitz_pressure_general(metal, metal, 1000.0, SPEC)
    if abs(res.ratio_to_casimir - 1.0) > 1e-4:
        failures.append(f"ratio {res.ratio_to_casimir:.6f} outside 1 +/- 1e-4")
    report(3, "perfect-metal-limit", failures,
           f"ratio={res.ratio_to_casimir:.6f}")


def test_04_thickness_ordering():
    failures = []
    results = {
        d: nonlocal_isotropic_ratio(film(d), 1000.0, SPEC) for d in (10.0, 20.0, 200.0)
    }
    local = lifshitz_force_local(OMEGA_P, 1000.0)
    chain = [results[10.0], results[20.0], results[200.0], local]
    for a, b in zip(chain, chain[1:]):
        gap = b.ratio_to_casimir - a.ratio_to_casimir
        noise = 10.0 * (a.error_estimate + b.error_estimate)
        if gap <= noise:
            failures.append(f"gap {gap:.3e} not beyond 10x error {noise:.3e}")
    if not local.ratio_to_casimir < 1.0:
        failures.append("local force not below the ideal-conductor value")
    report(4, "thickness-ordering", failures,
           "ratios " + " < ".join(f"{r.ratio_to_casimir:.4f}" for r in chain) + " < 1")


def test_05_thin_limit_convergence():
    failures = []
    rel_diffs = {}
    for d in (5.0, 10.0, 20.0):
        full = nonlocal_isotropic_ratio(film(d), 1000.0, SPEC).ratio_to_casimir
        thin = thin_limit_ratio(film(d), 1000.0).ratio_to_casimir
        rel_diffs[d] = abs(full - thin) / abs(thin)
    if rel_diffs[10.0] > 0.05:
        failures.append(f"d=10 nm deviation {rel_diffs[10.0]:.4f} > 5%")
    if not rel_diffs[5.0] < rel_diffs[10.0] < rel_diffs[20.0]:
        failures.append(f"deviation not shrinking with d: {rel_diffs}")
    report(5, "thin-limit-convergence", failures,
           f"rel diffs {rel_diffs[5.0]:.4f} < {rel_diffs[10.0]:.4f} < {rel_diffs[20.0]:.4f}")


def test_06_main_terms():
    failures = []
    par_limit = main_term_parallel(1e6, SPEC)
    perp_limit = main_term_perp(1e6, SPEC)
    for name, value in (("parallel", par_limit), ("perp", perp_limit)):
        if abs(value - 1.0) > 1e-2:
            failures.append(f"main {name}(eps_b=1e6) = {value:.5f} outside 1 +/- 1e-2")
    for eps_b in (2.0, 5.0, 10.0, 50.0):
        par = main_term_parallel(eps_b, SPEC)
        perp = main_term_perp(eps_b, SPEC)
        if not par > perp:
            failures.append(f"eps_b={eps_b:g}: parallel {par:.5f} <= perp {perp:.5f}")
    report(6, "main-terms", failures,
           f"limits par={par_limit:.5f} perp={perp_limit:.5f}")


def test_07_crossover_existence(crossover_eps10):
    failures = []
    res = crossover_eps10
    if not (res.sign_low < 0.0 < res.sign_high):
        failures.append(
            f"expected thin end negative / thick end positive, got "
            f"({res.sign_low:+.0f}, {res.sign_high:+.0f})"
        )
    if res.crossover_d is None:
        failures.append("no sign change found on [4, 100] nm")
    elif not 4.0 < res.crossover_d < 100.0:
        failures.append(f"crossover {res.crossover_d} nm outside the bracket")
    report(7, "crossover-existence", failures,
           f"crossover_d={res.crossover_d} nm after {res.iterations + 2} probes")


def test_08_crossover_shift(crossover_eps10, crossover_eps5):
    failures = []
    d10, d5 = crossover_eps10.crossover_d, crossover_eps5.crossover_d
    if d10 is None or d5 is None:
        failures.append(f"missing crossover: eps_b=10 -> {d10}, eps_b=5 -> {d5}")
    elif not d5 < d10:
        failures.append(f"eps_b=5 crossover {d5} nm not below eps_b=10 {d10} nm")
    report(8, "crossover-shift", failures, f"d*(eps_b=5)={d5} < d*(eps_b=10)={d10}")


def test_09_validity_bounds():
    failures = []
    worst = 0.0
    for d in (10.0, 20.0, 200.0):
        for l in (100.0, 1000.0, 5000.0):
            rep = applicability_report(film(d), l, threshold=0.01)
            worst = max(worst, rep.max_rel_deviation_s, rep.max_rel_deviation_p)
            if not (rep.d_ok and rep.l_ok):
                failures.append(f"(d={d:g}, l={l:g}): flags {rep.d_ok}/{rep.l_ok}")
            if not rep.verdict:
                failures.append(
                    f"(d={d:g}, l={l:g}): deviation "
                    f"s={rep.max_rel_deviation_s:.4f} p={rep.max_rel_deviation_p:.4f} > 1%"
                )
    depth = plasma_skin_depth_nm(OMEGA_P)
    if abs(depth - 15.0) > 0.015:
        failures.append(f"c/omega_p = {depth:.4f} nm not 15 nm")
    report(9, "validity-bounds", failures, f"worst deviation {worst:.2e}")


def test_10_determinism_and_convergence(tmp_path):
    failures = []

    def request(path):
        return SweepRequest(
            quantity="iso_nonlocal",
            fixed_params={"d": 20.0, "eps_b": 9.0, "omega_p": OMEGA_P},
            axes=(SweepAxis("l", 500.0, 2000.0, 3, "log"),),
            output_path=str(path / "sweep.csv"),
        )

    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
    run_sweep(request(tmp_path / "a"), SPEC)
    run_sweep(request(tmp_path / "b"), SPEC)
    csv_a = (tmp_path / "a" / "sweep.csv").read_bytes()
    csv_b = (tmp_path / "b" / "sweep.csv").read_bytes()
    if csv_a != csv_b:
        failures.append("sweep rerun not byte-identical")
    man_a = (tmp_path / "a" / "sweep.csv.manifest.json").read_bytes()
    man_b = (tmp_path / "b" / "sweep.csv.manifest.json").read_bytes()
    if man_a != man_b:
        failures.append("manifest rerun not byte-identical")

    coarse = nonlocal_isotropic_ratio(film(20.0), 1000.0, SPEC)
    fine = nonlocal_isotropic_ratio(
        film(20.0), 1000.0, replace(SPEC, rel_tol=SPEC.rel_tol / 2.0)
    )
    drift = abs(coarse.ratio_to_casimir - fine.ratio_to_casimir)
    if drift > coarse.error_estimate:
        failures.append(
            f"halved rel_tol moved the ratio by {drift:.2e} > "
            f"error estimate {coarse.error_estimate:.2e}"
        )
    loose = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-10)
    par_coarse = f_parallel_ratio(tube_template(10.0), 1000.0, loose)
    par_fine = f_parallel_ratio(
        tube_template(10.0), 1000.0, replace(loose, rel_tol=loose.rel_tol / 2.0)
    )
    shift = abs(par_coarse.ratio_to_casimir - par_fine.ratio_to_casimir)
    if shift > par_coarse.error_estimate:
        failures.append(
            f"halved rel_tol moved the array ratio by {shift:.2e} > "
            f"error estimate {par_coarse.error_estimate:.2e}"
        )

    elapsed = time.perf_counter() - _SUITE_START
    if elapsed > 300.0:
        failures.append(f"acceptance suite took {elapsed:.0f} s (target < 300 s)")
    report(10, "determinism-convergence", failures, f"suite elapsed {elapsed:.1f} s")
