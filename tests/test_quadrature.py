import inspect
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import casimir_slabs
from casimir_slabs import QuadratureSpec, bose_integral, integrate_p_axis, integrate_xp
from casimir_slabs import sweep
from casimir_slabs.quadrature import _VISITED_LEVELS, _levels, _p_nodes, _tanh_sinh

PI4_OVER_15 = math.pi ** 4 / 15.0

# int_1^inf (p^2+1)/(p^(7/2) (p^2-1)^(1/4)) dp = (B(1/2,3/4) + B(3/2,3/4))/2,
# by t = 1/p^2: 1.6773963286298290904 from mpmath at 40 digits.
P_SINGULAR = 1.677396328629829


def bose_weight(s):
    return lambda x: x ** s * np.exp(-x) / np.expm1(-x) ** 2


def integrate_x_axis(f, spec):
    """The x rule alone, through the (x, p) engine: f(x) times 1/p^2,
    whose p integral over [1, inf) is exactly 1."""
    return integrate_xp(lambda x, p, q: f(x) / (p * p), spec)


class TestSpecValidation:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.rel_tol == 1e-8
        assert spec.abs_tol == 1e-12
        assert spec.x_max == 40.0  # max(40, -ln(1e-12)+10) = 40
        assert spec.p_transform == "hyperbolic"

    def test_x_max_follows_abs_tol(self):
        spec = QuadratureSpec(abs_tol=1e-30)
        assert spec.x_max == pytest.approx(-math.log(1e-30) + 10.0)

    def test_tightened_spec_equals_one_built_with_its_tolerances(self):
        # x_max follows the tightened abs_tol, as in a spec built directly
        tight = QuadratureSpec(abs_tol=1e-19).tightened()
        assert tight.x_max == pytest.approx(-math.log(1e-20) + 10.0)
        assert tight == QuadratureSpec(rel_tol=tight.rel_tol, abs_tol=tight.abs_tol)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel_tol": 0.0},
            {"rel_tol": -1e-8},
            {"abs_tol": -1e-12},
            {"x_max": -1.0},
            {"max_subdivisions": 0},
            {"p_transform": "sinh"},
            {"rel_tol": math.nan},
            {"abs_tol": math.nan},
            {"rel_tol": math.inf},
            {"abs_tol": math.inf},
        ],
    )
    def test_invalid(self, kwargs):
        # max_subdivisions is no field of the engine's spec any more, and
        # x_max is derived from abs_tol, never passed
        unknown = {"x_max", "max_subdivisions"} & kwargs.keys()
        error = TypeError if unknown else ValueError
        with pytest.raises(error):
            QuadratureSpec(**kwargs)


class TestXAxis:
    def test_bose_weight_x3(self, spec):
        res = integrate_x_axis(lambda x: x ** 3 / np.expm1(x), spec)
        assert res.converged
        assert res.value == pytest.approx(PI4_OVER_15, rel=spec.rel_tol * 10)

    def test_plain_exponential(self, spec):
        res = integrate_x_axis(lambda x: np.exp(-x), spec)
        assert res.converged
        assert res.value == pytest.approx(1.0, rel=1e-10)

    def test_bose_weight_matches_closed_form(self, spec):
        res = integrate_x_axis(bose_weight(4.0), spec)
        assert res.value == pytest.approx(bose_integral(4.0), rel=spec.rel_tol * 10)

    @pytest.mark.parametrize("s", [2.0, 3.0, 3.5, 4.0, 5.0])
    def test_bose_family_cross_check(self, s, spec):
        res = integrate_x_axis(bose_weight(s), spec)
        assert res.converged
        assert res.value == pytest.approx(bose_integral(s), rel=spec.rel_tol * 10)

    def test_converged_error_bound_invariant(self, spec):
        res = integrate_x_axis(bose_weight(3.0), spec)
        assert res.converged
        assert res.error_estimate <= max(
            spec.abs_tol, spec.rel_tol * abs(res.value)
        )

    def test_non_convergence_is_flagged_not_raised(self):
        tight = QuadratureSpec(rel_tol=1e-15, abs_tol=0.0)  # below the roundoff floor
        res = integrate_x_axis(lambda x: x ** 3 / np.expm1(x), tight)
        assert not res.converged


class TestPAxis:
    def test_elementary_antiderivative(self, spec):
        res = integrate_p_axis(lambda p, q: (p * p + 1.0) / p ** 4, 0.0, spec)
        assert res.converged
        assert res.value == pytest.approx(4.0 / 3.0, rel=spec.rel_tol * 10)

    def test_inverse_square(self, spec):
        res = integrate_p_axis(lambda p, q: p ** -2, 0.0, spec)
        assert res.value == pytest.approx(1.0, rel=spec.rel_tol * 10)

    def test_quarter_power_endpoint_singularity(self, spec):
        res = integrate_p_axis(
            lambda p, q: (p * p + 1.0) / (p ** 3.5 * np.sqrt(q)), 0.25, spec
        )
        assert res.converged
        assert res.value == pytest.approx(P_SINGULAR, rel=1e-8)

    def test_quarter_power_singularity_within_its_error_of_beta_form(self, spec):
        res = integrate_p_axis(
            lambda p, q: (p * p + 1.0) / (p ** 3.5 * np.sqrt(q)), 0.25, spec
        )
        beta = lambda a, b: math.gamma(a) * math.gamma(b) / math.gamma(a + b)
        exact = 0.5 * (beta(0.5, 0.75) + beta(1.5, 0.75))
        assert exact == pytest.approx(P_SINGULAR, rel=1e-15)
        assert abs(res.value - exact) <= res.error_estimate

    def test_singular_integral_feeds_thin_coefficient(self, spec):
        res = integrate_p_axis(
            lambda p, q: (p * p + 1.0) / (p ** 3.5 * np.sqrt(q)), 0.25, spec
        )
        coeff = 15.0 * math.sqrt(2.0) / math.pi ** 4 * bose_integral(3.5) * res.value
        assert coeff == pytest.approx(4.79, abs=0.01)

    @pytest.mark.parametrize("order", [1.0, 1.5, -0.1])
    def test_bad_singularity_order(self, order, spec):
        with pytest.raises(ValueError):
            integrate_p_axis(lambda p, q: p ** -2, order, spec)

    @pytest.mark.parametrize(
        "f, exact",
        [
            (lambda p, q: (p * p + 1.0) / p ** 4, 4.0 / 3.0),
            (lambda p, q: p ** -2, 1.0),
            (lambda p, q: p ** -3, 0.5),
        ],
    )
    def test_transform_invariance_smooth(self, f, exact, spec):
        hyper = integrate_p_axis(f, 0.0, spec)
        shifted = integrate_p_axis(
            f, 0.0, QuadratureSpec(p_transform="shifted-square")
        )
        assert hyper.value == pytest.approx(shifted.value, rel=spec.rel_tol * 10)
        assert hyper.value == pytest.approx(exact, rel=spec.rel_tol * 10)

    def test_transform_invariance_singular(self, spec):
        f = lambda p, q: (p * p + 1.0) / (p ** 3.5 * np.sqrt(q))
        hyper = integrate_p_axis(f, 0.25, spec)
        shifted = integrate_p_axis(
            f, 0.25, QuadratureSpec(p_transform="shifted-square")
        )
        assert hyper.value == pytest.approx(shifted.value, rel=1e-7)


class TestToleranceScaling:
    @pytest.mark.parametrize(
        "integrate, f, order, exact",
        [
            (integrate_x_axis, lambda x: x ** 3 / np.expm1(x), None, PI4_OVER_15),
            (integrate_x_axis, bose_weight(4.0), None, 24.0 * math.pi ** 4 / 90.0),
            (integrate_p_axis, lambda p, q: (p * p + 1.0) / p ** 4, 0.0, 4.0 / 3.0),
        ],
    )
    def test_halving_rel_tol_never_worse(self, integrate, f, order, exact):
        discrepancies = []
        for rel in (1e-6, 5e-7, 2.5e-7):
            spec = QuadratureSpec(rel_tol=rel)
            if order is None:
                res = integrate(f, spec)
            else:
                res = integrate(f, order, spec)
            discrepancies.append(abs(res.value - exact))
        for coarse, fine in zip(discrepancies, discrepancies[1:]):
            assert fine <= coarse + 1e-15


class TestLevels:
    @pytest.mark.parametrize("transform", ["hyperbolic", "shifted-square"])
    @pytest.mark.parametrize("with_x", [False, True])
    def test_nodes_increase_keep_the_window_ends_and_nest(self, transform, with_x):
        # The tail bounds read the window ends as the first and last column
        # of each level's grid, and the x tail as its last row: every
        # visited level must hold its nodes in increasing tau, from
        # tau = -3.5 to 2.0 as level 0 does, and the previous level's nodes.
        # p = cosh u rounds to 1 at the first nodes; q = sinh u orders them.
        levels = _levels(40.0, transform, with_x)[0]
        p_ends, q_ends = (nodes[[0, -1]] for nodes in _p_nodes(transform, 0)[:2])
        x_ends = _tanh_sinh(40.0, 0.5, 0)[0][[0, -1]]
        previous = None
        for x, wx, p, q, _ in levels:
            assert np.all(np.diff(q) > 0.0) and np.all(np.diff(p) >= 0.0)
            assert np.array_equal(p[[0, -1]], p_ends)
            assert np.array_equal(q[[0, -1]], q_ends)
            if with_x:
                assert np.all(np.diff(x) > 0.0)
                assert np.array_equal(x[[0, -1]], x_ends)
            else:
                assert np.array_equal(x, [0.0]) and np.array_equal(wx, [1.0])
            if previous is not None:
                assert all(np.isin(*pair).all() for pair in zip(previous, (x, p, q)))
            previous = x, p, q
        assert len(levels) == len(_VISITED_LEVELS)

    def test_only_the_visited_levels_are_built(self):
        # From empty caches, a nonlocal film point (an (x, p) integral),
        # the thin-limit coefficient (p alone) and a nanotube force build
        # the nodes of the visited levels and of no other: the p-window
        # end multipliers come from the same build.
        src = Path(casimir_slabs.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-c", LEVEL_PROBE], capture_output=True, text=True,
            check=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert json.loads(done.stdout.splitlines()[-1]) == list(_VISITED_LEVELS)


# Prints, as JSON, the levels whose tanh-sinh nodes a fresh interpreter
# builds while it runs one command of each integral kind.
LEVEL_PROBE = """
import json
from casimir_slabs import cli, quadrature
built, rule = set(), quadrature._tanh_sinh
quadrature._tanh_sinh = lambda end, step, level: built.add(level) or rule(end, step, level)
for argv in (["iso-nonlocal", "--d-nm", "10", "--l-nm", "1000"],
             ["iso-thin", "--d-nm", "1", "--l-nm", "1000"],
             ["aniso", "--layers", "5", "--radius-nm", "2", "--l-nm", "1000"]):
    assert cli.main(argv) == 0
print(json.dumps(sorted(built)))
"""


class TestDoubleIntegral:
    def test_separable_product(self, spec):
        res = integrate_xp(lambda x, p, q: np.exp(-x) / (p * p), spec)
        assert res.converged
        assert res.value == pytest.approx(1.0, rel=1e-7)
        assert res.evaluations > 0

    def test_inner_failure_propagates_to_flag(self):
        bad = QuadratureSpec(rel_tol=1e-15, abs_tol=0.0)  # below the roundoff floor
        res = integrate_xp(lambda x, p, q: np.exp(-x) / (p * p), bad)
        assert not res.converged

    def test_nan_integrand_is_flagged_with_infinite_error(self, spec):
        res = integrate_xp(lambda x, p, q: np.nan * x * p, spec)
        assert not res.converged
        assert res.error_estimate == math.inf

    @pytest.mark.parametrize("with_x", [False, True])
    def test_kernel_never_gets_an_empty_block(self, spec, with_x):
        # One kernel call per level from level 3 on, on that level's whole
        # grid, so no block is empty and the evaluations are the sum of the
        # grid sizes (for e^-x/p^2, 7921 + 31329 = 39250).
        shapes = []

        def f(*args):  # (p, q), or (x, p, q) with x: 1/p^2, or e^-x/p^2
            shapes.append(np.broadcast_shapes(*map(np.shape, args)))
            return np.exp(-args[0] * with_x) / args[-2] ** 2

        res = integrate_p_axis(f, spec=spec, with_x=with_x)
        assert res.converged and len(shapes) > 1
        assert all(0 not in shape for shape in shapes), shapes
        levels = _levels(spec.x_max, spec.p_transform, with_x)[0]
        grids = [(x.size, p.size) for x, _, p, _, _ in levels[:2]]
        assert shapes == grids
        assert res.evaluations == sum(nx * npp for nx, npp in grids)
        if with_x:
            assert grids == [(89, 89), (177, 177)]
            assert res.evaluations == 39250

    def test_kernel_result_broadcasts_over_x(self, spec):
        # A kernel constant in x may return one row, (1, n_p); the engine
        # spreads it over the x nodes exactly as the full-shape result.
        row = lambda x, p, q: 1.0 / (p * p)
        full = lambda x, p, q: np.repeat(row(x, p, q), x.size, axis=0)
        assert integrate_xp(row, spec) == integrate_xp(full, spec)

    def test_result_is_deterministic(self, spec):
        f = lambda x, p, q: np.exp(-x) * (p * p + 1.0) / p ** 4
        first = integrate_xp(f, spec)
        second = integrate_xp(f, spec)
        assert first == second

    def test_concurrent_calls_match_the_serial_ones(self, spec):
        # Each call sums the grids its own kernel returns.  Kernels that
        # differ by a scale factor make any state shared between calls
        # visible (one kernel alone would give the same value to each
        # entry); a short switch interval interleaves the threads.
        def kernel(scale):
            def f(x, p, q):
                bose = x ** 3.5 * np.exp(-x) / np.expm1(-x) ** 2
                return scale * bose * (p * p + 1.0) / (p ** 3.5 * np.sqrt(q))
            return f

        kernels = [kernel(scale) for scale in (1.0, 2.0, 3.0, 5.0)] * 6
        serial = [integrate_xp(f, spec, 0.25) for f in kernels]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(integrate_xp, f, spec, 0.25) for f in kernels]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == serial

    @pytest.mark.parametrize("written", [0, 1, 2])
    def test_kernel_cannot_write_into_the_shared_nodes(self, spec, written):
        # Every integral and thread reads the same node sets, so a kernel
        # that wrote into its x, p or q would corrupt the later levels of
        # its own integral and every later one; the write raises instead.
        def f(*nodes):
            target = nodes[written]
            target *= 2.0
            return np.exp(-nodes[0]) / (nodes[1] * nodes[1])

        with pytest.raises(ValueError, match="read-only"):
            integrate_xp(f, spec)
        res = integrate_xp(lambda x, p, q: np.exp(-x) / (p * p), spec)
        assert res.converged
        assert res.value == pytest.approx(1.0, rel=1e-7)


# Prints, as JSON, the scipy modules and the given package modules that a
# fresh interpreter loaded after importing the package and running the
# given statements.
MODULE_PROBE = """
import json, sys
import casimir_slabs
from casimir_slabs import cli
{}
names = [name for name in sys.modules if name == "scipy" or name.startswith("scipy.")]
print(json.dumps(names + [name for name in {!r} if name in sys.modules]))
"""


def modules_loaded_by(statements: str, watched: tuple = ()) -> list[str]:
    src = Path(casimir_slabs.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", MODULE_PROBE.format(statements, watched)],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def cli_ran(*argv: str) -> str:
    """A probe statement running one command, which must succeed."""
    return f"assert cli.main({list(argv)!r}) == 0"


def test_package_does_not_load_scipy():
    # QUADPACK, scipy.special and brentq are test oracles only
    # (tests/oracle.py, tests/test_brent.py): importing the package, the
    # thin-limit coefficient, an iso-nonlocal point, a nanotube force and
    # a crossover search load no scipy module at all.
    iso = cli_ran("iso-nonlocal", "--d-nm", "10", "--l-nm", "1000")
    aniso = cli_ran("aniso", "--layers", "5", "--radius-nm", "2", "--l-nm", "1000")
    crossover = cli_ran(
        "crossover", "--l-nm", "1000", "--d-min-nm", "4", "--d-max-nm", "100"
    )
    assert modules_loaded_by("casimir_slabs.thin_limit_coefficient()") == []
    assert modules_loaded_by(iso) == []
    assert modules_loaded_by(crossover) == []
    # The probe does see a load: the module of the Bessel product that the
    # nanotube force runs.
    watched = ("casimir_slabs.special",)
    assert modules_loaded_by(aniso, watched) == ["casimir_slabs.special"]


PUBLIC_NAMES = [
    "ApplicabilityReport", "CrossoverResult", "ForceResult", "IntegralResult",
    "IsotropicSlab", "NanotubeArraySlab", "OrientationForces", "QuadratureError",
    "QuadratureSpec", "__version__", "applicability_report", "bessel_i0k0_product",
    "bose_integral", "casimir_pressure", "crossover_thickness",
    "drude_eps_imaginary_axis", "eps_tilde", "f_parallel_ratio", "f_perp_ratio",
    "film_reflection_coeffs", "halfspace_reflection_coeffs", "integrate_p_axis",
    "integrate_xp", "lifshitz_force_local", "lifshitz_pressure_general",
    "local_drude_fn", "main_term_parallel", "main_term_perp", "momentum_from_xp",
    "nonlocal_isotropic_ratio", "orientation_forces", "phi", "plasma_freq_isotropic",
    "plasma_freq_nanotube", "plasma_skin_depth_nm", "psi", "thin_limit_coefficient",
    "thin_limit_ratio",
]


def test_package_exports_the_modules_public_names():
    # __all__ is built from each module's own __all__; every name resolves.
    assert sorted(casimir_slabs.__all__) == PUBLIC_NAMES
    for name in casimir_slabs.__all__:
        assert getattr(casimir_slabs, name) is not None


def test_every_spec_defaults_to_the_default_spec():
    # One default value, not None: omitting spec and passing QuadratureSpec()
    # are the same call, down to the keys of the main-term caches.
    functions = [getattr(casimir_slabs, name) for name in casimir_slabs.__all__]
    parameters = {
        function.__name__: inspect.signature(function).parameters
        for function in [*functions, sweep.run_sweep, sweep.run_preset]
        if inspect.isfunction(function)
    }
    defaults = {name: p["spec"].default for name, p in parameters.items() if "spec" in p}
    assert len(defaults) == 12
    assert defaults == dict.fromkeys(defaults, QuadratureSpec())
