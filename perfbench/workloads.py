"""The three benchmark workloads.

Each workload turns a seed into inputs, runs one timed pass through the
package's public API, summarises the pass outside the timed region, and
checks the outputs against an independent route.  Why each workload was
chosen is stated on its class and in README.md.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import casimir_slabs as cs
from casimir_slabs import cli, sweep
from casimir_slabs.constants import C_NM_PER_S

OMEGA_P = 2.0e16  # the CLI's default bulk plasma frequency, 1/s
ISO_EPS_B = 9.0  # the CLI's default film background permittivity
ARRAY_EPS_B = 10.0
ARRAY_RADIUS = 2.0
RATIO_TOL = 1.0e-4  # crossover_thickness's default convergence test
# Independent route for the quadrature checks: the other p-axis
# substitution, so a wrong transform or a loosened rule shows as a
# disagreement larger than the two error estimates.
INDEPENDENT = cs.QuadratureSpec(p_transform="shifted-square")
# A value printed with 10 significant digits (sweep.format_value) is
# within this relative distance of the value computed.
CELL_ROUNDING = 5.0e-10


@dataclass
class PassSummary:
    """What one pass produced, read outside the timed region."""

    points: int  # completed points: grid rows or force probes
    failed_ops: frozenset  # indices of the pass's operations that failed
    values: tuple  # everything computed, compared bit for bit across passes


@dataclass
class CheckSummary:
    """Correctness checks against an independent route."""

    attempted: int = 0
    failed: int = 0
    max_dev_over_err: float = 0.0  # worst |deviation| / allowed deviation
    max_err_est: float = 0.0  # largest error estimate on a reported ratio
    messages: list = field(default_factory=list)

    def compare(self, what: str, deviation: float, allowed: float) -> None:
        self.attempted += 1
        ratio = abs(deviation) / allowed
        self.max_dev_over_err = max(self.max_dev_over_err, ratio)
        if not ratio <= 1.0:  # also catches NaN
            self.failed += 1
            self.messages.append(
                f"{what}: |deviation| {abs(deviation):.3e} > allowed {allowed:.3e}"
            )

    def expect(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _count_rows(path: Path) -> tuple[int, list[int]]:
    """(rows, indices of rows flagged quadrature_failed), streamed so that
    reading the output does not raise the process's peak memory."""
    rows, flagged = 0, []
    with open(path, newline="") as handle:
        for i, row in enumerate(csv.DictReader(handle)):
            rows += 1
            if row.get("validity") == "quadrature_failed":
                flagged.append(i)
    return rows, flagged


class Crossover:
    """crossover_thickness on a dense R = 2 nm array at eps_b = 10.

    Its probes are sequential and dependent, so batching across points
    cannot help; per-integral cost, the Bessel kernel, the main terms and
    the root finder's probe count decide it.  Every probe recomputes the
    same two main terms.  A pass solves three seeded problems: where the
    bisection stops depends on the bracket, so one problem takes 5 to 11
    probes, and the sum over three varies less from seed to seed.
    """

    name = "crossover"
    problems = 3
    expect_nonzero = (
        "special.i0k0_calls",
        "anisotropic.phi_calls",
        "anisotropic.psi_calls",
        "quadrature.xp_calls",
        "quadrature.p_axis_calls",
        "quadrature.integrand_evals",
        "quadrature.xp_self_s",
        "anisotropic.force_calls",
        "anisotropic.force_s",
        "anisotropic.xp_per_force",
        "anisotropic.crossover_probes",
        "anisotropic.crossover_iterations",
    )

    def inputs(self, seed: int) -> list[tuple[float, float, float]]:
        # (l, d_lo, d_hi) within 10% of l = 1000 nm and the bracket
        # [4, 100] nm; the lower end only moves up because d >= 2R = 4 nm.
        # The crossover sits near 45 nm throughout, so every bracket keeps
        # its sign change.
        rng = random.Random(f"{self.name}:{seed}")
        return [
            (1000.0 * rng.uniform(0.9, 1.1), 4.0 * rng.uniform(1.0, 1.1),
             100.0 * rng.uniform(0.9, 1.1))
            for _ in range(self.problems)
        ]

    def _array(self, d: float) -> cs.NanotubeArraySlab:
        return cs.NanotubeArraySlab(
            omega_p3d=OMEGA_P, radius_R=ARRAY_RADIUS, thickness_d=d, eps_b=ARRAY_EPS_B
        )

    def run(self, inp: list, workdir: Path):
        return [
            cs.crossover_thickness(self._array(d_hi), l, (d_lo, d_hi))
            for l, d_lo, d_hi in inp
        ]

    def expected_ops(self, inp: list) -> int:
        return len(inp)

    def summarize(self, inp: list, results, workdir: Path) -> PassSummary:
        return PassSummary(
            # both bracket ends, then one probe per iteration
            points=sum(2 + r.iterations for r in results),
            failed_ops=frozenset(i for i, r in enumerate(results) if r.crossover_d is None),
            values=tuple(
                (r.crossover_d, r.iterations, r.sign_low, r.sign_high) for r in results
            ),
        )

    def check(self, inp: list, summary: PassSummary, workdir: Path) -> CheckSummary:
        out = CheckSummary()
        for (l, _, _), (d, *_) in zip(inp, summary.values):
            out.expect(f"l = {l!r} nm: sign change inside the bracket", d is not None)
            if d is None:
                continue
            array = self._array(d)
            forces = cs.orientation_forces(array, l)
            out.max_err_est = max(
                out.max_err_est,
                forces.f_parallel.error_estimate,
                forces.f_perp.error_estimate,
            )
            other = cs.orientation_forces(array, l, INDEPENDENT)
            out.compare(
                f"|F_par - F_perp| at d = {d!r} nm, l = {l!r} nm, shifted-square",
                other.anisotropy,
                RATIO_TOL + other.f_parallel.error_estimate + other.f_perp.error_estimate,
            )
        return out


class IsoSweep:
    """sweep.run_sweep of iso_nonlocal: 3 thicknesses x 25 log-spaced
    separations, the size of the fig3 data set.

    Its 75 points are independent and could share one node set, so a
    vectorised engine shows most here.  It makes no main-term or Bessel
    calls, so those optimisations should leave it unchanged.
    """

    name = "iso_sweep"
    n_l = 25
    n_checked = 5
    expect_nonzero = (
        "quadrature.xp_calls",
        "quadrature.p_axis_calls",
        "quadrature.integrand_evals",
        "quadrature.xp_self_s",
        "lifshitz.nonlocal_calls",
        "lifshitz.nonlocal_s",
        "sweep.points",
        "sweep.eval_s",
        "sweep.self_s",
        "sweep.write_s",
        "sweep.bytes_written",
    )

    def inputs(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        return {
            "d": [d * rng.uniform(0.95, 1.05) for d in (10.0, 20.0, 200.0)],
            "l_lo": 100.0 * rng.uniform(0.95, 1.05),
            "l_hi": 5000.0 * rng.uniform(0.95, 1.05),
            "checked": sorted(rng.sample(range(3 * self.n_l), self.n_checked)),
        }

    def _axis(self, inp: dict) -> sweep.SweepAxis:
        return sweep.SweepAxis("l", inp["l_lo"], inp["l_hi"], self.n_l, "log")

    def _out(self, workdir: Path, i: int) -> Path:
        return workdir / f"iso_nonlocal_{i}.csv"

    def run(self, inp: dict, workdir: Path):
        for i, d in enumerate(inp["d"]):
            request = sweep.SweepRequest(
                quantity="iso_nonlocal",
                fixed_params={"d": d, "omega_p": OMEGA_P, "eps_b": ISO_EPS_B},
                axes=(self._axis(inp),),
                output_path=str(self._out(workdir, i)),
            )
            sweep.run_sweep(request)

    def expected_ops(self, inp: dict) -> int:
        return 3 * self.n_l

    def summarize(self, inp: dict, result, workdir: Path) -> PassSummary:
        paths = [self._out(workdir, i) for i in range(3)]
        counts = [_count_rows(path) for path in paths]
        manifests = [Path(str(p) + ".manifest.json") for p in paths]
        return PassSummary(
            points=sum(rows for rows, _ in counts),
            # row j of file i is operation i * n_l + j
            failed_ops=frozenset(
                i * self.n_l + j for i, (_, flagged) in enumerate(counts) for j in flagged
            ),
            values=(_digest(*paths, *manifests),),
        )

    def check(self, inp: dict, summary: PassSummary, workdir: Path) -> CheckSummary:
        rows = [row for i in range(3) for row in _read_csv(self._out(workdir, i))]
        out = CheckSummary(
            max_err_est=max((float(row["error_estimate"]) for row in rows), default=0.0)
        )
        out.expect("3 x 25 rows written", len(rows) == 3 * self.n_l)
        grid = self._axis(inp).grid()
        tightened = INDEPENDENT.tightened()
        for k in inp["checked"]:
            if k >= len(rows):
                continue
            d, l = inp["d"][k // self.n_l], grid[k % self.n_l]
            slab = cs.IsotropicSlab(omega_p3d=OMEGA_P, thickness_d=d, eps_b=ISO_EPS_B)
            ref = cs.nonlocal_isotropic_ratio(slab, l)
            out.expect(
                f"row {k}: CSV holds the evaluator's ratio",
                rows[k]["ratio_to_casimir"] == sweep.format_value(ref.ratio_to_casimir),
            )
            other = cs.nonlocal_isotropic_ratio(slab, l, tightened)
            out.compare(
                f"iso_nonlocal d={d!r} l={l!r}, shifted-square at tightened spec",
                ref.ratio_to_casimir - other.ratio_to_casimir,
                ref.error_estimate + other.error_estimate,
            )
        return out


class ClosedFormCli:
    """In-process cli.main(["sweep", ...]) over three closed-form quantities.

    Many cheap points, bound by plumbing and I/O, with no quadrature after
    set-up: the opposite use of the sweep layer to iso_sweep.  It shows
    the cost a sweep/CLI refactor or a per-call overhead of a new engine
    puts on cheap points.
    """

    name = "closed_form_cli"
    expect_nonzero = (
        "lifshitz.thin_calls",
        "lifshitz.local_calls",
        "validity.report_calls",
        "validity.report_s",
        "sweep.points",
        "sweep.eval_s",
        "sweep.self_s",
        "sweep.write_s",
        "sweep.bytes_written",
        "cli.self_s",
    )
    # quantity: ((axis name, start, stop, points), ...), log-spaced.
    grids = {
        "iso_thin": (("d", 2.0, 50.0, 200), ("l", 200.0, 5000.0, 200)),
        # Both ranges straddle c/(2 omega_p) = 7.49 nm, so each flag
        # takes both values.
        "validity": (("d", 2.0, 200.0, 40), ("l", 2.0, 5000.0, 40)),
        "lifshitz_local": (("l", 100.0, 10000.0, 2000),),
    }

    def inputs(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        return {
            quantity: [
                (name, lo * rng.uniform(0.97, 1.03), hi * rng.uniform(0.97, 1.03), n)
                for name, lo, hi, n in axes
            ]
            for quantity, axes in self.grids.items()
        }

    def _out(self, workdir: Path, quantity: str) -> Path:
        return workdir / f"{quantity}.csv"

    def argv(self, inp: dict, workdir: Path) -> list[list[str]]:
        commands = []
        for quantity, axes in inp.items():
            argv = ["sweep", "--quantity", quantity]
            for name, lo, hi, n in axes:
                argv += ["--axis", f"{name}:{lo!r}:{hi!r}:{n}:log"]
            commands.append(argv + ["--out", str(self._out(workdir, quantity))])
        return commands

    def run(self, inp: dict, workdir: Path):
        with contextlib.redirect_stdout(io.StringIO()):
            return [cli.main(argv) for argv in self.argv(inp, workdir)]

    def _rows(self, axes) -> int:
        return math.prod(n for _, _, _, n in axes)

    def expected_ops(self, inp: dict) -> int:
        return sum(self._rows(axes) for axes in inp.values())

    def summarize(self, inp: dict, codes, workdir: Path) -> PassSummary:
        points = first = 0  # first: index of the quantity's first operation
        failed_ops = set()
        paths = []
        for (quantity, axes), code in zip(inp.items(), codes):
            path = self._out(workdir, quantity)
            n = self._rows(axes)
            if code != 0:
                failed_ops.update(range(first, first + n))
            else:
                rows, flagged = _count_rows(path)
                points += rows
                failed_ops.update(first + j for j in flagged)
                paths += [path, Path(str(path) + ".manifest.json")]
            first += n
        return PassSummary(
            points=points,
            failed_ops=frozenset(failed_ops),
            values=(tuple(codes), _digest(*paths)),
        )

    def check(self, inp: dict, summary: PassSummary, workdir: Path) -> CheckSummary:
        out = CheckSummary()
        codes = summary.values[0]
        tables = {
            quantity: _read_csv(self._out(workdir, quantity))
            for quantity, code in zip(inp, codes)
            if code == 0
        }
        for quantity, axes in inp.items():
            rows = tables.get(quantity, [])
            out.expect(f"{quantity}: {len(rows)} rows written", len(rows) == self._rows(axes))
        force_rows = tables.get("iso_thin", []) + tables.get("lifshitz_local", [])
        out.max_err_est = max(
            (float(r["error_estimate"]) for r in force_rows), default=0.0
        )
        coefficient = thin_limit_coefficient_mpmath()
        eps_tilde = ISO_EPS_B / 2.0  # free-standing: eps_sub = eps_sup = 1
        skin = C_NM_PER_S / OMEGA_P
        for row in tables.get("iso_thin", []):
            d, l = float(row["d_nm"]), float(row["l_nm"])
            corr = coefficient * skin / math.sqrt(eps_tilde * d * l)
            self._compare_ratio(out, f"iso_thin d={d} l={l}", row, corr)
        for row in tables.get("lifshitz_local", []):
            l = float(row["l_nm"])
            self._compare_ratio(out, f"lifshitz_local l={l}", row, 16.0 * skin / (3.0 * l))
        for row in tables.get("validity", []):
            d, l = float(row["d_nm"]), float(row["l_nm"])
            flags = (row["d_ok"], row["l_ok"])
            want = (
                sweep.format_value(2.0 * d / skin > 1.0),
                sweep.format_value(skin / (2.0 * l) < 1.0),
            )
            out.expect(f"validity d={d} l={l}: flags {flags} != {want}", flags == want)
        return out

    @staticmethod
    def _compare_ratio(out: CheckSummary, what: str, row: dict, corr: float) -> None:
        """ratio == 1 - corr within the row's error estimate plus the
        rounding of the printed ratio, d and l (corr ~ (d l)^-1/2 or l^-1)."""
        ratio = float(row["ratio_to_casimir"])
        allowed = float(row["error_estimate"]) + CELL_ROUNDING * (abs(ratio) + 2.0 * corr)
        out.compare(what, ratio - (1.0 - corr), allowed)


def thin_limit_coefficient_mpmath() -> float:
    """The thin-limit coefficient C by an mpmath 1-D quadrature:
    15 sqrt(2)/pi^4 Gamma(9/2) zeta(7/2) int_1^inf (p^2+1)/(p^(7/2) (p^2-1)^(1/4)) dp.
    Tanh-sinh copes with the (p-1)^(-1/4) endpoint without a substitution."""
    import mpmath

    with mpmath.workdps(25):
        p_integral = mpmath.quad(
            lambda p: (p * p + 1) / (p ** 3.5 * (p * p - 1) ** 0.25), [1, 2, mpmath.inf]
        )
        scale = 15 * mpmath.sqrt(2) / mpmath.pi ** 4 * mpmath.gamma(4.5) * mpmath.zeta(3.5)
        return float(scale * p_integral)


WORKLOADS = {w.name: w for w in (Crossover(), IsoSweep(), ClosedFormCli())}
