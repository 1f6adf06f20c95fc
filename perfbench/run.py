"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload crossover --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
./src.  The process runs on one thread.  Set-up is timed in fresh
interpreters; the workload is then timed in passes with warm caches for
--seconds, and its outputs are checked after timing.  --trace 0 reports
the end-to-end metrics; --trace 1 reports the per-layer metrics of a
traced run, together with the untraced passes it is compared against.
The last line of standard output is the result object.
"""

from __future__ import annotations

import os

# One thread for every numeric library, set before any of them loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_REPEATS = 5

# What a user pays before the first result: a fresh interpreter imports
# the package and fills its lazy cache (the thin-limit coefficient C).
SETUP_CHILD = """\
import json, time
t0 = time.perf_counter()
import casimir_slabs
t1 = time.perf_counter()
casimir_slabs.thin_limit_coefficient()
t2 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1]))
"""

WORKLOAD_NAMES = ("crossover", "iso_sweep", "closed_form_cli")


def measure_setup(repeats: int) -> dict[str, float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls, imports, first_uses = [], [], []
    for _ in range(repeats):
        start = perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        walls.append(perf_counter() - start)
        import_s, first_use_s = json.loads(done.stdout.strip().splitlines()[-1])
        imports.append(import_s)
        first_uses.append(first_use_s)
    return {
        "setup_s": statistics.median(walls),
        "setup.import_s": statistics.median(imports),
        "setup.first_use_s": statistics.median(first_uses),
    }


class Passes:
    """Timed passes of one workload and everything they produced.

    Every pass attempts the same operations; one counts as failed if it
    failed in any pass, so the failed share does not depend on how many
    passes fit in the time.
    """

    def __init__(self, workload, inputs: dict, workdir: Path) -> None:
        self.workload, self.inputs, self.workdir = workload, inputs, workdir
        self.walls: list[float] = []
        self.summaries = []
        self.ops = workload.expected_ops(inputs)
        self.failed_ops: set[int] = set()

    def one(self, tracer=None) -> None:
        w = self.workload
        if tracer is not None:
            tracer.install()
        start = perf_counter()
        try:
            result = w.run(self.inputs, self.workdir)
        except Exception:  # a failed operation is counted, not fatal
            self.walls.append(perf_counter() - start)
            traceback.print_exc()
            self.failed_ops.update(range(self.ops))
            return
        finally:
            if tracer is not None:
                tracer.remove()
        self.walls.append(perf_counter() - start)
        summary = w.summarize(self.inputs, result, self.workdir)
        self.summaries.append(summary)
        self.failed_ops |= summary.failed_ops

    def for_seconds(self, seconds: float, min_passes: int, tracer_factory=None):
        """Run ``min_passes`` passes, then more while the next one is
        expected to end within ``seconds``; returns the tracers used."""
        tracers = []
        start = perf_counter()
        for n in itertools.count(1):
            tracer = tracer_factory() if tracer_factory else None
            self.one(tracer)
            if tracer is not None:
                tracers.append(tracer)
            if n >= min_passes and perf_counter() - start + self.walls[-1] > seconds:
                return tracers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "casimir_slabs" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer" if args.trace else "end_to_end"]
    setup = measure_setup(SETUP_REPEATS)

    sys.path.insert(0, str(SRC))
    import casimir_slabs
    import tracing
    import workloads

    casimir_slabs.thin_limit_coefficient()  # fill the lazy cache before timing
    workload = workloads.WORKLOADS[args.workload]
    workdir = WORK / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = workload.inputs(args.seed)
    passes = Passes(workload, inputs, workdir)

    tracers = []
    if args.trace:
        passes.for_seconds(args.seconds / 2, 1)
        untraced = len(passes.walls)
        tracers = passes.for_seconds(args.seconds / 2, 2, tracing.Tracer)
    else:
        passes.for_seconds(args.seconds, 1)
        untraced = len(passes.walls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed = passes.ops, len(passes.failed_ops)
    messages = []
    if passes.summaries:
        checks = workload.check(inputs, passes.summaries[0], workdir)
        attempted += checks.attempted
        failed += checks.failed
        messages += checks.messages
        # Every pass, traced or not, must compute the same values.
        attempted += 1
        if any(s.values != passes.summaries[0].values for s in passes.summaries):
            failed += 1
            messages.append("passes computed different values")
    else:
        checks = workloads.CheckSummary()

    wall_s = statistics.median(passes.walls[:untraced])
    if args.trace:
        layer = [t.metrics() for t in tracers]
        counts = [{n: m[n] for n in tracing.DETERMINISTIC} for m in layer]
        attempted += 1
        if any(c != counts[0] for c in counts):
            failed += 1
            messages.append("counts differ between traced passes of one seed")
        metrics = tracing.combine(layer)
        for name in workload.expect_nonzero:
            attempted += 1
            if not metrics[name]:
                failed += 1
                messages.append(f"missing: {name} reads 0 on {workload.name}")
        traced_wall = statistics.median(passes.walls[untraced:])
        metrics.update({
            "setup.import_s": setup["setup.import_s"],
            "setup.first_use_s": setup["setup.first_use_s"],
            "check.max_dev_over_err": checks.max_dev_over_err,
            "trace.overhead_frac": traced_wall / wall_s - 1.0,
        })
        spans_path = workdir / "spans.jsonl"
        with open(spans_path, "w") as handle:
            for i, tracer in enumerate(tracers):
                for span in tracer.spans:
                    handle.write(json.dumps([i, *span]) + "\n")
    else:
        points = passes.summaries[0].points if passes.summaries else 0
        metrics = {
            "wall_s": wall_s,
            "setup_s": setup["setup_s"],
            "points_per_s": points / wall_s,
            "ok_frac": 1.0 - failed / attempted,
            "max_err_est": checks.max_err_est,
            "peak_rss_mb": peak_rss_mb,
        }
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json"
        )

    print(f"pass walls, s: untraced {passes.walls[:untraced]}, "
          f"traced {passes.walls[untraced:]}", file=sys.stderr)
    for message in messages:
        print(f"FAILED {message}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
