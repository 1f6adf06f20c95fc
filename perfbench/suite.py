"""Run every workload over several seeds and summarise each metric.

    python3 perfbench/suite.py --seeds 1 --trace-seeds 1

prints every end-to-end and per-layer metric of every workload by name
and unit.  With more seeds it also gives each metric's median, quartiles
and spread (interquartile range over median) against the bound set in
BENCHMARK.json:

    python3 perfbench/suite.py --seeds 10 --trace-seeds 2 \
        --out perfbench/results/BENCH_<label>.json

Runs are sequential, one run.py process at a time, from the root of the
checkout.  The results file records the machine and every run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_at_start": list(os.getloadavg()),
        "git_commit": commit,
        "cpu_pinning": "none; no frequency control; spread is measured instead",
    }


def run_once(command: list[str], workload: str, seed: int, seconds: int,
             trace: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    record = {"seed": seed, "trace": trace, "exit": done.returncode,
              "elapsed_s": time.perf_counter() - start}
    if done.returncode != 0 or not done.stdout.strip():
        record["error"] = done.stderr[-2000:]
        return record
    record.update(json.loads(done.stdout.strip().splitlines()[-1]))
    if done.stderr.strip():
        record["stderr"] = done.stderr[-2000:]
    return record


def summarise(runs: list[dict], declared: list[dict]) -> dict:
    out = {}
    for metric in declared:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs
                  if name in r.get("metrics", {})]
        entry = {"unit": metric["unit"], "better": metric["better"], "values": values}
        if "bound" in metric:
            entry["bound"] = metric["bound"]
        if values:
            entry["median"] = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3)
            if entry["median"]:
                entry["spread"] = (q3 - q1) / abs(entry["median"])
        out[name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10,
                        help="untraced runs with seeds 1..N")
    parser.add_argument("--trace-seeds", type=int, default=1,
                        help="traced runs with seeds 1..N")
    parser.add_argument("--out", help="results file to write")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    seeds = list(range(1, args.seeds + 1))
    trace_seeds = list(range(1, args.trace_seeds + 1))
    report = {
        "machine": machine_record(),
        "run_seconds": seconds,
        "seeds": seeds,
        "trace_seeds": trace_seeds,
        "workloads": {},
    }

    ok = True
    for workload in workloads:
        runs = [run_once(bench["command"], workload, s, seconds, 0) for s in seeds]
        traced = [run_once(bench["command"], workload, s, seconds, 1)
                  for s in trace_seeds]
        entry = {
            "end_to_end": summarise(runs, bench["end_to_end"]),
            "per_layer": summarise(traced, bench["per_layer"]),
            "runs": runs + traced,
        }
        report["workloads"][workload] = entry
        print(f"== {workload}: {len(runs)} untraced, {len(traced)} traced runs",
              flush=True)
        for r in runs + traced:
            status = "ok" if r.get("correct") else "FAILED"
            ok &= status == "ok"
            print(f"   seed {r['seed']} trace {r['trace']}: {status}, "
                  f"{r.get('failed', '-')}/{r.get('attempted', '-')} failed, "
                  f"{r['elapsed_s']:.1f} s" + (f"\n{r['error']}" if "error" in r else ""))
        for kind in ("end_to_end", "per_layer"):
            for name, m in entry[kind].items():
                if "median" not in m:
                    continue
                line = f"   {name:34s} {m['median']:<14.6g} {m['unit']:6s}"
                if "spread" in m:
                    line += f" spread {m['spread']:.3f}"
                    if "bound" in m:
                        line += f" (bound {m['bound']})"
                print(line, flush=True)

    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
        print(f"results written to {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
