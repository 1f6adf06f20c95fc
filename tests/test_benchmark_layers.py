"""The benchmark's tracer wraps package functions by name, and each
workload names the metrics it must report: a rename must fail here, not
as a LookupError or a ``missing:`` line in a benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


def _layers():
    return [(tracing.PACKAGE, module, attr) for module, attr, *_ in tracing.LAYERS]


@pytest.mark.parametrize("package, module, attr", _layers())
def test_traced_layer_is_a_package_function(package, module, attr):
    owner = importlib.import_module(f"{package}.{module}")
    assert callable(getattr(owner, attr, None)), f"{package}.{module}.{attr}"


@pytest.mark.parametrize("workload", workloads.WORKLOADS.values(),
                         ids=lambda workload: workload.name)
def test_expected_metrics_are_reported(workload):
    reported = set(tracing.PASS_METRICS) | set(tracing.RUN_METRICS)
    assert set(workload.expect_nonzero) <= reported


def test_warm_crossover_passes_report_the_same_nonzero_work(fast_spec):
    # The node-block caches live as long as one (l, R) search, so every
    # warm pass of the same searches counts the same work, none of it zero:
    # a cache that outlived its search would read zero here first.
    import casimir_slabs as cs

    array = cs.NanotubeArraySlab(omega_p3d=2.0e16, radius_R=2.0, thickness_d=100.0,
                                 eps_b=10.0)

    def one_pass():  # through the package's name, which the tracer wraps
        for l in (1000.0, 1100.0):
            cs.crossover_thickness(array, l, (4.0, 100.0), fast_spec)

    one_pass()  # caches the main terms
    passes = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            one_pass()
        finally:
            tracer.remove()
        passes.append(tracer.metrics())
    names = workloads.Crossover.expect_nonzero
    assert [name for name in names if not passes[0][name] > 0] == []
    assert [name for name in names if not passes[1][name] > 0] == []
    counts = [name for name in names if name in tracing.DETERMINISTIC]
    assert [passes[0][n] for n in counts] == [passes[1][n] for n in counts]
