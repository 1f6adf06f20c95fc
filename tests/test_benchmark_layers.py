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


def _layers():
    return [(tracing.PACKAGE, module, attr) for module, attr, *_ in tracing.LAYERS]


@pytest.mark.parametrize("package, module, attr", _layers())
def test_traced_layer_is_a_package_function(package, module, attr):
    owner = importlib.import_module(f"{package}.{module}")
    assert callable(getattr(owner, attr, None)), f"{package}.{module}.{attr}"


@pytest.mark.parametrize("workload", _load("workloads").WORKLOADS.values(),
                         ids=lambda workload: workload.name)
def test_expected_metrics_are_reported(workload):
    reported = set(tracing.PASS_METRICS) | set(tracing.RUN_METRICS)
    assert set(workload.expect_nonzero) <= reported
