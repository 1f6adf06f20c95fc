"""The benchmark's tracer wraps package functions by name: a rename must
fail here, not as a LookupError in a benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(tracing.PACKAGE, module, attr) for module, attr, *_ in tracing.LAYERS]


@pytest.mark.parametrize("package, module, attr", _layers())
def test_traced_layer_is_a_package_function(package, module, attr):
    owner = importlib.import_module(f"{package}.{module}")
    assert callable(getattr(owner, attr, None)), f"{package}.{module}.{attr}"
