"""The benchmark's tracer rebinds these names; a simplification that drops one
fails here, in the unit tests, and not only as a TraceError of a benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tables():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, name)
            for table in (tracer.PACKAGE_FUNCTIONS, tracer.SCIPY_FUNCTIONS)
            for module, names in table.items() for name in names]


@pytest.mark.parametrize("module,name", _tables())
def test_traced_name_is_bound(module, name):
    assert callable(getattr(importlib.import_module(f"dipolespec.{module}"), name, None))
