"""The benchmark's tracer rebinds these names; a simplification that drops one
fails here, in the unit tests, and not only as a TraceError of a benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from dipolespec.asymptotics import manufactured_nonradial, synthesize_solution
from dipolespec.radial import RadialPerturbation, solve_mode_picard

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _tables():
    tracer = _tracer()
    return [(module, name)
            for table in (tracer.PACKAGE_FUNCTIONS, tracer.SCIPY_FUNCTIONS)
            for module, names in table.items() for name in names]


@pytest.mark.parametrize("module,name", _tables())
def test_traced_name_is_bound(module, name):
    assert callable(getattr(importlib.import_module(f"dipolespec.{module}"), name, None))


def _fields(spectrum, rgrid):
    grid = spectrum.grid
    prof = solve_mode_picard(3, spectrum.mu_1, RadialPerturbation.power(0.4, 1.5), 1.0, rgrid)
    g = 0.3 * spectrum.axisymmetric_mode(2).psi
    return {
        "asymptotics.synthesize_solution": synthesize_solution([(1, prof)], spectrum),
        "asymptotics.manufactured_nonradial": manufactured_nonradial(spectrum, 1.0, g, rgrid),
    }


def test_field_bytes_hooks_count_the_factors(dipole3_spectrum, radial_grid):
    hooks = _tracer().HOOKS
    for name, field in _fields(dipole3_spectrum, radial_grid).items():
        factors = (field.u.radial, field.u.angular, field.source.radial, field.source.angular)
        counted = hooks[name](field)["asymptotics.field_bytes"]
        assert isinstance(counted, int)
        assert counted == sum(a.nbytes for a in factors)
        assert counted < radial_grid.size * dipole3_spectrum.grid.size * np.float64().nbytes
