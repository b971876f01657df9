"""The LAPACK binding: scipy's `_flapack` extension loaded by path, one instance.

In this test process `conftest.py` imports dipolespec before any test module
imports `scipy.linalg`, so the import set and the order of imports are
checked in fresh interpreters.
"""

import ast
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import PINNED_TABLES

SRC = str(Path(__file__).resolve().parents[1] / "src")
ROUTINES = ("dgttrf", "dgttrs", "dpttrf", "dpttrs", "dstebz")

README_COMMANDS = [
    ("spectrum", "--dim", "3", "--potential", "dipole:1.0", "--count", "20"),
    ("hardy", "--dim", "4", "--potential", "constant:1", "--grid", "2000"),
    ("hardy", "--table", "3..10", "--grid", "10000"),
    ("sigma", "--dim", "4", "--mu", "0"),
    ("radial", "--dim", "3", "--mu", "2", "--perturbation", "manufactured:1.5"),
    ("cauchy", "--scenario", "manufactured-radial", "--radii", "0.3,0.6,0.9"),
    ("cauchy", "--scenario", "manufactured-nonradial", "--limit-table"),
    ("sandwich", "--grid", "800"),
    ("bk", "--dim", "4", "--s", "3", "--n", "200"),
]
PINS = [(argv, dict(PINNED_TABLES)[argv]) for argv in (
    ("spectrum", "--dim", "3", "--count", "20", "--grid", "400"),
    ("hardy", "--table", "3..5", "--grid", "2000", "--method", "both", "--format", "json"),
)]
# printed numbers that no BLAS call reaches: the Hardy pencil and the Weyl fit
KERNEL_PINS = [PINS[1]] + [(argv, dict(PINNED_TABLES)[argv]) for argv in (
    ("spectrum", "--dim", "4", "--potential", "constant:0.5", "--count", "120", "--grid", "300",
     "--format", "json"),
)]

# runs `main(argv)` after importing the modules named in argv[1] (comma-separated),
# then writes to stderr whether the five routines are scipy.linalg.lapack's own,
# or None where scipy.linalg was never imported, the scipy modules loaded and
# which of numpy.polynomial and numpy.random were imported
CHILD = """
import importlib, sys
for name in filter(None, sys.argv[1].split(",")):
    importlib.import_module(name)
from dipolespec import _lapack
from dipolespec.cli import main
code = main(sys.argv[2:])
lapack = sys.modules.get("scipy.linalg.lapack")
same = None if lapack is None else (
    lapack._flapack is _lapack._flapack is sys.modules["scipy.linalg._flapack"]
    and all(getattr(lapack, f) is getattr(_lapack, f) for f in %r))
sys.stderr.write(repr((same, sorted(m for m in sys.modules if m.startswith("scipy")),
                       [m for m in ("numpy.polynomial", "numpy.random") if m in sys.modules])))
sys.exit(code)
""" % (ROUTINES,)


def child(first, *argv, code=CHILD, **environ):
    env = {**os.environ, **environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", code, first, *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, ast.literal_eval(proc.stderr)


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_a_command_loads_the_extension_alone(argv):
    # and neither numpy.polynomial, whose import costs ~5 ms (angular writes its
    # Gauss rule out), nor numpy.random, ~17 ms (angular hashes its start vector)
    _, (same, modules, numpy_modules) = child("", *argv)
    assert same is None and modules == ["scipy.linalg._flapack"] and numpy_modules == []


@pytest.mark.parametrize("argv,digest", PINS, ids=[argv[0] for argv, _ in PINS])
def test_a_fresh_process_keeps_the_pinned_bytes(argv, digest):
    out, (_, modules, _) = child("", *argv)
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert modules == ["scipy.linalg._flapack"]


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="OPENBLAS_CORETYPE names x86-64 kernels")
@pytest.mark.parametrize("argv,digest", KERNEL_PINS, ids=[argv[0] for argv, _ in KERNEL_PINS])
def test_another_blas_kernel_keeps_the_pinned_bytes(argv, digest):
    out, _ = child("", *argv, OPENBLAS_CORETYPE="Prescott")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("first", ["scipy.linalg", "dipolespec.cli,scipy.linalg"])
def test_one_instance_in_either_import_order(first):
    argv, digest = PINS[0]
    out, (same, modules, _) = child(first, *argv)
    assert same is True and "scipy.linalg" in modules
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# drops the module that importing dipolespec loaded, then asks the loader for it
# under a scipy directory that holds no extension
FALLBACK = """
import sys
from dipolespec import _lapack
del sys.modules["scipy.linalg._flapack"]
module = _lapack.load_flapack(sys.argv[1])
import scipy.linalg
sys.stderr.write(repr((module is sys.modules["scipy.linalg._flapack"] is scipy.linalg._flapack,
                       module.__file__ == _lapack._flapack.__file__)))
"""


def test_without_the_file_the_ordinary_import_loads_it(tmp_path):
    (tmp_path / "linalg").mkdir()
    _, result = child(str(tmp_path), code=FALLBACK)
    assert result == (True, True)
