"""The package's one binding to LAPACK: scipy's f2py extension `scipy.linalg._flapack`.

Importing `scipy.linalg` to reach five routines (dgttrf, dgttrs, dpttrf,
dpttrs, dstebz) would cost about 150 ms of every command's
start and some 20 MB of memory, spent on modules that no command uses.  The
extension is loaded instead straight from scipy's package directory, found with
`importlib.util.find_spec("scipy")`, which runs neither `scipy/__init__` nor
`scipy/linalg/__init__`.  It is registered in `sys.modules` under its own
name, so a later `import scipy.linalg` reuses it; if `scipy.linalg` came
first, its instance is the one used.  Either way the routines here are the
objects `scipy.linalg.lapack` exports: the same library, arguments and bits.
Where the file is not found, the ordinary import loads the module.

`eigvalsh_tridiagonal` makes the LAPACK call that the scipy.linalg function
of that name makes for the arguments this package passes, with scipy's finite
check of the inputs.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

_FLAPACK = "scipy.linalg._flapack"


def load_flapack(scipy_dir: str):
    """The module `scipy.linalg._flapack`: the one already imported, else the
    extension file under `scipy_dir`/linalg loaded by path, else the ordinary import."""
    if _FLAPACK in sys.modules:
        return sys.modules[_FLAPACK]
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(scipy_dir, "linalg", "_flapack" + suffix)
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader(_FLAPACK, path)
            spec = importlib.util.spec_from_file_location(_FLAPACK, path, loader=loader)
            module = importlib.util.module_from_spec(spec)
            sys.modules[_FLAPACK] = module
            loader.exec_module(module)
            return module
    return importlib.import_module(_FLAPACK)


_scipy = importlib.util.find_spec("scipy")
_flapack = load_flapack(_scipy.submodule_search_locations[0] if _scipy else "")
dgttrf, dgttrs, dpttrf, dpttrs, dstebz = (
    _flapack.dgttrf, _flapack.dgttrs, _flapack.dpttrf, _flapack.dpttrs, _flapack.dstebz)


def eigvalsh_tridiagonal(d, e, select: str, select_range, tol: float = 0.0) -> np.ndarray:
    """Eigenvalues of the symmetric tridiagonal matrix (d, e), ascending, by one dstebz call.

    `select_range` is (lo, hi): with select "v" the values in (lo, hi], with
    select "i" the indices lo..hi, 0-based.  `tol` is dstebz's absolute
    tolerance (0: its default, eps ||T||_1).  A nonzero LAPACK info is a
    LinAlgError.
    """
    d, e = np.asarray_chkfinite(d), np.asarray_chkfinite(e)
    lo, hi = select_range
    bounds = (1, lo, hi, 1, 1) if select == "v" else (2, 0.0, 1.0, lo + 1, hi + 1)
    found, w, _, _, info = dstebz(d, e, *bounds, tol, "E")
    if info != 0:
        raise np.linalg.LinAlgError(f"dstebz (eigvalsh_tridiagonal) failed (LAPACK info {info})")
    return w[:found]

