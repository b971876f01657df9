"""Batch command-line front end.

Everything is seedless and deterministic: identical invocations produce
byte-identical primary output.  CSV prints floats to 10 significant digits,
JSON as their repr: json.dumps writes the whole document, and only the
records of a `_Table` go through one % template.  Exit codes: 0 success,
2 input error (including unknown flags, which argparse reports with usage
text on stderr, and an unwritable --out), 3 numerical failure as defined by
the operation contracts or out of memory.

The default polar grid size is 10000 and can be overridden with the
DIPOLESPEC_GRID_M environment variable.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import angular, asymptotics, brezis_kato, hardy, radial
from .errors import InputError, NumericalError
from .exponents import classical_hardy_constant, sigma_pair

GRID_ENV = "DIPOLESPEC_GRID_M"


def default_grid_size() -> int:
    raw = os.environ.get(GRID_ENV, "10000")
    return _integer(raw, f"{GRID_ENV}={raw}")


def _finite(text: str, spec: str) -> float:
    """One finite number of a spec; anything else is an input error."""
    try:
        value = float(text)
    except ValueError as exc:
        raise InputError(f"malformed number {text!r} in {spec!r}") from exc
    if not math.isfinite(value):
        raise InputError(f"non-finite number {text!r} in {spec!r}")
    return value


def _integer(text: str, spec: str) -> int:
    """One integer of a spec, within +-2^53 (where float64 still holds every integer)."""
    try:
        value = int(text)
    except ValueError as exc:
        raise InputError(f"malformed integer {text!r} in {spec!r}") from exc
    if abs(value) > 2**53:
        raise InputError(f"integer outside +-2^53 in {spec!r}")
    return value


def _int_flag(parser, flag: str, **kwargs) -> None:
    """An integer flag whose malformed or out-of-range values are input errors."""
    parser.add_argument(flag, type=lambda text: _integer(text, f"{flag} {text}"), **kwargs)


def _float_flag(parser, flag: str, **kwargs) -> None:
    """A float flag whose malformed or non-finite values are input errors."""
    parser.add_argument(flag, type=lambda text: _finite(text, f"{flag} {text}"), **kwargs)


def parse_potential(spec: str, grid: angular.PolarGrid) -> angular.AngularPotential:
    """'constant:K' | 'dipole:L' | 'table:PATH' (one sample per line)."""
    kind, _, arg = spec.partition(":")
    if kind == "constant":
        return angular.AngularPotential.constant(_finite(arg, spec))
    if kind == "dipole":
        return angular.AngularPotential.dipole(_finite(arg, spec))
    if kind == "table":
        try:
            with warnings.catch_warnings():  # an empty file is the size mismatch below
                warnings.simplefilter("ignore", UserWarning)
                values = np.loadtxt(arg, ndmin=1)
        except OSError as exc:
            raise InputError(f"cannot read potential table {arg!r}: {exc}") from exc
        except ValueError as exc:
            raise InputError(f"malformed potential table {arg!r}: {exc}") from exc
        return angular.AngularPotential.tabulated(values, grid)
    raise InputError(f"unknown potential spec {spec!r}")


def parse_perturbation(spec: str, N: int, sigma: float) -> radial.RadialPerturbation:
    """'zero' | 'power:C,EPS' | 'manufactured:BETA[,SIGMA]'."""
    kind, colon, arg = spec.partition(":")
    if kind == "zero":
        if colon:
            raise InputError(f"perturbation 'zero' takes no argument, got {spec!r}")
        return radial.RadialPerturbation.zero()
    if kind not in ("power", "manufactured"):
        raise InputError(f"unknown perturbation spec {spec!r}")
    parts = [_finite(x, spec) for x in arg.split(",")]
    if len(parts) > 2 or (kind == "power" and len(parts) < 2):
        raise InputError(f"malformed perturbation spec {spec!r}")
    if kind == "power":
        return radial.RadialPerturbation.power(*parts)
    sig = parts[1] if len(parts) > 1 else sigma
    return radial.RadialPerturbation.manufactured(parts[0], sig, N)


def parse_dims(spec: str):
    """Inclusive range syntax 'a..b' or a single dimension, as a range."""
    bounds = spec.split("..")
    lo, hi = _integer(bounds[0], spec), _integer(bounds[-1], spec)
    if len(bounds) > 2 or hi < lo:
        raise InputError(f"malformed or empty dimension range {spec!r}")
    return range(lo, hi + 1)


@dataclass(frozen=True)
class _Table:
    """A table by column: comma-separated names, one scalar sequence or numeric array each."""

    header: str
    columns: list


def _values(column) -> list:
    """A column's values as Python scalars."""
    return column.tolist() if isinstance(column, np.ndarray) else column


def _nonfinite(value) -> bool:
    """Whether a NaN or an infinity sits anywhere in a JSON-like value or a table."""
    if isinstance(value, np.ndarray):
        return not np.isfinite(value).all()
    if isinstance(value, _Table):
        value = value.columns
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return any(map(_nonfinite, value))
    return isinstance(value, float) and not math.isfinite(value)


def _conversion(kind: type) -> str:
    """The printf conversion of a column's value type: every float prints with 10 significant digits."""
    if kind is type(None):
        return "%.0s"  # an empty field
    if issubclass(kind, str):
        return "%s"
    if issubclass(kind, int):
        return "%d"
    return "%.10g"


def _csv_lines(columns: list, sep: str) -> list[str]:
    """The rows as CSV lines through one template of the columns' value types, one type each."""
    kinds = [set(map(type, column)) or {str} for column in columns]  # an empty column has no rows
    if any(len(k) > 1 for k in kinds):
        raise TypeError(f"a CSV column mixes {sorted(k.__name__ for k in max(kinds, key=len))}")
    return list(map(sep.join(_conversion(k) for k, in kinds).__mod__, zip(*columns)))


def _json_column(values: list) -> list[str]:
    """The JSON texts of a column: all floats (after one finiteness pass) or all ints
    in one map of their type's __repr__, any other column by json.dumps value by value."""
    kinds = set(map(type, values))
    if all(issubclass(kind, float) for kind in kinds):
        if not all(map(math.isfinite, values)):
            raise ValueError("Out of range float values are not JSON compliant")
        return list(map(float.__repr__, values))
    if kinds == {int}:
        return list(map(int.__repr__, values))
    return [json.dumps(value, allow_nan=False) for value in values]


def _json_records(table: _Table, indent: str) -> str:
    """The table as json.dumps writes its list of records at `indent`, through one % template."""
    names = table.header.split(",")
    order = sorted(range(len(names)), key=names.__getitem__)
    columns = [_json_column(_values(table.columns[i])) for i in order]
    item, field = "\n" + indent + "  ", "\n" + indent + "    "
    keys = [json.dumps(names[i]).replace("%", "%%") + ": %s" for i in order]
    template = "{" + field + ("," + field).join(keys) + item + "}"
    rows = list(map(template.__mod__, zip(*columns)))
    return "[" + item + ("," + item).join(rows) + "\n" + indent + "]" if rows else "[]"


# a table's placeholder string, NUL and the table's index, as the last value of its line
_PLACEHOLDER = re.compile(r'"\\u0000\d+"(?=,?$)', re.M)


def _json(value) -> str:
    """json.dumps(value, indent=2, sort_keys=True, allow_nan=False), a `_Table` as its records.

    json.dumps writes each table as a placeholder string (no argv string
    holds a NUL), which `_json_records` then replaces at the indentation
    of its line: the indenting encoder would take a dict per row.  A string
    that reads as a placeholder next to a table raises ValueError.
    """
    tables = []

    def placeholder(obj) -> str:
        if not isinstance(obj, _Table):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        tables.append(obj)
        return f"\0{len(tables) - 1}"

    text = json.dumps(value, indent=2, sort_keys=True, allow_nan=False, default=placeholder)
    pieces = _PLACEHOLDER.split(text)
    if len(pieces) != len(tables) + 1:
        raise ValueError("a string of the document reads as a table placeholder")
    for i, table in enumerate(tables):
        line = pieces[2 * i].rpartition("\n")[2]
        pieces.insert(2 * i + 1, _json_records(table, line[:len(line) - len(line.lstrip(" "))]))
    return "".join(pieces)


# parsed arguments that route the output, not the computation
_ROUTING = ("command", "format", "out")


def _emit_doc(args, results: dict, table: _Table | None = None, sep: str = ",",
              command: str | None = None) -> None:
    """The JSON document (always, if table is None), or the CSV header (if any) and rows.

    The document records as inputs every parsed argument that was set,
    except the routing ones, and `results` as they are: a `_Table` among
    them is written as records keyed by its column names, and `table` is
    the CSV only.  A NaN or an infinity among the results or the table
    (checked by column) is a numerical failure: JSON has neither.
    """
    command = command or args.command
    if _nonfinite([results, table]):
        raise NumericalError(f"{command} produced a non-finite result")
    if table is None or args.format == "json":
        inputs = {k: v for k, v in vars(args).items() if k not in _ROUTING and v is not None}
        doc = {"command": command, "inputs": inputs, "results": results}
        lines = [_json(doc)]
    else:
        columns = list(map(_values, table.columns))
        lines = ([table.header] if table.header else []) + _csv_lines(columns, sep)
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {args.out!r}: {exc.strerror or exc}") from exc


def _fields(result) -> dict:
    """A result object's fields as JSON results, in a new dict (the values are not copied)."""
    return dict(vars(result))


def cmd_spectrum(args) -> int:
    grid = angular.PolarGrid.build(args.dim, args.grid, args.sampling)
    potential = parse_potential(args.potential, grid)
    spec = angular.full_spectrum(potential, args.count, grid)
    flat = spec.flattened()[: args.count]
    results = {
        "eigenvalues": [float(v) for v in flat],
        "mu_1": spec.mu_1,
        "weyl": None,
        "sup_ratio": None,
    }
    if flat.size >= 100:
        try:
            results["weyl"] = _fields(angular.weyl_fit(spec))
        except NumericalError:
            pass
    try:
        results["sup_ratio"] = angular.eigenfunction_sup_ratio(spec)
    except InputError:
        pass
    _emit_doc(args, results, _Table("k,mu", [range(1, flat.size + 1), flat]))
    return 0


def cmd_hardy(args) -> int:
    if args.dims is not None:
        return _hardy_table(args)
    grid = angular.PolarGrid.build(args.dim, args.grid, args.sampling)
    potential = parse_potential(args.potential, grid)
    res = hardy.lambda_n(potential, grid)
    # the maximizer is axisymmetric, see the hardy module docstring
    results = {**_fields(res), "maximizer_tower": 0}
    columns = [[res.lambda_n], [res.critical_coupling], [0]]
    _emit_doc(args, results, _Table("lambda_n,critical_coupling,maximizer_tower", columns))
    return 0


def _hardy_table(args) -> int:
    methods = ["pencil", "bisection"] if args.method == "both" else [args.method]
    rows = []
    # every grid builds before any solve, so an N too large fails at once
    grids = [angular.PolarGrid.build(N, args.grid, args.sampling) for N in parse_dims(args.dims)]
    for grid in grids:  # buffered, deterministic row order
        guess = {}
        for method in methods:
            lam_star = hardy.critical_dipole_coupling(grid, method, **guess)
            # with --method both the pencil's coupling steers the bisection's
            # sweeps, never its bits (see critical_dipole_coupling)
            guess = {"guess": lam_star}
            rows.append((grid.dim, classical_hardy_constant(grid.dim), lam_star, method, args.grid))
    table = _Table("N,classical,dipole_inverse_lambda,method,grid", list(zip(*rows)))
    _emit_doc(args, {"rows": table}, table, command="hardy-table")
    return 0


def cmd_sigma(args) -> int:
    exps = sigma_pair(args.dim, args.mu)
    _emit_doc(args, _fields(exps), _Table("", [[exps.sigma_plus], [exps.sigma_minus]]), sep=", ")
    return 0


def cmd_radial(args) -> int:
    exps = sigma_pair(args.dim, args.mu)
    pert = parse_perturbation(args.perturbation, args.dim, exps.sigma_plus)
    grid = radial.RadialGrid.geometric(args.points, args.rmin, 1.0)
    prof = radial.solve_mode_picard(args.dim, args.mu, pert, args.c1, grid, args.tol)
    est = radial.limit_coefficient(prof)
    with np.errstate(divide="ignore", invalid="ignore"):  # a NaN is reported below
        scaled = prof.values / grid.points**exps.sigma_plus
    table = _Table("rho,phi,phi_over_rho_sigma", [grid.points, prof.values, scaled])
    results = {
        "limit_coefficient": est.value,
        "measured_limit": est.measured,
        "discrepancy": est.discrepancy,
        "c1_representation": prof.c1,
        "c2": prof.c2,
        "iterations": prof.iterations,
        "profile": table,
    }
    _emit_doc(args, results, table)
    return 0


def _cauchy_mode(scenario: str) -> int:
    """The axisymmetric mode whose functional a scenario reads (1 = ground)."""
    if scenario in ("manufactured-radial", "manufactured-nonradial"):
        return 1
    kind, _, arg = scenario.partition(":")
    if kind != "mode":
        raise InputError(f"unknown scenario {scenario!r}")
    k = _integer(arg, scenario)
    if k < 1:
        raise InputError(f"mode index must be >= 1 in {scenario!r}")
    return k


def _solution_field(args, scenario: str, k: int = 1):
    """The scenario's solution field: the manufactured nonradial one, or mode k alone.

    manufactured-radial is mode:1, the ground mode.  The field expands over
    the m = 0 modes among the --modes lowest sphere eigenvalues; the
    nonradial one needs two of them.  Its --eps is checked before any grid.
    """
    if scenario == "manufactured-nonradial":
        radial.check_eps(args.eps)
    grid = angular.PolarGrid.build(args.dim, args.grid, args.sampling)
    potential = parse_potential(args.potential, grid)
    spec = angular.axisymmetric_spectrum(potential, args.modes, grid)
    need = 2 if scenario == "manufactured-nonradial" else k
    if need > len(spec.modes):
        raise InputError(f"mode {need} needs a larger --modes: the {args.modes} lowest sphere "
                         f"eigenvalues include {len(spec.modes)} axisymmetric (m = 0) mode(s)")
    rgrid = radial.RadialGrid.geometric(args.points, args.rmin, 1.0)
    if scenario == "manufactured-nonradial":
        g = args.gscale * spec.axisymmetric_mode(2).psi
        return asymptotics.manufactured_nonradial(spec, args.eps, g, rgrid)
    mode = spec.axisymmetric_mode(k)
    sk = sigma_pair(args.dim, mode.mu).sigma_plus
    pert = radial.RadialPerturbation.manufactured(args.beta, sk, args.dim)
    prof = radial.solve_mode_picard(args.dim, mode.mu, pert, 1.0, rgrid)
    return asymptotics.synthesize_solution([(k, prof)], spec)


def cmd_cauchy(args) -> int:
    k = _cauchy_mode(args.scenario)
    if args.limit_table and k != 1:
        raise InputError("the convergence table applies to ground-mode scenarios")
    field = _solution_field(args, args.scenario, k)
    values = asymptotics.cauchy_coefficient_mode(field, args.radii, k)
    ref = values[0]
    spread = max(abs(v - ref) for v in values)
    rel_spread = spread / abs(ref) if ref != 0 else spread
    results = {
        "values": values,
        "spread": spread,
        "relative_spread": rel_spread,
        "limit_table": None,
    }
    table = _Table("R,value", [args.radii, values])
    if k == 1:
        limit = asymptotics.measured_limit(field)
        rows = _Table("rho,estimate,defect", list(zip(*limit.rows)))
        results["limit_table"] = {"estimate": limit.estimate, "rows": rows}
        if args.limit_table:
            table = rows
    _emit_doc(args, results, table)
    return 0


def cmd_sandwich(args) -> int:
    asymptotics.check_radius_fraction(args.radius_fraction)  # before any grid or solve
    field = _solution_field(args, "manufactured-nonradial")
    rep = asymptotics.sandwich_check(field, args.radius_fraction)
    results = _fields(rep)
    if math.isinf(rep.admissible_radius):  # unbounded (coercivity coefficient <= 0)
        results["admissible_radius"] = None
    _emit_doc(args, results)
    return 0


def cmd_bk(args) -> int:
    params = brezis_kato.BKParameters(
        dim=args.dim, s=args.s, v_norm=args.vnorm, ckn_constant=args.ckn,
        dist=args.dist, diam=args.diam, sigma=args.sigma,
    )
    table = brezis_kato.iteration_constants(params, args.n, args.printed_variant)
    rows = _Table("n,q_n,r_n,b_n,partial_sum,partial_product",
                  [np.array(column) for column in zip(*table.rows)])
    _emit_doc(args, {**_fields(table), "rows": rows}, rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser for the current DIPOLESPEC_GRID_M default, built once per process."""
    return _parser(default_grid_size())


@functools.lru_cache(maxsize=4)
def _parser(grid_default: int) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dipolespec",
        description="Spectral quantities of anisotropic inverse-square "
        "Schrodinger operators: sphere eigenvalues, Hardy-type best "
        "constants, characteristic exponents, radial profiles and limit "
        "functionals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p, formats=("csv", "json")):
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", default=None, help="output file (default stdout)")

    def common(p, formats=("csv", "json")):
        _int_flag(p, "--dim", default=3)
        p.add_argument("--potential", default="dipole:1.0",
                       help="constant:K | dipole:L | table:PATH")
        _int_flag(p, "--grid", default=grid_default,
                  help=f"polar grid size (default from ${GRID_ENV} or 10000)")
        output(p, formats)
        p.add_argument("--sampling", choices=["flux", "node"], default="flux",
                       help="treatment of the singular polar coefficient "
                            "(default flux; hardy table defaults to node, the "
                            "convention of the reference table)")

    p = sub.add_parser("spectrum", help="sphere eigenvalues, counting fit, sup-norm ratio")
    common(p)
    _int_flag(p, "--count", default=20)

    p = sub.add_parser("hardy", help="best constant; 'table' mode sweeps dimensions")
    common(p)
    p.add_argument("--table", dest="dims", default=None, metavar="DIMS",
                   help="emit the critical-coupling table for dims 'a..b'")
    p.add_argument("--method", choices=["pencil", "bisection", "both"], default=None,
                   help="table only (default pencil)")
    # None until main resolves them for the mode the run is in
    p.set_defaults(dim=None, potential=None, sampling=None)

    p = sub.add_parser("sigma", help="characteristic exponents for (dim, mu)")
    _int_flag(p, "--dim", required=True)
    _float_flag(p, "--mu", required=True)
    output(p)

    p = sub.add_parser("radial", help="radial profile and limit coefficient")
    _int_flag(p, "--dim", default=3)
    _float_flag(p, "--mu", required=True)
    p.add_argument("--perturbation", default="zero",
                   help="zero | power:C,EPS | manufactured:BETA[,SIGMA]")
    _float_flag(p, "--c1", default=1.0)
    _int_flag(p, "--points", default=400)
    _float_flag(p, "--rmin", default=1e-8)
    _float_flag(p, "--tol", default=1e-12)
    output(p)

    p = sub.add_parser("cauchy", help="limit-functional independence of the radius")
    common(p)
    p.add_argument("--scenario", required=True,
                   help="manufactured-radial | manufactured-nonradial | mode:K")
    p.add_argument("--radii", default="0.3,0.6,0.9",
                   type=lambda text: [_finite(x, text) for x in text.split(",")])
    _int_flag(p, "--modes", default=40)
    _int_flag(p, "--points", default=400)
    _float_flag(p, "--rmin", default=1e-8)
    _float_flag(p, "--beta", help="mode scenarios (default 1)")
    _float_flag(p, "--eps", help="manufactured-nonradial (default 1)")
    _float_flag(p, "--gscale", help="manufactured-nonradial (default 0.2)")
    p.add_argument("--limit-table", action="store_true",
                   help="emit the small-radius convergence table "
                        "(rho, estimate, defect) instead of the R sweep")

    p = sub.add_parser("sandwich", help="sub/supersolution trapping report (json)")
    common(p, formats=("json",))
    _int_flag(p, "--modes", default=80)
    _int_flag(p, "--points", default=400)
    _float_flag(p, "--rmin", default=1e-8)
    _float_flag(p, "--eps", default=1.0)
    _float_flag(p, "--gscale", default=0.2)
    _float_flag(p, "--radius-fraction", default=0.5)

    p = sub.add_parser("bk", help="bootstrap constants table")
    _int_flag(p, "--dim", default=4)
    _float_flag(p, "--s", default=3.0)
    _float_flag(p, "--vnorm", default=1.0)
    _float_flag(p, "--ckn", default=1.0)
    _float_flag(p, "--dist", default=1.0)
    _float_flag(p, "--diam", default=2.0)
    _float_flag(p, "--sigma", default=0.5)
    _int_flag(p, "--n", default=200)
    p.add_argument("--printed-variant", action="store_true",
                   help="use the 1/2 prefactor exponent sequence")
    output(p)

    return parser


def _resolve_mode(args) -> None:
    """Reject the flags of another mode of the command, then fill in this mode's defaults.

    The hardy table takes --method and samples by node, the convention of
    the reference table; one potential takes --dim and --potential.  The
    cauchy scenario manufactured-nonradial takes --eps and --gscale; the
    mode scenarios (manufactured-radial is mode:1) take --beta.
    """
    if args.command == "hardy":
        table = args.dims is not None
        mode = f"hardy {'with' if table else 'without'} --table"
        flags = ("method", "dim", "potential")
        defaults = ({"method": "pencil", "sampling": "node"} if table
                    else {"dim": 3, "potential": "dipole:1.0", "sampling": "flux"})
    elif args.command == "cauchy":
        mode = f"cauchy --scenario {args.scenario}"
        flags = ("beta", "eps", "gscale")
        defaults = ({"eps": 1.0, "gscale": 0.2} if args.scenario == "manufactured-nonradial"
                    else {"beta": 1.0})
    else:
        return
    for name in flags:
        if name not in defaults and getattr(args, name) is not None:
            raise InputError(f"--{name} does not apply to {mode}")
    for name, value in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, value)


def _reject_bare_separator(argv: list[str]) -> None:
    """argparse drops a '--' given as '--flag=--' and hands the flag an empty list."""
    for token in argv:
        flag, sep, value = token.partition("=")
        if sep and flag.startswith("--") and value == "--":
            raise InputError(f"{flag} needs a value, not '--'")


def main(argv=None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        _reject_bare_separator(argv)
        # inside the try: the grid default is read from the environment here
        args = build_parser().parse_args(argv)
        _resolve_mode(args)
        # looked up per call, not bound into the cached parser, so a rebinding
        # of a command function (a profiler's wrapper) takes effect
        return globals()[f"cmd_{args.command}"](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, MemoryError) as exc:
        print(f"numerical failure: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
