"""Batch command-line front end.

Everything is seedless and deterministic: identical invocations produce
byte-identical primary output.  Numeric values print with 10 significant
digits.  Exit codes: 0 success, 2 input error (including unknown flags,
which argparse reports with usage text on stderr), 3 numerical failure as
defined by the operation contracts.

The default polar grid size is 10000 and can be overridden with the
DIPOLESPEC_GRID_M environment variable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import angular, asymptotics, brezis_kato, hardy, radial
from .errors import InputError, NumericalError
from .exponents import sigma_pair

GRID_ENV = "DIPOLESPEC_GRID_M"


def fmt(x) -> str:
    """10-significant-digit rendering used for every number we print."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.10g}"


def default_grid_size() -> int:
    raw = os.environ.get(GRID_ENV, "10000")
    try:
        return int(raw)
    except ValueError as exc:
        raise InputError(f"{GRID_ENV} must be an integer, got {raw!r}") from exc


def _finite(text: str, spec: str) -> float:
    """One finite number of a spec; anything else is an input error."""
    try:
        value = float(text)
    except ValueError as exc:
        raise InputError(f"malformed number {text!r} in {spec!r}") from exc
    if not math.isfinite(value):
        raise InputError(f"non-finite number {text!r} in {spec!r}")
    return value


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
            values = np.loadtxt(arg, ndmin=1)
        except OSError as exc:
            raise InputError(f"cannot read potential table {arg!r}: {exc}") from exc
        return angular.AngularPotential.tabulated(values, grid)
    raise InputError(f"unknown potential spec {spec!r}")


def parse_perturbation(spec: str, N: int, sigma: float) -> radial.RadialPerturbation:
    """'zero' | 'power:C,EPS' | 'manufactured:BETA[,SIGMA]'."""
    kind, _, arg = spec.partition(":")
    if kind == "zero":
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
    """Inclusive range syntax 'a..b' or a single dimension."""
    bounds = spec.split("..")
    try:
        lo, hi = int(bounds[0]), int(bounds[-1])
    except ValueError as exc:
        raise InputError(f"malformed dimension range {spec!r}") from exc
    if len(bounds) > 2 or hi < lo:
        raise InputError(f"malformed or empty dimension range {spec!r}")
    return list(range(lo, hi + 1))


def _nonfinite(value) -> bool:
    """Whether a NaN or an infinity sits anywhere in a JSON-like value."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return any(map(_nonfinite, value))
    return isinstance(value, float) and not math.isfinite(value)


# parsed arguments that route the output, not the computation
_ROUTING = ("command", "func", "format", "out")


def _emit_doc(args, results: dict, header: str | None, rows: list | None,
              sep: str = ",", command: str | None = None) -> None:
    """The JSON document (always, if rows is None), or the CSV header (if any) and rows.

    The document records as inputs every parsed argument that was set,
    except the routing ones.  The rows hold values of the results only.  A
    NaN or an infinity among the results is a numerical failure, never
    output: JSON has neither.
    """
    command = command or args.command
    if _nonfinite(results):
        raise NumericalError(f"{command} produced a non-finite result")
    if rows is None or args.format == "json":
        inputs = {k: v for k, v in vars(args).items() if k not in _ROUTING and v is not None}
        doc = {"command": command, "inputs": inputs, "results": results}
        lines = [json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)]
    else:
        lines = ([header] if header else []) + [sep.join(fmt(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _records(header: str, rows) -> list[dict]:
    """CSV rows as JSON records keyed by the header's column names."""
    names = header.split(",")
    return [dict(zip(names, row)) for row in rows]


def _fields(result, *drop) -> dict:
    """A result object's fields as JSON results, less the named ones (no copies)."""
    return {k: v for k, v in vars(result).items() if k not in drop}


def cmd_spectrum(args) -> int:
    grid = angular.PolarGrid.build(args.dim, args.grid)
    potential = parse_potential(args.potential, grid)
    spec = angular.full_spectrum(args.dim, potential, args.count, grid, args.sampling)
    flat = spec.flattened()[: args.count]
    rows = [(k + 1, mu) for k, mu in enumerate(flat)]
    results = {
        "eigenvalues": [float(v) for v in flat],
        "mu_1": spec.mu_1,
        "weyl": None,
        "sup_ratio": None,
    }
    if flat.size >= 100:
        try:
            results["weyl"] = _fields(angular.weyl_fit(spec), "window")
        except NumericalError:
            pass
    try:
        results["sup_ratio"] = angular.eigenfunction_sup_ratio(spec)
    except InputError:
        pass
    _emit_doc(args, results, "k,mu", rows)
    return 0


def cmd_hardy(args) -> int:
    if args.dims is not None:
        return _hardy_table(args)
    grid = angular.PolarGrid.build(args.dim, args.grid)
    potential = parse_potential(args.potential, grid)
    res = hardy.lambda_n(args.dim, potential, grid, args.sampling)
    # the maximizer is axisymmetric, see hardy.lambda_n
    results = {**_fields(res, "maximizer", "richardson"), "maximizer_tower": 0}
    rows = [(res.lambda_n, res.critical_coupling, 0)]
    _emit_doc(args, results, "lambda_n,critical_coupling,maximizer_tower", rows)
    return 0


def _hardy_table(args) -> int:
    methods = ["pencil", "bisection"] if args.method == "both" else [args.method]
    rows = []
    for N in parse_dims(args.dims):  # buffered, deterministic row order
        grid = angular.PolarGrid.build(N, args.grid)
        for method in methods:
            lam_star = hardy.critical_dipole_coupling(N, grid, method, args.sampling)
            rows.append((N, (N - 2) ** 2 / 4.0, lam_star, method, args.grid))
    header = "N,classical,dipole_inverse_lambda,method,grid"
    _emit_doc(args, {"rows": _records(header, rows)}, header, rows, command="hardy-table")
    return 0


def cmd_sigma(args) -> int:
    exps = sigma_pair(args.dim, args.mu)
    results = _fields(exps, "dim", "mu")
    _emit_doc(args, results, None, [(exps.sigma_plus, exps.sigma_minus)], sep=", ")
    return 0


def cmd_radial(args) -> int:
    exps = sigma_pair(args.dim, args.mu)
    pert = parse_perturbation(args.perturbation, args.dim, exps.sigma_plus)
    grid = radial.RadialGrid.geometric(args.points, args.rmin, 1.0)
    prof = radial.solve_mode_picard(args.dim, args.mu, pert, args.c1, grid, args.tol)
    est = radial.limit_coefficient(prof)
    with np.errstate(divide="ignore", invalid="ignore"):  # a NaN is reported below
        scaled = prof.values / grid.points**exps.sigma_plus
    header = "rho,phi,phi_over_rho_sigma"
    rows = list(zip(grid.points, prof.values, scaled))
    results = {
        "limit_coefficient": est.value,
        "measured_limit": est.measured,
        "discrepancy": est.discrepancy,
        "c1_representation": prof.c1,
        "c2": prof.c2,
        "iterations": prof.iterations,
        "profile": _records(header, rows),
    }
    _emit_doc(args, results, header, rows)
    return 0


def _cauchy_mode(scenario: str) -> int:
    """The axisymmetric mode whose functional a scenario reads (1 = ground)."""
    if scenario in ("manufactured-radial", "manufactured-nonradial"):
        return 1
    kind, _, arg = scenario.partition(":")
    if kind != "mode":
        raise InputError(f"unknown scenario {scenario!r}")
    try:
        return int(arg)
    except ValueError as exc:
        raise InputError(f"malformed scenario {scenario!r}") from exc


def _solution_field(args, scenario: str, k: int = 1):
    """The scenario's solution field: the manufactured nonradial one, or mode k alone.

    manufactured-radial is mode:1, the ground mode.
    """
    grid = angular.PolarGrid.build(args.dim, args.grid)
    potential = parse_potential(args.potential, grid)
    spec = angular.full_spectrum(args.dim, potential, args.modes, grid, args.sampling)
    rgrid = radial.RadialGrid.geometric(args.points, args.rmin, 1.0)
    if scenario == "manufactured-nonradial":
        g = args.gscale * spec.axisymmetric_mode(2).psi(grid)
        return asymptotics.manufactured_nonradial(args.dim, spec, args.eps, g, rgrid)
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
    header, rows = "R,value", list(zip(args.radii, values))
    if k == 1:
        table = asymptotics.measured_limit(field)
        records = _records("rho,estimate,defect", table.rows)
        results["limit_table"] = {"estimate": table.estimate, "rows": records}
        if args.limit_table:
            header, rows = "rho,estimate,defect", list(table.rows)
    _emit_doc(args, results, header, rows)
    return 0


def cmd_sandwich(args) -> int:
    field = _solution_field(args, "manufactured-nonradial")
    rep = asymptotics.sandwich_check(field, args.radius_fraction)
    results = _fields(rep, "collapse_gap")
    if math.isinf(rep.admissible_radius):  # unbounded (coercivity coefficient <= 0)
        results["admissible_radius"] = None
    _emit_doc(args, results, None, None)
    return 0


def cmd_bk(args) -> int:
    params = brezis_kato.BKParameters(
        dim=args.dim, s=args.s, v_norm=args.vnorm, ckn_constant=args.ckn,
        dist=args.dist, diam=args.diam, sigma=args.sigma,
    )
    table = brezis_kato.iteration_constants(params, args.n, args.printed_variant)
    header = "n,q_n,r_n,b_n,partial_sum,partial_product"
    results = {**_fields(table), "rows": _records(header, table.rows)}
    _emit_doc(args, results, header, list(table.rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dipolespec",
        description="Spectral quantities of anisotropic inverse-square "
        "Schrodinger operators: sphere eigenvalues, Hardy-type best "
        "constants, characteristic exponents, radial profiles and limit "
        "functionals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("csv", "json")):
        p.add_argument("--dim", type=int, default=3)
        p.add_argument("--potential", default="dipole:1.0",
                       help="constant:K | dipole:L | table:PATH")
        p.add_argument("--grid", type=int, default=default_grid_size(),
                       help=f"polar grid size (default from ${GRID_ENV} or 10000)")
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--sampling", choices=["flux", "node"], default="flux",
                       help="treatment of the singular polar coefficient "
                            "(default flux; hardy table defaults to node, the "
                            "convention of the reference table)")

    p = sub.add_parser("spectrum", help="sphere eigenvalues, counting fit, sup-norm ratio")
    common(p)
    p.add_argument("--count", type=int, default=20)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("hardy", help="best constant; 'table' mode sweeps dimensions")
    common(p)
    p.add_argument("--table", dest="dims", default=None, metavar="DIMS",
                   help="emit the critical-coupling table for dims 'a..b'")
    p.add_argument("--method", choices=["pencil", "bisection", "both"], default=None,
                   help="table only (default pencil)")
    # None until main resolves them for the mode the run is in
    p.set_defaults(func=cmd_hardy, dim=None, potential=None, sampling=None)

    p = sub.add_parser("sigma", help="characteristic exponents for (dim, mu)")
    p.add_argument("--dim", type=int, required=True)
    _float_flag(p, "--mu", required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("radial", help="radial profile and limit coefficient")
    p.add_argument("--dim", type=int, default=3)
    _float_flag(p, "--mu", required=True)
    p.add_argument("--perturbation", default="zero",
                   help="zero | power:C,EPS | manufactured:BETA[,SIGMA]")
    _float_flag(p, "--c1", default=1.0)
    p.add_argument("--points", type=int, default=400)
    _float_flag(p, "--rmin", default=1e-8)
    _float_flag(p, "--tol", default=1e-12)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_radial)

    p = sub.add_parser("cauchy", help="limit-functional independence of the radius")
    common(p)
    p.add_argument("--scenario", required=True,
                   help="manufactured-radial | manufactured-nonradial | mode:K")
    p.add_argument("--radii", default="0.3,0.6,0.9",
                   type=lambda text: [_finite(x, text) for x in text.split(",")])
    p.add_argument("--modes", type=int, default=40)
    p.add_argument("--points", type=int, default=400)
    _float_flag(p, "--rmin", default=1e-8)
    _float_flag(p, "--beta", help="mode scenarios (default 1)")
    _float_flag(p, "--eps", help="manufactured-nonradial (default 1)")
    _float_flag(p, "--gscale", help="manufactured-nonradial (default 0.2)")
    p.add_argument("--limit-table", action="store_true",
                   help="emit the small-radius convergence table "
                        "(rho, estimate, defect) instead of the R sweep")
    p.set_defaults(func=cmd_cauchy)

    p = sub.add_parser("sandwich", help="sub/supersolution trapping report (json)")
    common(p, formats=("json",))
    p.add_argument("--modes", type=int, default=80)
    p.add_argument("--points", type=int, default=400)
    _float_flag(p, "--rmin", default=1e-8)
    _float_flag(p, "--eps", default=1.0)
    _float_flag(p, "--gscale", default=0.2)
    _float_flag(p, "--radius-fraction", default=0.5)
    p.set_defaults(func=cmd_sandwich)

    p = sub.add_parser("bk", help="bootstrap constants table")
    p.add_argument("--dim", type=int, default=4)
    _float_flag(p, "--s", default=3.0)
    _float_flag(p, "--vnorm", default=1.0)
    _float_flag(p, "--ckn", default=1.0)
    _float_flag(p, "--dist", default=1.0)
    _float_flag(p, "--diam", default=2.0)
    _float_flag(p, "--sigma", default=0.5)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--printed-variant", action="store_true",
                   help="use the 1/2 prefactor exponent sequence")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bk)

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


def main(argv=None) -> int:
    try:
        # inside the try: the grid default is read from the environment here
        args = build_parser().parse_args(argv)
        _resolve_mode(args)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
