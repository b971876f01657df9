"""Output checker: decides whether one CLI job produced a correct result.

A job fails when it raised or exited non-zero, printed a non-finite number,
emitted JSON that does not validate against docs/output_schema.json, or
missed a tolerance of the acceptance suite (tests/test_acceptance.py):

* critical-coupling table within 5e-3 of the reference, pencil and
  bisection within 1e-5 of each other;
* constant-potential spectra within 10 h^2 of the exact values;
* dipole ground value strictly inside (-|lambda|, 0);
* Cauchy values within 1e-3 of 1;
* sandwich reports `ordered`.

Every job's output bytes are digested so two sets of runs can be compared
byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass

from jsonschema import Draft7Validator
from jsonschema.exceptions import best_match

# Inverse best constants of the unit dipole at M = 10000, node sampling,
# as pinned in tests/test_acceptance.py.
REFERENCE_INVERSE_COUPLINGS = {
    3: 1.6398, 4: 3.7891, 5: 7.5831, 6: 12.6713,
    7: 19.0569, 8: 26.7407, 9: 35.7231, 10: 46.0044,
}
TABLE_TOL = 5e-3
ROUTE_TOL = 1e-5
CAUCHY_TOL = 1e-3
RADIAL_TOL = 1e-5


class CheckFailure(Exception):
    pass


@dataclass
class Verdict:
    ok: bool
    reason: str
    digest: str
    size: int


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailure(msg)


def _close(x: float, ref: float, rel: float) -> bool:
    return abs(x - ref) <= rel * abs(ref)


def _all_finite_json(node, path="$") -> None:
    if isinstance(node, dict):
        for k, v in node.items():
            _all_finite_json(v, f"{path}.{k}")
    elif isinstance(node, list):
        for i, v in enumerate(node):
            _all_finite_json(v, f"{path}[{i}]")
    elif isinstance(node, float):
        _require(math.isfinite(node), f"non-finite number at {path}")


def _csv_rows(text: str) -> list[list]:
    """Rows of cells; cells that parse as numbers become floats and must be finite."""
    rows = []
    for line_no, row in enumerate(csv.reader(io.StringIO(text)), start=1):
        cells = []
        for cell in row:
            cell = cell.strip()
            try:
                value = float(cell)
            except ValueError:
                cells.append(cell)
                continue
            _require(math.isfinite(value), f"non-finite number {cell!r} on line {line_no}")
            cells.append(value)
        rows.append(cells)
    return rows


def _exact_constant_spectrum(N: int, kappa: float, count: int) -> list[float]:
    values, l = [], 0
    while len(values) < count:
        mult = 2 * l + 1 if N == 3 else (l + 1) ** 2
        values.extend([l * (l + N - 2.0) - kappa] * mult)
        l += 1
    return values[:count]


def _check_eigenvalues(eigs: list[float], expect: dict) -> None:
    _require(len(eigs) == expect["count"], f"{len(eigs)} eigenvalues, asked for {expect['count']}")
    _require(all(a <= b for a, b in zip(eigs, eigs[1:])), "eigenvalues not ascending")
    mu1 = eigs[0]
    if "kappa" in expect:
        h = math.pi / (expect["grid"] + 1)
        exact = _exact_constant_spectrum(expect["dim"], expect["kappa"], 10)
        worst = max(abs(a - b) for a, b in zip(eigs[:10], exact))
        _require(worst < 10 * h * h, f"constant spectrum off by {worst:.2e} (tol 10 h^2)")
    if "coupling" in expect:
        lam = abs(expect["coupling"])
        _require(-lam < mu1 < 0.0, f"dipole mu_1 = {mu1} not in (-{lam}, 0)")
    if "table" in expect:
        t = expect["table"]
        _require(-t["sup"] < mu1 < -t["mean"],
                 f"table mu_1 = {mu1} not in (-sup a, -mean a) = ({-t['sup']}, {-t['mean']})")


def _check_spectrum(doc, rows, expect) -> None:
    if doc is None:
        _require(rows[0] == ["k", "mu"], "unexpected spectrum header")
        _check_eigenvalues([r[1] for r in rows[1:]], expect)
        return
    res = doc["results"]
    _check_eigenvalues(res["eigenvalues"], expect)
    if expect["count"] >= 100:
        target = 2.0 / (expect["dim"] - 1)
        _require(res["weyl"] is not None, "missing Weyl fit")
        rel = abs(res["weyl"]["exponent"] - target) / target
        _require(rel < 0.15, f"Weyl exponent off by {rel:.1%} (tol 15%)")


def _check_hardy_table(doc, rows, expect) -> None:
    if doc is not None:
        rows = [[r["N"], r["classical"], r["dipole_inverse_lambda"], r["method"], r["grid"]]
                for r in doc["results"]["rows"]]
    else:
        _require(rows[0][0] == "N", "unexpected hardy table header")
        rows = rows[1:]
    _require(len(rows) > 0, "empty coupling table")
    by_dim: dict = {}
    for N, _classical, inv, method, _grid in rows:
        N = int(N)
        ref = REFERENCE_INVERSE_COUPLINGS[N]
        _require(_close(inv, ref, TABLE_TOL), f"N={N} {method}: {inv} vs reference {ref}")
        by_dim.setdefault(N, {})[method] = inv
    for N, routes in by_dim.items():
        if len(routes) == 2:
            _require(_close(routes["bisection"], routes["pencil"], ROUTE_TOL),
                     f"N={N}: pencil {routes['pencil']} vs bisection {routes['bisection']}")


def _check_cauchy(doc, rows, expect) -> None:
    if doc is not None:
        res = doc["results"]
        values = list(res["values"])
        if res["limit_table"] is not None:
            values.append(res["limit_table"]["estimate"])
            values.extend(r["estimate"] for r in res["limit_table"]["rows"])
    else:
        header = rows[0]
        col = 1 if header in (["R", "value"], ["rho", "estimate", "defect"]) else None
        _require(col is not None, f"unexpected cauchy header {header}")
        values = [r[col] for r in rows[1:]]
    _require(len(values) > 0, "no Cauchy values")
    worst = max(abs(v - 1.0) for v in values)
    _require(worst <= CAUCHY_TOL, f"Cauchy value off 1 by {worst:.2e} (tol {CAUCHY_TOL})")


def _check_sandwich(doc, rows, expect) -> None:
    _require(doc["results"]["ordered"] is True, "sandwich not ordered")


def _check_radial(doc, rows, expect) -> None:
    if doc is not None:
        prof = [(p["rho"], p["phi_over_rho_sigma"]) for p in doc["results"]["profile"]]
        lim = doc["results"]["limit_coefficient"]
        _require(abs(lim - 1.0) <= CAUCHY_TOL, f"limit coefficient {lim} (expected 1)")
    else:
        _require(rows[0] == ["rho", "phi", "phi_over_rho_sigma"], "unexpected radial header")
        prof = [(r[0], r[2]) for r in rows[1:]]
    beta = expect["beta"]
    worst = max(abs(s - (1 + rho**beta)) / (1 + rho**beta) for rho, s in prof if rho >= 1e-6)
    _require(worst < RADIAL_TOL, f"profile off the manufactured solution by {worst:.2e}")


def _check_bk(doc, rows, expect) -> None:
    if doc is not None:
        q = [r["q_n"] for r in doc["results"]["rows"]]
        res = doc["results"]
        _require(_close(res["sum_inv_q"], res["sum_inv_q_closed"], 1e-6),
                 f"sum 1/q_n = {res['sum_inv_q']} vs closed form {res['sum_inv_q_closed']}")
    else:
        q = [r[1] for r in rows[1:]]
    _require(all(a < b for a, b in zip(q, q[1:])), "q_n not increasing")


def _check_sigma(doc, rows, expect) -> None:
    if doc is not None:
        pair = (doc["results"]["sigma_plus"], doc["results"]["sigma_minus"])
    else:
        pair = tuple(rows[0])
    N, mu = expect["dim"], expect["mu"]
    for s in pair:
        _require(abs(s * s + (N - 2) * s - mu) <= 1e-9 * max(1.0, abs(mu)),
                 f"sigma {s} does not solve the indicial equation")


CHECKS = {
    "spectrum": _check_spectrum,
    "hardy-table": _check_hardy_table,
    "cauchy": _check_cauchy,
    "sandwich": _check_sandwich,
    "radial": _check_radial,
    "bk": _check_bk,
    "sigma": _check_sigma,
}


class Checker:
    """Validates job outputs; holds the compiled JSON schema."""

    def __init__(self, schema_path):
        with open(schema_path, encoding="utf-8") as fh:
            schema = json.load(fh)
        self._validator = Draft7Validator(schema)

    def check(self, job, exit_code, error, data: bytes | None) -> Verdict:
        dig = digest(data) if data is not None else "-"
        size = len(data) if data is not None else 0
        try:
            _require(error is None, f"raised {error}")
            _require(exit_code == 0, f"exit code {exit_code}")
            _require(data is not None and len(data) > 0, "no output")
            self._check_content(job, data.decode("utf-8"))
        except CheckFailure as exc:
            return Verdict(False, str(exc), dig, size)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return Verdict(False, f"malformed output: {exc!r}", dig, size)
        return Verdict(True, "", dig, size)

    def _check_content(self, job, text: str) -> None:
        doc, rows = None, None
        if job.fmt == "json":
            doc = json.loads(text)
            _all_finite_json(doc)
            error = best_match(self._validator.iter_errors(doc))
            _require(error is None, f"schema: {error.message if error else ''}")
        else:
            rows = _csv_rows(text)
        command = "hardy-table" if "--table" in job.argv else job.command
        if doc is not None:
            _require(doc["command"] == command, f"command {doc['command']!r}, expected {command!r}")
        CHECKS[command](doc, rows, job.expect)
