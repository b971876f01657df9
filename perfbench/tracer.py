"""Span tracing of the dipolespec layers from outside the program.

`Tracer.install` rebinds the public functions of each module, in every
dipolespec module that binds them (so `hardy.assemble_polar_operator` and
`cli.sigma_pair` are traced like the originals), plus the scipy entry points
bound into `angular` and `hardy`.  A name that no longer exists raises
`TraceError`, so a later rename cannot silently report zero.

Each call records a span: name, start, end, parent span and job id, plus an
optional count taken from the return value.  Spans stay in memory until the
run writes them out.  The layers are the modules; a scipy span belongs to
the layer of the module that calls it.  A span's self time is its duration
minus its direct children's, and harness time is the batch wall time
outside the root `cli.main` spans, so layer self times plus harness time are
the traced batch wall time.  `summarize` checks what that sum cannot: each
root span lasts as long as the harness measured its job, and the harness
keeps below HARNESS_SHARE of the batch.

Calls that stay inside one module, private helpers and methods of the data
classes get no span; their time is self time of the calling layer.  hardy
imports `eigh_tridiagonal` inside `_lanczos_largest`, not at module level, so
that call is hardy self time.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# a root span may differ from its job's measured latency by this much: the
# wrapper's own call overhead is microseconds, the rest is room for the
# process being descheduled in between
ROOT_SLACK_S, ROOT_SLACK_REL = 5e-3, 0.01
HARNESS_SHARE = 0.01

LAYERS = ("cli", "angular", "hardy", "exponents", "radial", "asymptotics", "brezis_kato")

# module -> public functions wrapped in every module that binds them
PACKAGE_FUNCTIONS = {
    "angular": ("full_spectrum", "assemble_polar_operator", "weyl_fit",
                "eigenfunction_sup_ratio"),
    "hardy": ("lambda_n", "critical_dipole_coupling", "admissible_radius"),
    "exponents": ("sigma_pair",),
    "radial": ("solve_mode_picard", "solve_mode_bvp", "integrate_power_from_zero",
               "limit_coefficient"),
    "asymptotics": ("synthesize_solution", "manufactured_nonradial", "cauchy_functional",
                    "cauchy_coefficient_mode", "measured_limit", "sandwich_check"),
    "brezis_kato": ("iteration_constants",),
    "cli": ("main", "cmd_spectrum", "cmd_hardy", "cmd_sigma", "cmd_radial", "cmd_cauchy",
            "cmd_sandwich", "cmd_bk"),
}

# module -> scipy entry points wrapped only where that module binds them
SCIPY_FUNCTIONS = {
    "angular": ("eigvalsh_tridiagonal", "eigh_tridiagonal"),
    "hardy": ("eigvalsh_tridiagonal", "solve_banded", "cholesky_banded"),
}


def _field_bytes(field):
    size = field.u.nbytes + field.source.nbytes
    return {"asymptotics.field_bytes": size, "working_set_bytes": size}


# span name -> counts taken from the return value; `working_set_bytes` and
# `pencil_rows` feed the working-set estimate and are not metrics
HOOKS = {
    "angular.eigvalsh_tridiagonal": lambda w: {"angular.eigvalsh_tridiagonal.values": len(w)},
    "angular.eigh_tridiagonal": lambda wv: {"angular.eigh_tridiagonal.vectors": wv[1].shape[1],
                                            "working_set_bytes": wv[1].nbytes},
    "angular.full_spectrum": lambda spec: {"angular.modes_kept": len(spec.modes)},
    "radial.solve_mode_picard": lambda prof: {"radial.picard_sweeps": prof.iterations},
    "hardy.cholesky_banded": lambda u: {"pencil_rows": u.shape[1]},
    "asymptotics.synthesize_solution": _field_bytes,
    "asymptotics.manufactured_nonradial": _field_bytes,
}


class TraceError(RuntimeError):
    pass


def span_name(layer: str, func: str) -> str:
    return f"{layer}.{func.removeprefix('cmd_')}" if layer == "cli" else f"{layer}.{func}"


class Tracer:
    """Owns the span list and the rebindings made by `install`."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, job, counts]
        self.job = None
        self._stack = []
        self._rebound = []     # (module, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, clock, hook = self.spans, self._stack, time.perf_counter, HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                span[5] = hook(result)
            return result

        return traced

    def _lookup(self, module, func):
        original = getattr(module, func, None)
        if not callable(original):
            raise TraceError(
                f"{module.__name__}.{func} no longer exists; update perfbench/tracer.py"
            )
        return original

    def install(self, modules: dict) -> None:
        """Rebind the traced functions; `modules` maps short names to dipolespec modules."""
        if self._rebound:
            raise TraceError("tracer already installed")
        package = [(layer, func, self._lookup(modules[layer], func))
                   for layer, funcs in PACKAGE_FUNCTIONS.items() for func in funcs]
        scipy = [(layer, func, self._lookup(modules[layer], func))
                 for layer, funcs in SCIPY_FUNCTIONS.items() for func in funcs]
        for layer, func, original in package:
            wrapper = self._wrap(span_name(layer, func), original)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._rebound.append((module, attr, original))
                        setattr(module, attr, wrapper)
        for layer, func, original in scipy:
            self._rebound.append((modules[layer], func, original))
            setattr(modules[layer], func, self._wrap(span_name(layer, func), original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def write_jsonl(self, path, t0: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, job, counts) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "layer": name.split(".")[0],
                    "start": start - t0, "end": end - t0, "parent": parent,
                    "job": job, "counts": counts,
                }) + "\n")


def _metric_names() -> set:
    """Every per-layer metric `summarize` reports, 0 when the batch never hit it."""
    names = {f"{layer}.self_s" for layer in LAYERS}
    tables = list(PACKAGE_FUNCTIONS.items()) + list(SCIPY_FUNCTIONS.items())
    for layer, funcs in tables:
        for func in funcs:
            names |= {f"{span_name(layer, func)}.s", f"{span_name(layer, func)}.calls"}
    names |= {"angular.eigvalsh_tridiagonal.values", "angular.eigh_tridiagonal.vectors",
              "angular.modes_kept", "radial.picard_sweeps", "asymptotics.field_bytes",
              "angular.towers_scanned", "hardy.bisection_steps", "harness.self_s",
              "trace.batch_s"}
    return names


def summarize(spans, first: int, last: int, wall: float, latencies: list) -> dict:
    """Per-layer metrics of the spans [first, last) of one batch of wall time `wall`;
    `latencies` holds the harness's (job, seconds) for each job of the batch, in order."""
    dur = [s[2] - s[1] for s in spans]
    child = defaultdict(float)
    for i in range(first, last):
        parent = spans[i][3]
        if parent is not None:
            child[parent] += dur[i]
    m = defaultdict(float, dict.fromkeys(_metric_names(), 0.0))
    per_job = defaultdict(lambda: defaultdict(float))
    roots = []
    working_set = 0
    pencil_rows = lanczos_steps = 0
    for i in range(first, last):
        name, _, _, parent, job, counts = spans[i]
        counts = dict(counts or {})
        parent_name = spans[parent][0] if parent is not None else None
        if dur[i] - child[i] < -1e-9:
            raise TraceError(f"children of span {i} ({name}) outlast it")
        m[f"{name.split('.')[0]}.self_s"] += dur[i] - child[i]
        m[f"{name}.s"] += dur[i]
        counts[f"{name}.calls"] = 1
        if parent is None:
            roots.append((name, job, dur[i]))
        if name == "hardy.cholesky_banded":  # a new tower's pencil: Lanczos restarts
            pencil_rows, lanczos_steps = counts.pop("pencil_rows"), 0
        if name == "hardy.eigvalsh_tridiagonal" and parent_name == "hardy.lambda_n":
            lanczos_steps += 1  # one Ritz solve per step; the basis holds steps + 1 vectors
            working_set = max(working_set, (lanczos_steps + 1) * pencil_rows * 8)
        if name == "hardy.eigvalsh_tridiagonal" and parent_name == "hardy.critical_dipole_coupling":
            counts["hardy.bisection_steps"] = 1
        if name == "angular.eigvalsh_tridiagonal":  # one eigenvalue probe per tower
            counts["angular.towers_scanned"] = 1
        working_set = max(working_set, counts.pop("working_set_bytes", 0))
        for key, value in counts.items():
            m[key] += value
            per_job[job][key] += value
    if len(roots) != len(latencies):
        raise TraceError(f"{len(roots)} root spans for {len(latencies)} jobs")
    for (name, job, took), (want_job, latency) in zip(roots, latencies):
        if name != "cli.main" or job != want_job:
            raise TraceError(f"root span {name} of job {job}, expected cli.main of {want_job}")
        if abs(took - latency) > ROOT_SLACK_S + ROOT_SLACK_REL * latency:
            raise TraceError(f"job {job}: root span {took} s, measured latency {latency} s")
    m["harness.self_s"] = wall - sum(took for *_, took in roots)
    if not 0.0 <= m["harness.self_s"] <= HARNESS_SHARE * wall:
        raise TraceError(f"harness time {m['harness.self_s']} s of a {wall} s batch")
    m["trace.batch_s"] = wall
    return {
        "metrics": dict(m),
        "per_job": {job: dict(c) for job, c in per_job.items()},
        "working_set_bytes": working_set,
        "spans": last - first,
    }
