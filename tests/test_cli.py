import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import jsonschema
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dipolespec import angular, brezis_kato, cli, hardy
from dipolespec.cli import build_parser, main, parse_dims
from pathlib import Path

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "docs" / "output_schema.json").read_text()
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def validate(payload: str):
    doc = json.loads(payload)
    jsonschema.validate(doc, SCHEMA)
    return doc


class TestParsing:
    def test_dims_range_syntax(self):
        assert list(parse_dims("3..6")) == [3, 4, 5, 6]
        assert list(parse_dims("5")) == [5]

    @pytest.mark.parametrize(
        "argv",
        [
            ("hardy", "--potential", "dipole:abc", "--grid", "100"),
            ("radial", "--mu", "2", "--perturbation", "power:1", "--points", "40"),
            ("cauchy", "--scenario", "mode:x", "--grid", "100", "--modes", "8",
             "--points", "40"),
            ("hardy", "--table", "3..x", "--grid", "100"),
            ("cauchy", "--scenario", "manufactured-radial", "--radii", "0.3,x",
             "--grid", "100", "--modes", "8", "--points", "40"),
            ("spectrum", "--potential", "dipole:nan", "--grid", "100"),
            ("radial", "--mu", "2", "--points", "-3"),
            ("cauchy", "--scenario", "manufactured-radial", "--grid", "60",
             "--modes", "6", "--points", "-1"),
            ("sigma", "--dim", "4", "--mu", "nan"),
            ("radial", "--mu=-inf", "--points", "20"),
            ("radial", "--mu", "2", "--points", "20", "--rmin", "inf"),
            ("radial", "--mu", "2", "--points", "20", "--tol", "nan"),
            ("cauchy", "--scenario", "manufactured-radial", "--grid", "60",
             "--modes", "6", "--points", "20", "--beta", "inf"),
            ("sandwich", "--grid", "60", "--modes", "6", "--points", "20",
             "--radius-fraction", "nan"),
            ("bk", "--n", "20", "--vnorm", "inf"),
            ("bk", "--n", "20", "--sigma", "nan"),
            ("sandwich", "--format", "csv"),
            # a flag of the other hardy mode is rejected, not ignored
            ("hardy", "--method", "bisection", "--grid", "100"),
            ("hardy", "--table", "3..4", "--dim", "9", "--grid", "100"),
            ("hardy", "--table", "3..4", "--potential", "constant:5", "--grid", "100"),
            # a flag of another cauchy scenario is rejected, not ignored
            ("cauchy", "--scenario", "manufactured-nonradial", "--grid", "100",
             "--modes", "8", "--points", "40", "--beta", "2"),
            ("cauchy", "--scenario", "manufactured-radial", "--grid", "100",
             "--modes", "8", "--points", "40", "--eps", "0.5"),
            ("cauchy", "--scenario", "mode:2", "--grid", "300", "--modes", "8",
             "--points", "100", "--eps", "0.5", "--gscale", "0.1"),
            ("cauchy", "--scenario", "mode:1", "--grid", "100", "--modes", "8",
             "--points", "40", "--gscale", "0.1"),
            # 'zero' takes no argument: one given is rejected, not ignored
            ("radial", "--mu", "0.5", "--perturbation", "zero:5", "--points", "40"),
            ("radial", "--mu", "0.5", "--perturbation", "zero:abc", "--points", "40"),
            ("radial", "--mu", "0.5", "--perturbation", "zero:", "--points", "40"),
            # argparse strips a bare '--' value and would hand the flag []
            ("cauchy", "--scenario", "manufactured-radial", "--radii=--",
             "--grid", "60", "--modes", "6", "--points", "20"),
            ("hardy", "--potential=--", "--grid", "40"),
            ("sigma", "--dim", "4", "--mu=--"),
        ],
    )
    def test_malformed_input_exits_2(self, capsys, argv):
        # a flag value outside its choices exits 2 inside argparse
        code = exit_code(list(argv))
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_grid_env_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("DIPOLESPEC_GRID_M", "abc")
        code, _, err = run(capsys, "sigma", "--dim", "4", "--mu", "0")
        assert code == 2
        assert "error:" in err and "DIPOLESPEC_GRID_M" in err


SPEC_KINDS = ("constant:", "dipole:", "power:", "manufactured:", "zero", "mode:", "bogus:", "")
SPEC_ARGS = st.text(alphabet="0123456789.,-+eEinfa:x ", max_size=8)
FUZZ_COMMANDS = {
    "--potential": ("hardy", "--grid", "40"),
    "--perturbation": ("radial", "--mu", "2", "--points", "20", "--rmin", "1e-3"),
    "--scenario": ("cauchy", "--grid", "60", "--modes", "8", "--points", "20"),
    "--radii": ("cauchy", "--scenario", "manufactured-radial", "--grid", "60",
                "--modes", "8", "--points", "20"),
}


@pytest.mark.parametrize("flag", sorted(FUZZ_COMMANDS))
@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(SPEC_KINDS), arg=SPEC_ARGS)
def test_fuzzed_specs_exit_cleanly(flag, kind, arg):
    """Any spec string on a tiny grid ends in success, input error or numerical failure."""
    assert main(list(FUZZ_COMMANDS[flag]) + [f"{flag}={kind}{arg}"]) in (0, 2, 3)


def exit_code(argv):
    """main's return value, or the code argparse exits with on a bad flag."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


INTS = st.integers(-3, 12).map(str) | st.sampled_from(["0", "x", "", "1e3", "2.5"])
FLOATS = (st.floats(-4.0, 4.0).map(repr)
          | st.sampled_from(["nan", "inf", "-inf", "0", "1e-300", "1e300", "x", ""]))
# subcommand -> (the arguments it always gets, {flag: value strategy}); grids,
# counts and point numbers stay small so every example runs in milliseconds
FLAG_FUZZ = {
    "spectrum": (("--grid", "40"), {"--dim": INTS, "--grid": INTS, "--count": INTS,
                                    "--sampling": st.sampled_from(["flux", "node", "x"]),
                                    "--format": st.sampled_from(["csv", "json", "x"])}),
    "hardy": (("--grid", "40"), {"--dim": INTS, "--grid": INTS,
                                 "--table": st.sampled_from(["3..4", "4", "5..3", "2..3", "x"]),
                                 "--method": st.sampled_from(["pencil", "bisection", "both"])}),
    "sigma": (("--dim", "4", "--mu", "0"), {"--dim": INTS, "--mu": FLOATS}),
    "radial": (("--mu", "2", "--points", "20"),
               {"--dim": INTS, "--mu": FLOATS, "--c1": FLOATS, "--points": INTS,
                "--rmin": FLOATS, "--tol": FLOATS}),
    "cauchy": (("--scenario", "manufactured-radial", "--grid", "40", "--modes", "6",
                "--points", "20"),
               {"--dim": INTS, "--grid": INTS, "--modes": INTS, "--points": INTS,
                "--rmin": FLOATS, "--beta": FLOATS, "--eps": FLOATS, "--gscale": FLOATS,
                "--scenario": st.sampled_from(["manufactured-nonradial", "mode:2", "mode:9"]),
                "--limit-table": st.just(None)}),
    "sandwich": (("--grid", "40", "--modes", "6", "--points", "20"),
                 {"--dim": INTS, "--grid": INTS, "--modes": INTS, "--points": INTS,
                  "--rmin": FLOATS, "--eps": FLOATS, "--gscale": FLOATS,
                  "--radius-fraction": FLOATS}),
    "bk": (("--n", "20"), {"--dim": INTS, "--s": FLOATS, "--vnorm": FLOATS, "--ckn": FLOATS,
                           "--dist": FLOATS, "--diam": FLOATS, "--sigma": FLOATS,
                           "--n": INTS, "--printed-variant": st.just(None)}),
}


@st.composite
def fuzzed_argv(draw):
    command = draw(st.sampled_from(sorted(FLAG_FUZZ)))
    base, flags = FLAG_FUZZ[command]
    argv = [command, *base]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=3, unique=True)):
        value = draw(flags[flag])
        argv += [flag] if value is None else [f"{flag}={value}"]
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=fuzzed_argv())
# eps (eps + gap) overflows, and inf times the zero g is NaN: no RuntimeWarning
@example(argv=["sandwich", "--grid", "40", "--modes", "6", "--points", "20", "--dim=3",
               "--gscale=0.0", "--eps=1e300"])
def test_fuzzed_flags_exit_cleanly(argv):
    """Any flag values on tiny grids end in success, input error or numerical failure."""
    assert exit_code(argv) in (0, 2, 3)


@settings(max_examples=100, deadline=None)
@given(argv=fuzzed_argv())
# flags that once changed the results without being recorded
@example(argv=["radial", "--mu", "2", "--points", "20", "--tol=1e-10"])
@example(argv=["cauchy", "--scenario", "mode:2", "--grid", "40", "--modes", "6",
               "--points", "20", "--rmin=1e-6", "--beta=0.5"])
@example(argv=["cauchy", "--scenario", "manufactured-nonradial", "--grid", "40",
               "--modes", "6", "--points", "20", "--eps=0.5", "--gscale=0.1",
               "--limit-table"])
@example(argv=["sandwich", "--grid", "60", "--modes", "6", "--points", "20",
               "--rmin=1e-6", "--gscale=0"])
@example(argv=["bk", "--n", "20", "--printed-variant"])
def test_json_inputs_record_every_flag(argv):
    """A successful JSON run records each flag it was given, with its parsed value."""
    argv = [a for a in argv if not a.startswith("--format")] + ["--format", "json"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if exit_code(argv) != 0:
            return
    inputs = validate(buf.getvalue())["inputs"]
    parsed = vars(build_parser().parse_args(argv))
    for arg in argv[1:]:
        if arg.startswith("--") and arg != "--format":
            dest = arg[2:].partition("=")[0].replace("-", "_")
            dest = "dims" if dest == "table" else dest
            assert inputs[dest] == parsed[dest], arg


def fresh_process(*argv):
    """`python -m dipolespec.cli ARGV` in a new interpreter, with PYTHONPATH=src."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    return subprocess.run([sys.executable, "-m", "dipolespec.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


class TestFreshProcess:
    """The exit-code contract as a shell user sees it: 0, 2 or 3, never a traceback."""

    def test_success(self):
        proc = fresh_process("sigma", "--dim", "4", "--mu", "0")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0, -2\n", "")

    def test_an_unknown_flag_prints_usage(self):
        proc = fresh_process("sigma", "--dim", "4", "--mu", "0", "--bogus")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("usage: dipolespec ")
        assert "unrecognized arguments: --bogus" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_an_input_error_is_one_line(self):
        proc = fresh_process("spectrum", "--grid", "2")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: grid needs at least 3 interior nodes, got 2\n"


class TestSigma:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "sigma", "--dim", "4", "--mu", "0")
        assert code == 0
        assert out.strip() == "0, -2"

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "sigma", "--dim", "4", "--mu", "5", "--format", "json")
        assert code == 0
        doc = validate(out)
        assert doc["results"]["degenerate"] is False

    def test_domain_error_exit_2(self, capsys):
        code, _, err = run(capsys, "sigma", "--dim", "3", "--mu", "-0.3")
        assert code == 2
        assert "error" in err

    def test_a_negative_exponent_value_is_attached_with_equals(self, capsys):
        # argparse reads "-2e-1" after a space as a flag; "--mu=-2e-1" is the value
        assert run(capsys, "sigma", "--dim", "3", "--mu=-2e-1") == \
            run(capsys, "sigma", "--dim", "3", "--mu", "-0.2")


class TestHardyTable:
    def test_reference_row_n8(self, capsys):
        code, out, _ = run(capsys, "hardy", "--table", "8..8", "--grid", "10000")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "N,classical,dipole_inverse_lambda,method,grid"
        fields = lines[1].split(",")
        assert fields[0] == "8"
        assert float(fields[2]) == pytest.approx(26.7407, rel=5e-3)

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "hardy", "--table", "4..5", "--grid", "400",
                           "--method", "both", "--format", "json")
        assert code == 0
        doc = validate(out)
        rows = doc["results"]["rows"]
        assert [r["N"] for r in rows] == [4, 4, 5, 5]
        assert [r["method"] for r in rows] == ["pencil", "bisection"] * 2

    def test_each_grid_builds_once(self, capsys, monkeypatch):
        builds, build = [], angular.PolarGrid.build
        monkeypatch.setattr(angular.PolarGrid, "build",
                            classmethod(lambda cls, *a: builds.append(a) or build(*a)))
        code, _, _ = run(capsys, "hardy", "--table", "3..5", "--grid", "200", "--method", "both")
        assert code == 0 and builds == [(N, 200, "node") for N in (3, 4, 5)]

    # every grid builds before any solve, so a range that reaches the |S^(N-1)|
    # overflow or the flux underflow fails at once, naming the first N that fails
    @pytest.mark.parametrize("argv,line", [
        pytest.param(("hardy", "--table", "340..345", "--grid", "100"),
                     "|S^(N-1)| overflows float64 at N = 344 (grid M = 100)", id="argv0-100"),
        pytest.param(("hardy", "--table", "3..9007199254740992"),
                     "|S^(N-1)| overflows float64 at N = 344 (grid M = 10000)", id="argv1-10000"),
        pytest.param(("hardy", "--table", "118..123", "--grid", "100", "--sampling", "flux"),
                     "flux sampling at N = 122 on M = 100 polar nodes: "
                     "sin^(N-2) underflows next to the poles", id="argv2-100"),
    ])
    def test_too_large_dimension_fails_before_any_solve(self, capsys, monkeypatch, argv, line):
        def unexpected(*args):
            raise AssertionError("solved a dimension")

        monkeypatch.delenv("DIPOLESPEC_GRID_M", raising=False)
        monkeypatch.setattr(hardy, "critical_dipole_coupling", unexpected)
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err == f"numerical failure: {line}\n"

    def test_nonpositive_potential_at_default_grid(self, capsys, monkeypatch):
        # ess sup a <= 0: the best constant is 0, whatever the grid
        monkeypatch.delenv("DIPOLESPEC_GRID_M", raising=False)
        code, out, _ = run(capsys, "hardy", "--dim", "4", "--potential", "constant:-1")
        assert code == 0
        assert out.splitlines() == ["lambda_n,critical_coupling,maximizer_tower", "0,,0"]

    @pytest.mark.parametrize("argv,keys", [
        (("hardy", "--grid", "300"), ["dim", "grid", "potential", "sampling"]),
        (("hardy", "--table", "4", "--grid", "300"), ["dims", "grid", "method", "sampling"]),
    ])
    def test_inputs_of_each_mode(self, capsys, argv, keys):
        # each mode records its own flags, with the defaults it resolved
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        inputs = validate(out)["inputs"]
        assert sorted(inputs) == keys
        assert inputs["sampling"] == ("node" if "--table" in argv else "flux")

    def test_single_potential_mode(self, capsys):
        code, out, _ = run(capsys, "hardy", "--dim", "4", "--potential", "constant:1",
                           "--grid", "500", "--format", "json")
        assert code == 0
        doc = validate(out)
        assert doc["results"]["lambda_n"] == pytest.approx(1.0, abs=1e-8)

    def test_critical_coupling_ignores_the_scale(self, capsys):
        # Lambda is homogeneous of degree 1, so a tiny coupling gives the
        # same critical coupling as the unit one while Lambda stays normal
        for coupling in ("1", "1e-15", "1e-300", "-1e-300"):
            code, out, _ = run(capsys, "hardy", "--dim", "4", "--grid", "400",
                               "--potential", f"dipole:{coupling}")
            assert code == 0
            assert out.splitlines()[1].split(",")[1] == "3.789835711"

    @pytest.mark.parametrize("potential,value", [
        # 2.638310549e-321 held about 9 significant bits, and 5e-324 printed 0
        # beside a critical coupling
        ("dipole:1e-320", "2.64e-321"),
        ("dipole:5e-324", "0"),
        ("constant:1e-320", "1e-320"),
    ])
    def test_a_subnormal_best_constant_exits_3(self, capsys, potential, value):
        code, out, err = run(capsys, "hardy", "--dim", "4", "--grid", "400",
                             "--potential", potential)
        assert (code, out) == (3, "")
        assert err.startswith(f"numerical failure: Lambda_N = {value} is below the smallest "
                              "normal float64")


class TestSpectrumCommand:
    def test_csv_and_determinism(self, capsys):
        args = ("spectrum", "--dim", "3", "--potential", "constant:0",
                "--grid", "300", "--count", "9")
        code, out1, _ = run(capsys, *args)
        assert code == 0
        assert out1.splitlines()[0] == "k,mu"
        code, out2, _ = run(capsys, *args)
        assert out1 == out2  # byte-identical reruns

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--dim", "3", "--potential",
                           "dipole:1.0", "--grid", "300", "--count", "6",
                           "--format", "json")
        doc = validate(out)
        assert len(doc["results"]["eigenvalues"]) == 6
        assert doc["results"]["weyl"] is None


    def test_mu1_line_does_not_depend_on_the_count(self, capsys):
        lines = set()
        for count in ("5", "20", "80"):
            code, out, _ = run(capsys, "spectrum", "--grid", "2000", "--count", count)
            assert code == 0
            lines.add(out.splitlines()[1])
        assert lines == {"1,-0.1576633627"}

    @pytest.mark.parametrize("dim", ["3", "5"])
    def test_free_sup_ratio_skips_the_rounded_zero(self, capsys, dim):
        # the free ground value is zero up to rounding, about 1e-11 here
        code, out, _ = run(capsys, "spectrum", "--dim", dim, "--potential", "constant:0",
                           "--grid", "1200", "--count", "30", "--format", "json")
        assert code == 0
        assert 0.0 < validate(out)["results"]["sup_ratio"] < 0.25

    @pytest.mark.parametrize("potential", ["constant:-1e300", "dipole:1e300"])
    def test_unresolvable_potential_exits_3(self, capsys, potential):
        code, out, err = run(capsys, "spectrum", "--potential", potential)
        assert code == 3 and out == ""
        assert err.startswith("numerical failure") and "float64 cannot resolve" in err


TABLE_COMMANDS = {
    "spectrum": ("spectrum", "--count", "2"),
    "hardy": ("hardy",),
    "cauchy": ("cauchy", "--scenario", "manufactured-radial", "--modes", "2",
               "--points", "20"),
}


@pytest.mark.parametrize("command", sorted(TABLE_COMMANDS))
@pytest.mark.parametrize("content", ["1\n2\nx\n1\n1\n1\n1\n1\n",
                                     "1\n2\n3 4\n1\n1\n1\n1\n1\n",
                                     "1\nnan\n1\n1\n1\n1\n1\n1\n",
                                     "1\n-inf\n1\n1\n1\n1\n1\n1\n",
                                     ""],
                         ids=["non-numeric", "ragged", "nan", "-inf", "empty"])
def test_malformed_table_exits_2(capsys, tmp_path, command, content):
    table = tmp_path / "a.txt"
    table.write_text(content)
    # pytest would keep a warning off stderr, so record any that is raised
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *TABLE_COMMANDS[command], "--grid", "8",
                             "--potential", f"table:{table}")
    assert code == 2 and out == ""
    assert [str(w.message) for w in caught] == []
    assert err.startswith("error:") and err.count("\n") == 1


class TestRadialCommand:
    def test_profile_csv(self, capsys):
        code, out, _ = run(capsys, "radial", "--dim", "3", "--mu", "2",
                           "--perturbation", "manufactured:1.5", "--points", "60",
                           "--rmin", "1e-5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "rho,phi,phi_over_rho_sigma"
        assert len(lines) == 61
        last = lines[-1].split(",")
        assert float(last[1]) == pytest.approx(2.0, abs=1e-10)

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "radial", "--dim", "3", "--mu", "2",
                           "--perturbation", "zero", "--points", "50",
                           "--format", "json")
        doc = validate(out)
        assert doc["results"]["limit_coefficient"] == pytest.approx(1.0)

    def test_numerical_failure_exit_3(self, capsys):
        code, _, err = run(capsys, "radial", "--dim", "3", "--mu", "2",
                           "--perturbation", "power:500,1", "--points", "80")
        assert code == 3
        assert "numerical failure" in err


class TestCauchyCommand:
    def test_radial_scenario(self, capsys):
        code, out, _ = run(capsys, "cauchy", "--scenario", "manufactured-radial",
                           "--radii", "0.3,0.6,0.9", "--grid", "400",
                           "--modes", "8", "--points", "200", "--format", "json")
        assert code == 0
        doc = validate(out)
        vals = doc["results"]["values"]
        assert max(vals) - min(vals) < 1e-4
        assert vals[0] == pytest.approx(1.0, abs=1e-4)

    def test_mode_scenario(self, capsys):
        code, out, _ = run(capsys, "cauchy", "--scenario", "mode:2",
                           "--radii", "0.4,0.8", "--grid", "400",
                           "--modes", "12", "--points", "200", "--format", "json")
        doc = validate(out)
        vals = doc["results"]["values"]
        assert max(vals) - min(vals) < 1e-4

    def test_unknown_scenario_exit_2(self, capsys):
        code, _, err = run(capsys, "cauchy", "--scenario", "bogus", "--grid", "300")
        assert code == 2

    def test_convergence_table_output(self, capsys):
        code, out, _ = run(capsys, "cauchy", "--scenario", "manufactured-nonradial",
                           "--grid", "400", "--modes", "12", "--points", "200",
                           "--limit-table")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "rho,estimate,defect"
        assert len(lines) == 4
        assert float(lines[1].split(",")[1]) == pytest.approx(1.0, abs=1e-3)

    def test_manufactured_radial_is_the_ground_mode(self, capsys):
        docs = []
        for scenario in ("manufactured-radial", "mode:1"):
            code, out, _ = run(capsys, "cauchy", "--scenario", scenario, "--grid", "300",
                               "--modes", "8", "--points", "100", "--format", "json")
            assert code == 0
            docs.append(validate(out))
        assert docs[0]["results"] == docs[1]["results"]
        assert docs[1]["results"]["limit_table"] is not None
        code, out, _ = run(capsys, "cauchy", "--scenario", "mode:1", "--grid", "300",
                           "--modes", "8", "--points", "100", "--limit-table")
        assert code == 0
        assert out.splitlines()[0] == "rho,estimate,defect"

    def test_limit_table_needs_ground_scenario(self, capsys):
        code, _, err = run(capsys, "cauchy", "--scenario", "mode:2", "--grid", "300",
                           "--limit-table")
        assert code == 2
        assert "ground-mode scenarios" in err

    @pytest.mark.parametrize("scenario,flags", [
        ("manufactured-radial", {"beta": 1.0}),
        ("mode:2", {"beta": 1.0}),
        ("manufactured-nonradial", {"eps": 1.0, "gscale": 0.2}),
    ])
    def test_inputs_of_each_scenario(self, capsys, scenario, flags):
        # each scenario records its own flags, with the defaults it resolved
        code, out, _ = run(capsys, "cauchy", "--scenario", scenario, "--grid", "300",
                           "--modes", "8", "--points", "100", "--format", "json")
        assert code == 0
        inputs = validate(out)["inputs"]
        assert {k: v for k, v in inputs.items() if k in ("beta", "eps", "gscale")} == flags

    def test_sampling_is_honoured_and_recorded(self, capsys):
        outs = {}
        for sampling in ("node", "flux"):
            code, out, _ = run(capsys, "cauchy", "--scenario", "manufactured-radial",
                               "--dim", "4", "--grid", "300", "--modes", "8",
                               "--points", "100", "--sampling", sampling,
                               "--format", "json")
            assert code == 0
            doc = validate(out)
            assert doc["inputs"]["sampling"] == sampling
            outs[sampling] = doc["results"]
        assert outs["node"] != outs["flux"]


# a field job computes no eigenvalue of a tower m >= 1: the bracket and the
# keep rule are `count_at_most` counts, and the one tower solve is `polar_eigen`
# of the m = 0 tower
@pytest.mark.parametrize("argv", [
    ("cauchy", "--scenario", "manufactured-radial", "--grid", "400", "--modes", "12",
     "--points", "100"),
    ("sandwich", "--grid", "400", "--points", "200"),
])
def test_field_commands_solve_only_the_m0_tower(capsys, monkeypatch, argv):
    solves = []
    eigen, values = angular.polar_eigen, angular._tower_values
    monkeypatch.setattr(angular, "polar_eigen",
                        lambda matrix, x: solves.append(matrix.diag) or eigen(matrix, x))
    monkeypatch.setattr(angular, "_tower_values",
                        lambda *a: solves.append(None) or values(*a))
    code, _, _ = run(capsys, *argv)
    assert code == 0
    axial = angular.assemble_polar_operator(angular.AngularPotential.dipole(1.0), 0,
                                            angular.PolarGrid.build(3, 400))
    [diag] = solves
    assert np.array_equal(diag, axial.diag)


@pytest.mark.parametrize("argv", [
    ("spectrum", "--grid", "200", "--count", "10"),
    ("cauchy", "--scenario", "manufactured-radial", "--grid", "100", "--modes", "8",
     "--points", "40"),
])
@pytest.mark.parametrize("fault", ["singular-shift", "no-acceptance"])
def test_a_failed_iteration_exits_3(capsys, monkeypatch, argv, fault):
    # a tower solve whose shift dgttrf finds singular, or whose quotients never
    # meet the residual bound, is an EigenSolveError: exit 3 with nothing on
    # stdout, never a truncated result
    if fault == "singular-shift":
        factor, message = angular.dgttrf, "is an eigenvalue to the bit (dgttrf info 1)"
        monkeypatch.setattr(angular, "dgttrf", lambda *a, **kw: (*factor(*a, **kw)[:-1], 1))
    else:
        quotient, message = angular._quotient, "was not accepted in 8 steps"
        monkeypatch.setattr(angular, "_quotient", lambda *a: (quotient(*a)[0], math.inf))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "") and err.startswith("numerical failure: ") and message in err


def test_spectrum_rows_do_not_depend_on_the_count(capsys):
    # the bracket hi moves with the count, but an m >= 1 value is a converged
    # Rayleigh quotient and the m = 0 pairs are prefixes: no printed digit moves
    argv = ("spectrum", "--dim", "3", "--potential", "dipole:1.0", "--count")
    rows = {}
    for count in (20, 30, 40):
        code, out, _ = run(capsys, *argv, str(count))
        assert code == 0
        rows[count] = out.splitlines()[:21]  # the header and the first 20 rows
    assert rows[20] == rows[30] == rows[40]


class TestSandwichCommand:
    def test_report_schema(self, capsys):
        code, out, _ = run(capsys, "sandwich", "--grid", "400", "--points", "200")
        assert code == 0
        doc = validate(out)
        assert doc["results"]["ordered"] is True
        assert doc["inputs"]["sampling"] == "flux"

    def test_json_is_the_only_format(self, capsys):
        argv = ("sandwich", "--grid", "400", "--points", "200")
        _, default, _ = run(capsys, *argv)
        _, explicit, _ = run(capsys, *argv, "--format", "json")
        assert default == explicit
        validate(default)

    @pytest.mark.parametrize("flags,names", [
        (("--eps", "1e-9"), "keeps 0 radial nodes (innermost 1e-08)"),  # admissible radius 0
        (("--rmin", "0.999"), "keeps 0 radial nodes (innermost 0.999)"),
        (("--points", "8"), "keeps 7 radial nodes"),
    ])
    def test_comparison_radius_off_the_grid_exits_2(self, capsys, flags, names):
        argv = ("sandwich", "--grid", "400", "--points", "200") + flags
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        (line,) = err.strip().splitlines()
        assert line.startswith("error: comparison radius")
        assert "admissible radius" in line and names in line


    @pytest.mark.parametrize("argv,message", [
        (("sandwich", "--eps", "0"), "eps must be positive, got 0.0"),
        (("sandwich", "--eps", "-1"), "eps must be positive, got -1.0"),
        (("sandwich", "--radius-fraction", "2"), "radius fraction 2.0 must lie in (0, 1]"),
        (("sandwich", "--radius-fraction", "0"), "radius fraction 0.0 must lie in (0, 1]"),
        (("cauchy", "--scenario", "manufactured-nonradial", "--eps", "0"),
         "eps must be positive, got 0.0"),
    ])
    def test_input_errors_exit_2_before_any_grid(self, capsys, monkeypatch, argv, message):
        # at M = 50 the default --modes 80 of sandwich is a numerical failure
        # (exit 3) once a spectrum is attempted; the input error comes first
        builds = []
        monkeypatch.setattr(angular.PolarGrid, "build", lambda *a: builds.append(a))
        monkeypatch.setattr(angular, "axisymmetric_spectrum", lambda *a: builds.append(a))
        code, out, err = run(capsys, *argv, "--grid", "50", "--points", "200")
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert builds == []


class TestBkCommand:
    def test_csv_header_and_values(self, capsys):
        code, out, _ = run(capsys, "bk", "--n", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,q_n,r_n,b_n,partial_sum,partial_product"
        assert lines[1].startswith("1,4,1,")

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "bk", "--n", "5", "--format", "json")
        doc = validate(out)
        assert len(doc["results"]["rows"]) == 5

    # largest n with q_n = 2 (N/(N-2))^n below the float64 maximum
    @pytest.mark.parametrize("dim,n_cap", [(3, 645), (4, 1022)])
    def test_n_past_float_range_rejected(self, capsys, dim, n_cap):
        code, out, err = run(capsys, "bk", "--dim", str(dim), "--n", str(n_cap + 1))
        assert code == 2
        assert f"largest allowed n is {n_cap}" in err
        code, out, _ = run(capsys, "bk", "--dim", str(dim), "--n", str(n_cap),
                           "--format", "json")
        assert code == 0
        results = validate(out)["results"]
        rows = results.pop("rows")
        assert len(rows) == n_cap
        values = [v for row in rows for v in row.values()] + list(results.values())
        assert all(math.isfinite(v) for v in values)

    def test_n_far_past_float_range_rejected_before_allocating(self, capsys):
        # a stage array of this size (7.11 PiB) cannot be allocated at all
        code, out, err = run(capsys, "bk", "--n", "1000000000000000")
        assert code == 2 and out == ""
        assert err == ("error: q_n overflows float64 for n > 1022: the largest allowed n "
                       "is 1022 for these inputs, got 1000000000000000\n")


class TestErrorsAndEnv:
    @pytest.mark.parametrize(
        "argv,want",
        [
            (("bk", "--n", "20", "--vnorm", "1e300"), 3),
            (("radial", "--mu", "100", "--rmin", "1e-300", "--points", "20",
              "--format", "json"), 3),
            (("cauchy", "--scenario", "manufactured-nonradial", "--grid", "60",
              "--modes", "6", "--points", "40", "--rmin", "1e-300"), 3),
            (("sandwich", "--grid", "60", "--modes", "6", "--points", "40",
              "--gscale", "0"), 0),
            (("cauchy", "--scenario", "manufactured-radial", "--grid", "60",
              "--modes", "6", "--points", "40", "--rmin", "1e-300"), 3),
            (("cauchy", "--scenario", "manufactured-nonradial", "--grid", "60",
              "--modes", "6", "--points", "8", "--rmin", "1e-300", "--eps", "60"), 3),
            (("sandwich", "--grid", "60", "--modes", "6", "--points", "40",
              "--rmin", "1e-300"), 3),
            # (rho_1 / rho_0)^eps rounds to 1: the limit extrapolation is 0/0
            (("cauchy", "--scenario", "manufactured-nonradial", "--grid", "40",
              "--modes", "6", "--points", "20", "--rmin", "0.99", "--radii", "0.995",
              "--eps", "1e-15"), 3),
        ],
    )
    def test_nonfinite_results_are_never_printed(self, capsys, argv, want):
        # a NaN or infinity among the results is a numerical failure; the one
        # value infinite by definition, an unbounded admissible radius, is null
        # pytest would keep a warning off stderr, so record any that is raised
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv)
        assert code == want
        assert not any(word in out for word in ("NaN", "Infinity", "nan", "inf"))
        if want == 3:
            assert out == ""
            # no numpy RuntimeWarning comes before the failure line
            assert [str(w.message) for w in caught] == []
            assert err.startswith("numerical failure") and err.count("\n") == 1
        else:
            assert validate(out)["results"]["admissible_radius"] is None


    # sin^(N-2) or |S^(N-1)| leaves the float64 range: flux off-diagonal, sphere areas
    @pytest.mark.parametrize("argv,N,M", [
        (("spectrum", "--dim", "60", "--count", "5", "--grid", "10000"), 60, 10000),
        (("sandwich", "--dim", "60", "--grid", "10000"), 60, 10000),
        (("spectrum", "--dim", "80", "--grid", "800"), 80, 800),
        (("hardy", "--dim", "80", "--grid", "800"), 80, 800),
        (("hardy", "--dim", "345", "--grid", "100"), 345, 100),
        (("hardy", "--table", "340..346", "--grid", "100"), 344, 100),
        # node sampling: psi = w / sin^((N-2)/2) overflows next to the poles
        (("spectrum", "--dim", "300", "--grid", "10000", "--sampling", "node",
          "--count", "5"), 300, 10000),
    ])
    def test_large_dimension_exits_3(self, capsys, argv, N, M):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv)
        assert [str(w.message) for w in caught] == []
        assert code == 3 and out == ""
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert f"N = {N}" in err and f"M = {M}" in err

    # node sampling has no product of weights, and the best constant needs no
    # profile psi, which would leave the float64 range next to the poles
    @pytest.mark.parametrize("argv", [
        ("hardy", "--dim", "80", "--grid", "800", "--sampling", "node"),
        ("hardy", "--table", "80..80", "--grid", "800"),
        ("hardy", "--dim", "140", "--grid", "800", "--sampling", "node"),
    ])
    def test_large_dimension_node_sampling_exits_0(self, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv)
        assert [str(w.message) for w in caught] == []
        assert code == 0 and err == ""

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sigma", "--dim", "4", "--mu", "0", "--frob"])
        assert exc.value.code == 2

    # the m = 0 modes among the --modes lowest values are fewer than the run needs
    @pytest.mark.parametrize("argv,want", [
        (("sandwich", "--grid", "200", "--points", "50", "--modes", "2"),
         "mode 2 needs a larger --modes: the 2 lowest sphere eigenvalues include 1 "),
        (("cauchy", "--scenario", "mode:99", "--modes", "10"),
         "mode 99 needs a larger --modes: the 10 lowest sphere eigenvalues include 3 "),
    ], ids=["sandwich", "cauchy"])
    def test_too_few_modes_names_the_flag(self, capsys, argv, want):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: " + want) and err.count("\n") == 1

    # a mode index below 1 is rejected before any grid is built or spectrum solved
    @pytest.mark.parametrize("scenario", ["mode:0", "mode:-3"])
    def test_mode_index_below_one_exits_2_before_any_solve(self, capsys, monkeypatch, scenario):
        def no_solve(*args):
            raise AssertionError("axisymmetric_spectrum was called")

        monkeypatch.setattr(angular, "axisymmetric_spectrum", no_solve)
        code, out, err = run(capsys, "cauchy", "--scenario", scenario)
        assert code == 2 and out == ""
        assert err == f"error: mode index must be >= 1 in {scenario!r}\n"

    def test_parser_follows_the_grid_env_across_calls(self, capsys, monkeypatch):
        grids = []
        for size in ("50", "60", "50"):
            monkeypatch.setenv("DIPOLESPEC_GRID_M", size)
            assert build_parser() is build_parser()
            code, out, _ = run(capsys, "spectrum", "--count", "3", "--format", "json")
            assert code == 0
            grids.append(validate(out)["inputs"]["grid"])
        assert grids == [50, 60, 50]

    def test_grid_env_default(self, monkeypatch):
        monkeypatch.setenv("DIPOLESPEC_GRID_M", "123")
        parser = build_parser()
        args = parser.parse_args(["spectrum"])
        assert args.grid == 123

    # integers past 2^53 in magnitude, where float64 stops holding every
    # integer, are rejected before they reach a float or a range
    @pytest.mark.parametrize("argv", [
        ("sigma", "--dim", "9" * 400, "--mu", "1"),
        ("radial", "--dim", "9" * 400, "--mu", "1"),
        ("bk", "--dim", "9" * 400),
        ("hardy", "--table", "3..10000000000000000000000"),
    ], ids=["sigma", "radial", "bk", "hardy-table"])
    def test_huge_integer_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: integer outside +-2^53") and err.count("\n") == 1

    # grids this size (7.11 PiB of float64) cannot be allocated at all
    @pytest.mark.parametrize("argv", [
        ("spectrum", "--grid", "1000000000000000"),
        ("radial", "--mu", "1", "--points", "1000000000000000"),
    ])
    def test_unallocatable_size_exits_3(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith("numerical failure: ") and err.count("\n") == 1

    @pytest.mark.parametrize("target", [".", "missing/x.csv"], ids=["directory", "no-parent"])
    def test_unwritable_output_file_exits_2(self, capsys, tmp_path, target):
        path = str(tmp_path / target)
        code, out, err = run(capsys, "sigma", "--dim", "3", "--mu", "1", "--out", path)
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {path!r}") and err.count("\n") == 1

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, out, _ = run(capsys, "sigma", "--dim", "4", "--mu", "0",
                           "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().strip() == "0, -2"


def reference_field(x) -> str:
    """One CSV field rendered value by value: None empty, ints whole, floats to 10 digits."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x)
    return f"{float(x):.10g}"


# CSV rows and the JSON records of the same run carry the same values
@pytest.mark.parametrize("argv,key", [
    (("radial", "--mu", "2", "--perturbation", "manufactured:1.5", "--points", "300"), "profile"),
    (("bk", "--n", "40"), "rows"),
    (("hardy", "--table", "3..4", "--grid", "200", "--method", "both"), "rows"),
])
def test_csv_rows_render_like_the_reference(capsys, argv, key):
    code, csv_out, _ = run(capsys, *argv)
    assert code == 0
    code, json_out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    header, *lines = csv_out.splitlines()
    names = header.split(",")
    records = validate(json_out)["results"][key]
    assert lines == [",".join(reference_field(r[n]) for n in names) for r in records]


# SHA-256 of stdout, each taken before a change to the table writer.  Three
# JSON pins print a pencil value to 17 digits and were re-taken when the
# pencil moved from banded LU solves to triangular band solves.  Three more
# print sphere values or m = 0 profiles to 17 digits and were re-taken when
# the towers moved from tight bisection to Rayleigh quotients of inverse
# iteration from coarse cells: the manufactured-nonradial cauchy, the N = 4
# spectrum and the sandwich.  The N = 4 spectrum was re-taken once more when
# the bracket moved to the free sphere's level: 102 of its 120 values, all of
# towers m >= 1, moved with the probe's range by at most 5.4e-14 relative,
# and again when those towers started from guesses that counts certify in
# place of the probe: 108 values moved by at most 0.016 eps ||T_m||_1.
# Every CSV pin kept its hash.
PINNED_TABLES = [
    (("radial", "--dim", "3", "--mu", "2", "--perturbation", "manufactured:1.3",
      "--points", "4000"), "9e7e57ac1887f0e79d0dbf5cd5f71f29935d9fd31987cdbefa81a7fd530c1cda"),
    (("radial", "--dim", "3", "--mu", "2", "--perturbation", "manufactured:1.3",
      "--points", "4000", "--format", "json"),
     "a0ac039568ceabc0f3bbf8e5caaeaf3465ff622d04a06ea9cc0ea20e734adaee"),
    (("hardy", "--table", "3..5", "--grid", "10000"),
     "e2184681b3f46c3d4d232556fde07583b9e0903d1f72be456b7aeb89366a9b36"),
    (("bk", "--format", "json"), "3537f2cc6850749654d05f5c88e0a10a5d93deeaf30f6f2cc76d073d4eefa400"),
    (("sigma", "--dim", "4", "--mu", "0"),
     "3886ec17f1cad26c3c8dcbcf2ac75a65f97736c861be04fee1810f1273917809"),
    (("hardy", "--dim", "3", "--potential", "constant:0.3", "--grid", "300"),
     "97b5aeae9e632c9724da7fbacb648d89d8ee0a34c0a25793f7bfec46566b3485"),
    (("spectrum", "--dim", "3", "--count", "20", "--grid", "400"),
     "9bb239b66df59c285723cd099bd4ea3c26cf5035edc7a2057a4301a47bfd8a51"),
    (("cauchy", "--scenario", "manufactured-radial", "--grid", "200", "--modes", "10"),
     "1fa801fa90a79724b13a9ede6db99c40b6d2773b20e321dda2babf9ffa41d516"),
    (("cauchy", "--scenario", "manufactured-radial", "--grid", "200", "--modes", "10",
      "--limit-table"), "9b23092fa45a25fae673503282b14ef6999b9b612ab0940ff6b56df419ace4fe"),
    (("bk", "--n", "30"), "6ebafe3a10538d71ec67e4b70c0dc456bde5e1cff6ef1ca6647aab1919abad95"),
    (("hardy", "--table", "3..5", "--grid", "2000", "--method", "both", "--format", "json"),
     "e7039f30217c06a7d35cc8e5a8f428b195d9da113bb4c926a63c41d24dcab700"),
    (("cauchy", "--scenario", "manufactured-nonradial", "--grid", "200", "--modes", "10",
      "--format", "json"), "f89047e31a491534e7c08025fc07f6836fadf5e2acf9c6e699daaa22c991b4f1"),
    (("spectrum", "--dim", "4", "--potential", "constant:0.5", "--count", "120", "--grid", "300",
      "--format", "json"), "26c17d96d3f9b41606fb1d6b5a919feee7f52e1c506ace1fd6e46f99f19f1785"),
    (("sandwich", "--grid", "400", "--modes", "40"),
     "843d37941d685356e4fa65e22f128c85a5589c2a82622ba0401c51920eb38ec5"),
    (("hardy", "--dim", "3", "--potential", "constant:0.3", "--grid", "300", "--format", "json"),
     "abb8073fa759f01583e8a61263d9636fd6dcfb226501854b3eaeff0750646c1a"),
    (("sigma", "--dim", "4", "--mu", "0", "--format", "json"),
     "49bd8b8c9907636348f4c64bec5604f0749f7ed6bae38e320c99e04814121d90"),
]


# every column holds one value type, and all go through one template
@settings(max_examples=100, deadline=None)
@given(data=st.data(), n_rows=st.integers(0, 5), kinds=st.lists(st.sampled_from([
    st.none(), st.integers(), st.floats(allow_nan=False, allow_infinity=False), st.text(),
]), min_size=1, max_size=4))
def test_csv_lines_render_every_value_like_the_reference(data, n_rows, kinds):
    columns = [data.draw(st.lists(kind, min_size=n_rows, max_size=n_rows)) for kind in kinds]
    want = [", ".join(map(reference_field, row)) for row in zip(*columns)]
    assert cli._csv_lines(columns, ", ") == want


@pytest.mark.parametrize("column", [[1, 2.5], [None, 1.0], ["a", 1]])
def test_a_column_of_mixed_value_types_is_a_type_error(column):
    with pytest.raises(TypeError, match="mixes"):
        cli._csv_lines([[0.5, 1.5], column], ",")


@pytest.mark.parametrize("column", [[1, -2, 2**70], [True, False], [1, True, 2.5], [0, None]])
def test_an_int_column_writes_what_json_dumps_writes(column):
    assert cli._json(column) == json.dumps(column, indent=2, sort_keys=True, allow_nan=False)


@pytest.mark.parametrize("argv,digest", PINNED_TABLES)
def test_tables_keep_their_bytes(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("column", range(6))
def test_a_nan_in_one_bk_column_exits_3(capsys, monkeypatch, tmp_path, fmt, column):
    solve = brezis_kato.iteration_constants

    def with_nan(*args):
        table = solve(*args)
        rows = [list(row) for row in table.rows]
        rows[3][column] = math.nan
        return dataclasses.replace(table, rows=tuple(map(tuple, rows)))

    monkeypatch.setattr(brezis_kato, "iteration_constants", with_nan)
    target = tmp_path / f"bk.{fmt}"
    code, out, err = run(capsys, "bk", "--n", "20", "--format", fmt, "--out", str(target))
    assert (code, out, err) == (3, "", "numerical failure: bk produced a non-finite result\n")
    assert not target.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_nan_coupling_in_the_hardy_table_exits_3(capsys, monkeypatch, tmp_path, fmt):
    monkeypatch.setattr(hardy, "critical_dipole_coupling",
                        lambda grid, method: math.nan if grid.dim == 4 else 1.0)
    target = tmp_path / f"table.{fmt}"
    code, out, err = run(capsys, "hardy", "--table", "3..5", "--grid", "100",
                         "--format", fmt, "--out", str(target))
    assert (code, out) == (3, "") and err.startswith("numerical failure: hardy-table")
    assert not target.exists()


# one small successful run of each command, keyed by the command its document names
RESULT_RUNS = {
    "spectrum": ("spectrum", "--potential", "constant:0.3", "--grid", "200", "--count", "100"),
    "hardy": ("hardy", "--grid", "200"),
    "hardy-table": ("hardy", "--table", "3", "--grid", "200"),
    "sigma": ("sigma", "--dim", "4", "--mu", "0"),
    "radial": ("radial", "--mu", "2", "--points", "20"),
    "cauchy": ("cauchy", "--scenario", "manufactured-radial", "--grid", "100",
               "--modes", "8", "--points", "40"),
    "sandwich": ("sandwich", "--grid", "400", "--points", "200"),
    "bk": ("bk", "--n", "5"),
}


@pytest.mark.parametrize("command", sorted(RESULT_RUNS))
def test_results_keys_are_the_required_ones(capsys, command):
    """The result objects define the JSON keys; no field leaks in or drops out."""
    code, out, _ = run(capsys, *RESULT_RUNS[command], "--format", "json")
    assert code == 0
    doc = validate(out)
    assert doc["command"] == command
    schema = next(branch["properties"]["results"] for branch in SCHEMA["oneOf"]
                  if branch["properties"]["command"]["const"] == command)
    assert sorted(doc["results"]) == sorted(schema["required"])
    if command == "spectrum":  # the Weyl block, from its own result object
        weyl = schema["properties"]["weyl"]["oneOf"][1]
        assert sorted(doc["results"]["weyl"]) == sorted(weyl["required"])


def _readme_commands():
    """The argv of each `dipolespec ...` line in README's CLI code block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    return [tuple(words[1:]) for words in lines if words[:1] == ["dipolespec"]]


def test_readme_cli_block_has_the_commands():
    assert len(_readme_commands()) == 9


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_cli_block_runs(capsys, tmp_path, argv):
    target = tmp_path / "out"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 0 and out == "" and err == ""
    if argv == ("sigma", "--dim", "4", "--mu", "0"):
        assert target.read_text().strip() == "0, -2"


# the field jobs of one `limits` benchmark batch: one spectrum key, eight outputs
LIMITS_FIELD_JOBS = [
    ("cauchy", "--scenario", "manufactured-radial", "--beta", "1.1",
     "--radii", "0.2,0.4,0.6,0.8"),
    ("cauchy", "--scenario", "manufactured-radial", "--beta", "1.3",
     "--radii", "0.3,0.5,0.7,0.9", "--format", "json"),
    ("cauchy", "--scenario", "manufactured-nonradial", "--limit-table", "--eps", "0.9"),
    ("cauchy", "--scenario", "manufactured-nonradial", "--eps", "1.1",
     "--radii", "0.2,0.3,0.6,0.9", "--format", "json"),
    ("cauchy", "--scenario", "mode:2", "--beta", "0.9", "--radii", "0.3,0.6,0.9"),
    ("cauchy", "--scenario", "mode:2", "--beta", "1.4", "--radii", "0.2,0.5,0.8",
     "--format", "json"),
    ("sandwich", "--eps", "0.85"),
    ("sandwich", "--eps", "1.15"),
]


def test_remembered_spectrum_leaves_every_output_byte_identical(tmp_path):
    shared = ("--potential", "dipole:0.8", "--grid", "800", "--modes", "40")
    outputs = {}
    for warm in (False, True):
        for i, job in enumerate(LIMITS_FIELD_JOBS):
            if not warm:
                angular._axisymmetric_memo.cache_clear()
            points = ("--points", "200" if job[0] == "sandwich" else "2000")
            out = tmp_path / f"{warm}-{i}"
            assert main([*job, *shared, *points, "--out", str(out)]) == 0
            outputs.setdefault(i, []).append(out.read_bytes())
    # every warm job hit the entry that the last cold job left (clearing resets the counts)
    info = angular._axisymmetric_memo.cache_info()
    assert (info.hits, info.misses) == (len(LIMITS_FIELD_JOBS), 1)
    for cold, warm in outputs.values():
        assert cold == warm


def test_a_ground_doublet_exits_3(tmp_path, capsys):
    grid = angular.PolarGrid.build(3, 140)
    table = tmp_path / "a.txt"
    np.savetxt(table, 200.0 * np.cos(2 * grid.nodes), fmt="%.17g")
    code, out, err = run(capsys, "spectrum", "--potential", f"table:{table}", "--grid", "140",
                         "--count", "27")
    assert (code, out) == (3, "") and "two lowest m = 0 eigenvalues" in err


@pytest.mark.parametrize("N,M", [(3, 455), (4, 319)])
def test_equal_cluster_members_are_solved_before_the_doublet_exits_3(tmp_path, capsys, N, M):
    # a = 200 cos 2t: the lowest m = 0 values pair up in clusters whose
    # bisected value is an eigenvalue to the bit (N = 3) or whose members lie
    # 5.7e-14 apart (N = 4); each member is solved, with no warning, and the
    # ground doublet ends the run
    grid = angular.PolarGrid.build(N, M)
    table = tmp_path / "a.txt"
    np.savetxt(table, 200.0 * np.cos(2 * grid.nodes), fmt="%.17g")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "spectrum", "--dim", str(N), "--grid", str(M), "--count", "10",
                             "--potential", f"table:{table}")
    assert (code, out, caught) == (3, "", []) and "Warning" not in err
    assert "two lowest m = 0 eigenvalues" in err


@pytest.mark.parametrize("gscale", [["--gscale=0.0"], []])
def test_an_eps_whose_source_overflows_is_named(capsys, gscale):
    # eps (eps + 2 sigma + N - 2) overflows: the error names eps, not the NaN
    # or zero radius that the overflow would leave
    code, out, err = run(capsys, "sandwich", "--eps=1e300", *gscale, "--grid", "400",
                         "--modes", "40")
    assert (code, out) == (2, "") and "eps = 1e+300 is too large" in err


def test_a_table_rewritten_at_one_path_is_solved_again(tmp_path, capsys):
    grid = angular.PolarGrid.build(3, 400)
    table = tmp_path / "a.txt"
    argv = ("sandwich", "--potential", f"table:{table}", "--grid", "400", "--points", "200")
    outs = []
    for coupling in (0.8, 0.9):
        np.savetxt(table, coupling * np.cos(grid.nodes), fmt="%.17g")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        outs.append(out)
    assert angular._axisymmetric_memo.cache_info().misses == 2
    angular._axisymmetric_memo.cache_clear()
    assert outs[0] != outs[1] and run(capsys, *argv)[1] == outs[1]


JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.text()
                | st.floats(allow_nan=False, allow_infinity=False)
                | st.floats(allow_nan=False, allow_infinity=False).map(np.float64))


@st.composite
def json_records(draw):
    """A list of dicts with one key set, each key's values of one scalar kind or mixed."""
    keys = draw(st.lists(st.text(), min_size=1, max_size=4, unique=True))
    kinds = {key: draw(st.sampled_from([
        JSON_SCALARS, st.floats(allow_nan=False, allow_infinity=False), st.text()]))
        for key in keys}
    return draw(st.lists(st.fixed_dictionaries(kinds), min_size=1, max_size=6))


JSON_DOCUMENTS = st.recursive(
    JSON_SCALARS | json_records(),
    lambda children: (st.lists(children, max_size=5) | st.tuples(children, children)
                      | st.dictionaries(st.text(), children, max_size=5)),
    max_leaves=30,
)


class TestJsonEncoder:
    @settings(max_examples=150, deadline=None)
    @given(doc=JSON_DOCUMENTS)
    def test_same_text_as_json_dumps(self, doc):
        assert cli._json(doc) == json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
    @pytest.mark.parametrize("where", [
        lambda x: x, lambda x: [1.0, x], lambda x: {"a": [{"x": x}, {"x": 1.0}]},
        lambda x: {"a": [{"x": "s", "y": x}]},
    ])
    def test_a_nonfinite_float_is_refused(self, bad, where):
        with pytest.raises(ValueError, match="not JSON compliant"):
            json.dumps(where(bad), indent=2, sort_keys=True, allow_nan=False)
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._json(where(bad))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
    def test_a_nonfinite_float_in_a_table_is_refused(self, bad):
        with pytest.raises(ValueError, match="not JSON compliant"):
            json.dumps({"t": [{"x": 1.5}, {"x": bad}]}, allow_nan=False)
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._json({"t": cli._Table("x", [[1.5, bad]])})


@settings(max_examples=100, deadline=None)
@given(records=json_records())
def test_a_table_writes_the_records_json_dumps_writes(records):
    names = list(records[0])
    assume(not any("," in name for name in names))
    table = cli._Table(",".join(names), [[row[name] for row in records] for name in names])
    for doc, want in (({"t": table}, {"t": records}), ([[table]], [[records]])):
        assert cli._json(doc) == json.dumps(want, indent=2, sort_keys=True, allow_nan=False)


def test_a_table_without_rows_writes_an_empty_list():
    assert cli._json({"t": cli._Table("x,y", [[], []])}) == json.dumps({"t": []}, indent=2)


# a table is written through a placeholder string, NUL and its index
@pytest.mark.parametrize("text", ["\x000", "\x001", "\x0012", 'x"\x000', "\x000\x000"])
@pytest.mark.parametrize("place", [
    lambda t, s: {"a": s, "t": t}, lambda t, s: {"t": t, "z": s}, lambda t, s: [s, t, [s]],
    lambda t, s: {s: t}, lambda t, s: {"t": {s: [t, s]}},
])
def test_a_string_that_reads_as_a_placeholder_is_never_a_table(text, place):
    table = cli._Table("x,y", [[1.5, 2.5], ["a", "b"]])
    records = [{"x": 1.5, "y": "a"}, {"x": 2.5, "y": "b"}]
    want = json.dumps(place(records, text), indent=2, sort_keys=True, allow_nan=False)
    try:
        assert cli._json(place(table, text)) == want
    except ValueError as exc:
        assert "placeholder" in str(exc)


def test_a_placeholder_string_next_to_a_table_is_a_value_error():
    with pytest.raises(ValueError, match="placeholder"):
        cli._json(["\x000", cli._Table("x", [[1.5]])])
