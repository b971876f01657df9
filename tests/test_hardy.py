import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import eigh, eigvalsh_tridiagonal

from dipolespec import cli, hardy
from dipolespec.angular import (
    AngularPotential,
    PolarGrid,
    assemble_polar_operator,
    count_at_most,
    full_spectrum,
    polar_eigen,
)
from dipolespec.errors import BracketError, EigenSolveError, IndefiniteFormError, InputError
from dipolespec.hardy import (
    admissible_radius,
    critical_dipole_coupling,
    lambda_n,
)

from conftest import bound

# critical couplings 1/Lambda_N(cos) on the convergent scheme; frozen from a
# truncation-converged polynomial-basis computation of the same operator
# (independent of the finite-difference path)
SPECTRAL_CRITICAL = {
    3: 1.27862975,
    4: 3.78984519,
    5: 7.58393585,
    8: 26.74203534,
}


def tower_scan(potential, grid):
    """Reference best constant: the pencil of each tower m = 0..3, maximized over m.

    Returns (value, argmax tower).  Each pencil is solved for a / ess sup a,
    formed as sign(lam) cos t for a dipole, and scaled back, as lambda_n does.
    """
    N = grid.dim
    a = potential.sample(grid) / potential.ess_sup
    if potential.kind == "dipole":
        a = math.copysign(1.0, potential.coupling) * np.cos(grid.nodes)
    zero = AngularPotential.constant(0.0)
    best, best_m = -math.inf, 0
    for m in range(4):
        A = assemble_polar_operator(zero, m, grid).shifted(((N - 2) / 2.0) ** 2)
        val = hardy._lanczos_largest(A, a) * potential.ess_sup
        if val > best:
            best, best_m = val, m
    return best, best_m


@st.composite
def positive_potentials(draw, grid):
    """A dipole, a positive constant, or a tabulated potential with a positive sample."""
    kind = draw(st.sampled_from(["dipole", "constant", "tabulated"]))
    if kind == "dipole":
        coupling = draw(st.floats(0.05, 5.0)) * draw(st.sampled_from([1.0, -1.0]))
        return AngularPotential.dipole(coupling)
    if kind == "constant":
        return AngularPotential.constant(draw(st.floats(0.01, 3.0)))
    c0, c1, c2 = (draw(st.floats(-1.0, 1.0)) for _ in range(3))
    values = c0 + c1 * np.cos(grid.nodes) + c2 * np.cos(2 * grid.nodes)
    assume(np.max(values) > 1e-3)
    return AngularPotential.tabulated(values, grid)


def mu1_bisection(grid, tol):
    """Critical coupling by bisection on a solved mu_1; returns (coupling, mu_1 solves)."""
    N = grid.dim
    target = -(((N - 2) / 2.0) ** 2)
    solves = 0

    def mu1(lam):
        nonlocal solves
        solves += 1
        mat = assemble_polar_operator(AngularPotential.dipole(lam), 0, grid)
        return eigvalsh_tridiagonal(mat.diag, mat.off, select="i", select_range=(0, 0))[0]

    lo, hi = 0.0, 4.0 * (N - 2) ** 2
    while not mu1(hi) < target:
        hi *= 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mu1(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), solves


def assembled_count_bisection(grid):
    """Count-decided bisection that assembles the dipole tower at every step.

    Returns (coupling, the couplings tested in order).  critical_dipole_coupling
    assembles the zero-potential tower once instead; the steps must see the
    same matrices.
    """
    N = grid.dim
    target = -(((N - 2) / 2.0) ** 2)
    tested = []

    def positive(lam):
        tested.append(lam)
        mat = assemble_polar_operator(AngularPotential.dipole(lam), 0, grid)
        return count_at_most(mat, target) == 0

    lo, hi = 0.0, 4.0 * (N - 2) ** 2
    while positive(hi):
        hi *= 2.0
    while hi - lo > hardy._BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if positive(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), tested


def factored_bisection(grid, guess=None):
    """critical_dipole_coupling(grid, "bisection", guess) and a copy of each diagonal it factors."""
    factored, factor = [], hardy.dpttrf

    def recording(d, e, **kwargs):
        factored.append(d.copy())
        return factor(d, e, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hardy, "dpttrf", recording)
        return critical_dipole_coupling(grid, "bisection", guess), factored


def levels_climbed(top, guess, coupling):
    """Levels the guided bisection climbs from the interval of [0, top] it walks to for guess.

    The walk stops at the first dyadic interval no wider than
    max(2^-20 guess, the final bracket); the bisection of the same grid
    ends at coupling.  The climb ends at the deepest interval on the walk
    that still holds coupling.
    """
    lo, hi, depth, shared = 0.0, top, 0, None
    while hi - lo > max(2.0**-20 * guess, hardy._BISECTION_TOL):
        mid = 0.5 * (lo + hi)
        if shared is None and (guess < mid) != (coupling < mid):
            shared = depth
        lo, hi = (lo, mid) if guess < mid else (mid, hi)
        depth += 1
    return 0 if shared is None else depth - shared


def assert_the_assembled_steps(grid, factored, tested):
    """Each factored diagonal is the assembled dipole tower's minus the threshold, bit for bit."""
    target = -(((grid.dim - 2) / 2.0) ** 2)
    assert len(factored) == len(tested)
    for d, lam in zip(factored, tested):
        want = assemble_polar_operator(AngularPotential.dipole(lam), 0, grid).diag - target
        assert d.tobytes() == want.tobytes()


class TestTwoSamplingsAtN3:
    """At N = 3 the singular coefficient sits at the critical Hardy constant:
    node sampling stalls there, flux sampling converges at second order."""

    def free_spectra(self, sampling):
        zero = AngularPotential.constant(0.0)
        return [full_spectrum(zero, 1, PolarGrid.build(3, M, sampling))
                for M in (1000, 2000, 4000)]

    def test_node_ground_value_stalls(self):
        mus = [spec.mu_1 for spec in self.free_spectra("node")]
        assert min(mus) > 0.09
        # it falls, but second order would keep a quarter per doubling; node keeps 0.92-0.93
        assert all(0.85 < fine / coarse < 1.0 for coarse, fine in zip(mus, mus[1:]))

    def test_flux_ground_value_is_zero_to_rounding(self):
        for spec in self.free_spectra("flux"):
            assert abs(spec.mu_1) <= 4.0 * spec.m0_rounding

    def drift(self, sampling):
        """How far the critical coupling falls from M = 1000 to M = 5000."""
        coarse, fine = (critical_dipole_coupling(PolarGrid.build(3, M, sampling), "pencil")
                        for M in (1000, 5000))
        return coarse - fine

    def test_node_coupling_drifts(self):
        assert self.drift("node") > 0.05

    def test_flux_coupling_settles(self):
        assert abs(self.drift("flux")) < 3e-6


class TestLambdaN:
    def test_constant_potential_exact(self):
        # Lambda = 4 kappa / (N-2)^2; at N = 4, kappa = 1 that is exactly 1
        g = PolarGrid.build(4, 2000)
        res = lambda_n(AngularPotential.constant(1.0), g)
        assert res.lambda_n == pytest.approx(1.0, abs=1e-9)

    def test_dipole_n3_reference_convention(self):
        # node sampling at 10000 steps is the convention of the reference
        # table; the value is resolution-pinned at N = 3
        g = PolarGrid.build(3, 10000, "node")
        res = lambda_n(AngularPotential.dipole(1.0), g)
        assert res.lambda_n == pytest.approx(1 / 1.6398, rel=5e-3)

    def test_dipole_n3_convergent_value(self):
        g = PolarGrid.build(3, 4000)
        res = lambda_n(AngularPotential.dipole(1.0), g)
        assert res.lambda_n == pytest.approx(1 / SPECTRAL_CRITICAL[3], rel=1e-5)

    @pytest.mark.parametrize("kind", ["constant", "dipole", "tabulated"])
    def test_nonpositive_potential_has_constant_zero(self, monkeypatch, kind):
        # every tower's value is <= 0 and rises to 0 with nu_m, so the best
        # constant is 0 and no pencil is solved
        g = PolarGrid.build(4, 300)
        a = {"constant": AngularPotential.constant(-1.0),
             "dipole": AngularPotential.dipole(0.0),
             "tabulated": AngularPotential.tabulated(-1.0 - np.cos(g.nodes) ** 2, g)}[kind]
        factored = []
        monkeypatch.setattr(hardy, "dpttrf", lambda *args, **kwargs: factored.append(args))
        res = lambda_n(a, g)
        assert res.lambda_n == 0.0
        assert res.nonpositive
        assert res.critical_coupling is None
        assert factored == []

    def test_nonpositive_table_of_another_size_is_rejected(self):
        # the potential is sampled on the grid before the ess sup a <= 0 return
        a = AngularPotential.tabulated(-np.ones(300), PolarGrid.build(4, 300))
        with pytest.raises(InputError, match="300 samples, grid has 200 nodes"):
            lambda_n(a, PolarGrid.build(4, 200))

    def test_zero_potential_flagged(self):
        g = PolarGrid.build(5, 300)
        a = AngularPotential.tabulated(np.zeros(300), g)
        res = lambda_n(a, g)
        assert res.nonpositive
        assert res.lambda_n <= 1e-12

    def test_homogeneity_exact(self):
        g = PolarGrid.build(5, 800)
        r1 = lambda_n(AngularPotential.dipole(0.7), g)
        r3 = lambda_n(AngularPotential.dipole(2.1), g)
        assert r3.lambda_n == pytest.approx(3 * r1.lambda_n, rel=1e-13)

    @settings(max_examples=25, deadline=None)
    @given(exponent=st.floats(min_value=-15.0, max_value=6.0),
           sampling=st.sampled_from(["flux", "node"]))
    def test_homogeneity_across_scales(self, exponent, sampling):
        # the pencil runs on a / ess sup a, so Lambda(c a) = c Lambda(a)
        # holds for tiny and huge couplings alike
        c = 10.0**exponent
        g = PolarGrid.build(4, 400, sampling)
        unit = lambda_n(AngularPotential.dipole(1.0), g).lambda_n
        scaled = lambda_n(AngularPotential.dipole(c), g).lambda_n
        assert scaled / c == pytest.approx(unit, rel=1e-12)

    def test_strict_dimension_bounds(self):
        # for nonconstant a: 4 mean / (N-2)^2 < Lambda < 4 ess sup / (N-2)^2
        g = PolarGrid.build(4, 1000)
        res = lambda_n(AngularPotential.dipole(1.0), g)
        assert 0.0 < res.lambda_n < 4.0 / (4 - 2) ** 2

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), N=st.integers(3, 7), M=st.integers(60, 400),
           sampling=st.sampled_from(["flux", "node"]))
    def test_maximizer_is_axisymmetric(self, data, N, M, sampling):
        # tower m adds nu_m c (c > 0) to the m = 0 denominator, so a potential
        # with a positive sample has its best constant on the m = 0 tower
        g = PolarGrid.build(N, M, sampling)
        a = data.draw(positive_potentials(g))
        value, tower = tower_scan(a, g)
        res = lambda_n(a, g)
        assert tower == 0
        assert res.lambda_n == value
        assert not res.nonpositive


class TestCriticalCoupling:
    @pytest.mark.parametrize("N", [4, 5])
    def test_routes_agree(self, N):
        g = PolarGrid.build(N, 1500)
        p = critical_dipole_coupling(g, "pencil")
        b = critical_dipole_coupling(g, "bisection")
        assert abs(p - b) / p < 1e-5

    @pytest.mark.parametrize("N", range(3, 11))
    def test_the_pencil_is_within_rounding_of_the_inertia_bisection(self, N):
        # A - lam cos is positive definite exactly for lam below the pencil's
        # coupling: bisect that test (every pivot of dpttrf positive) down to
        # adjacent floats
        g = PolarGrid.build(N, 10000, "node")
        A, cos_t = denominator_form(g), np.cos(g.nodes)

        def positive(lam):
            return hardy.dpttrf(A.diag - lam * cos_t, A.off)[2] == 0

        lo, hi = 0.0, 1.0
        while positive(hi):
            lo, hi = hi, 2.0 * hi
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            lo, hi = (mid, hi) if positive(mid) else (lo, mid)
        assert critical_dipole_coupling(g, "pencil") == pytest.approx(hi, rel=5e-11)

    def test_convergent_values(self):
        for N, ref in SPECTRAL_CRITICAL.items():
            g = PolarGrid.build(N, 2000)
            assert critical_dipole_coupling(g, "pencil") == pytest.approx(ref, rel=1e-4)

    def test_grid_convergence_second_order(self):
        vals = {}
        for M in (500, 1000, 2000, 4000):
            vals[M] = critical_dipole_coupling(PolarGrid.build(5, M), "pencil")
        r1 = (vals[500] - vals[1000]) / (vals[1000] - vals[2000])
        r2 = (vals[1000] - vals[2000]) / (vals[2000] - vals[4000])
        assert r1 == pytest.approx(4.0, rel=0.2)
        assert r2 == pytest.approx(4.0, rel=0.2)

    @pytest.mark.parametrize("N,coupling", [(3, 1.0), (5, 0.4)])
    def test_critical_coupling_ignores_sign(self, N, coupling):
        g = PolarGrid.build(N, 600)
        pos = lambda_n(AngularPotential.dipole(coupling), g)
        neg = lambda_n(AngularPotential.dipole(-coupling), g)
        assert neg.lambda_n == pytest.approx(pos.lambda_n, rel=1e-12)
        assert neg.critical_coupling == pytest.approx(pos.critical_coupling, rel=1e-12)
        assert neg.critical_coupling > 0

    @settings(max_examples=30, deadline=None)
    @given(
        N=st.integers(3, 6),
        M=st.integers(40, 300),
        coupling=st.floats(0.05, 20.0),
        sampling=st.sampled_from(["flux", "node"]),
    )
    def test_sign_never_changes_the_critical_coupling(self, N, M, coupling, sampling):
        g = PolarGrid.build(N, M, sampling)
        pos = lambda_n(AngularPotential.dipole(coupling), g)
        neg = lambda_n(AngularPotential.dipole(-coupling), g)
        assert neg.critical_coupling == pytest.approx(pos.critical_coupling, rel=1e-12)
        assert neg.critical_coupling > 0

    @pytest.mark.parametrize("sampling", ["flux", "node"])
    @pytest.mark.parametrize("N,M", [(3, 800), (4, 600), (5, 400)])
    def test_count_bisection_matches_mu1_bisection(self, N, M, sampling):
        # each step decides by one factorization of the m = 0 tower shifted by
        # the threshold; the same decisions as solving mu_1 give the same
        # coupling and step count
        tol = hardy._BISECTION_TOL
        g = PolarGrid.build(N, M, sampling)
        want, solves = mu1_bisection(g, tol)
        got, factored = factored_bisection(g)
        assert abs(got - want) <= tol
        assert len(factored) == solves
        assert_the_assembled_steps(g, factored, assembled_count_bisection(g)[1])

    @pytest.mark.parametrize("sampling", ["flux", "node"])
    @pytest.mark.parametrize("N,M", [(3, 1000), (4, 700), (7, 500), (10, 300)])
    def test_one_assembly_matches_per_step_assembly(self, N, M, sampling):
        # the zero-potential tower shifted by -lam cos t is the assembled
        # dipole tower bit for bit, so every decision and the coupling agree
        g = PolarGrid.build(N, M, sampling)
        want, tested = assembled_count_bisection(g)
        got, factored = factored_bisection(g)
        assert got == want
        assert_the_assembled_steps(g, factored, tested)

    @settings(max_examples=40, deadline=None)
    @given(
        N=st.integers(3, 40),
        M=st.integers(4, 1500),
        sampling=st.sampled_from(["flux", "node"]),
    )
    def test_one_sweep_per_step_matches_the_count_bisection(self, N, M, sampling):
        # a definiteness sweep decides as a count at the threshold does, on any grid
        g = PolarGrid.build(N, M, sampling)
        want, tested = assembled_count_bisection(g)
        got, factored = factored_bisection(g)
        assert got.hex() == want.hex()
        assert len(factored) == len(tested)

    @settings(max_examples=40, deadline=None)
    @given(
        N=st.integers(3, 40),
        M=st.integers(4, 1500),
        sampling=st.sampled_from(["flux", "node"]),
        r=st.floats(-1e-3, 1e-3),
    )
    def test_a_guess_near_the_pencil_keeps_the_bits(self, N, M, sampling, r):
        # the walk stops on an interval about 1e-6 of the guess wide, so most
        # of these guesses fail its certificate and climb
        g = PolarGrid.build(N, M, sampling)
        want, unguided = factored_bisection(g)
        guess = critical_dipole_coupling(g, "pencil") * (1.0 + r)
        got, guided = factored_bisection(g, guess)
        assert got.hex() == want.hex()
        top = 4.0 * (N - 2) ** 2  # the first bracket end that is not positive
        while top <= want:
            top *= 2.0
        assert len(guided) <= len(unguided) + levels_climbed(top, guess, want) + 2

    @pytest.mark.parametrize("N,M,sampling", [(3, 2000, "node"), (5, 800, "flux"), (8, 300, "node")])
    def test_a_bad_guess_costs_at_most_its_climb(self, N, M, sampling):
        g = PolarGrid.build(N, M, sampling)
        want, unguided = factored_bisection(g)
        top = 4.0 * (N - 2) ** 2
        assert want < top / 2  # the first bracket end holds: [0, top] is the whole tree
        pencil = critical_dipole_coupling(g, "pencil")
        for guess in (math.nan, math.inf, -math.inf, 0.0, -1.0, top, 2 * top, 2 * pencil):
            got, guided = factored_bisection(g, guess)
            assert got.hex() == want.hex()
            if 0 < guess < top:
                assert len(guided) <= len(unguided) + levels_climbed(top, guess, want) + 2
            else:  # walks nowhere: the unguided run
                assert len(guided) == len(unguided)

    def test_the_table_skips_most_sweeps(self, capsys, monkeypatch):
        # the unguided bisections of this table make 271 sweeps; the guided
        # ones must print the rows of --method bisection alone.  The pencil
        # factors its A with the same dpttrf, once a dimension
        monkeypatch.delenv("DIPOLESPEC_GRID_M", raising=False)
        callers, factor = [], hardy.dpttrf

        def counting(d, e, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return factor(d, e, **kwargs)

        monkeypatch.setattr(hardy, "dpttrf", counting)
        assert cli.main(["hardy", "--table", "3..10", "--method", "both"]) == 0
        both = capsys.readouterr().out.splitlines()
        pencils = callers.count("_lanczos_largest")
        assert pencils == 8
        assert callers.count("positive") == len(callers) - pencils <= 110
        assert cli.main(["hardy", "--table", "3..10", "--method", "bisection"]) == 0
        alone = capsys.readouterr().out.splitlines()
        assert [row for row in both if row.endswith(",bisection,10000")] == alone[1:]

    @pytest.mark.parametrize("N", [3, 5])
    def test_a_bracket_without_a_crossing_names_the_last_coupling_tested(self, monkeypatch, N):
        tested = []

        def never(d, e, **kwargs):  # every pivot positive: info 0
            tested.append(1)
            return np.ones_like(d), e, 0

        monkeypatch.setattr(hardy, "dpttrf", never)
        with pytest.raises(BracketError, match=rf"on \[0, {512.0 * (N - 2) ** 2}\]"):
            critical_dipole_coupling(PolarGrid.build(N, 100), "bisection")
        assert len(tested) == 8

    def test_method_validation(self):
        g = PolarGrid.build(4, 100)
        with pytest.raises(InputError):
            critical_dipole_coupling(g, "trisection")


def denominator_form(grid):
    """The pencil's A: the m = 0 tower at a = 0 plus ((N-2)/2)^2 I, as lambda_n builds it."""
    zero = AngularPotential.constant(0.0)
    return assemble_polar_operator(zero, 0, grid).shifted(((grid.dim - 2) / 2.0) ** 2)


def indefinite_form(grid):
    A = denominator_form(grid)
    return A.shifted(-2.0 * float(np.max(A.diag)))


class TestPencilOperator:
    @pytest.mark.parametrize("sampling", ["node", "flux"])
    @pytest.mark.parametrize("N", [3, 5])
    def test_matches_the_dense_pencil(self, N, sampling):
        g = PolarGrid.build(N, 60, sampling)
        A = denominator_form(g)
        b = np.cos(g.nodes)
        A_dense = np.diag(A.diag) + np.diag(A.off, 1) + np.diag(A.off, -1)
        want = eigh(np.diag(b), A_dense, eigvals_only=True)[-1]
        # a solve that wrote into the Lanczos basis would break this match
        assert hardy._lanczos_largest(A, b) == pytest.approx(want, rel=1e-10)

    def test_indefinite_form_raises(self):
        g = PolarGrid.build(3, 60)
        with pytest.raises(IndefiniteFormError):
            hardy._lanczos_largest(indefinite_form(g), np.cos(g.nodes))

    def test_indefinite_form_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(hardy, "assemble_polar_operator",
                            lambda potential, m, grid: indefinite_form(grid))
        code = cli.main(["hardy", "--dim", "3", "--grid", "200"])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert err.startswith("numerical failure: denominator form is numerically indefinite")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("failing_call", [0, 1])
    def test_a_lapack_failure_is_an_eigen_solve_error(self, monkeypatch, failing_call):
        g = PolarGrid.build(3, 60)
        calls, solve = [], hardy.dpttrs

        def failing(*args, **kwargs):  # the solve of Lanczos step failing_call fails
            x, info = solve(*args, **kwargs)
            calls.append(info)
            return x, (-2 if len(calls) - 1 == failing_call else info)

        monkeypatch.setattr(hardy, "dpttrs", failing)
        with pytest.raises(EigenSolveError, match="LAPACK info -2"):
            hardy._lanczos_largest(denominator_form(g), np.cos(g.nodes))
        assert calls == [0] * (failing_call + 1)


def positivity_sides(potential, grid):
    """(1 - Lambda_N(a), mu_1 + ((N-2)/2)^2): the two sides of the equivalence
    Lambda_N(a) < 1 <=> mu_1 > -((N-2)/2)^2, with mu_1 from the m = 0 tower."""
    N = grid.dim
    lam = lambda_n(potential, grid).lambda_n
    mat = assemble_polar_operator(potential, 0, grid)
    mu1 = polar_eigen(mat, bound(mat, 1))[0][0]
    return 1.0 - lam, mu1 + ((N - 2) / 2.0) ** 2


class TestPositivity:
    def test_subcritical_dipole(self):
        g = PolarGrid.build(3, 800)
        lam_margin, mu_margin = positivity_sides(AngularPotential.dipole(1.0), g)
        assert lam_margin >= 1e-9 and mu_margin >= 1e-9

    def test_supercritical_dipole(self):
        g = PolarGrid.build(3, 800)
        lam_margin, mu_margin = positivity_sides(AngularPotential.dipole(2.0), g)
        assert lam_margin <= -1e-9 and mu_margin <= -1e-9

    def test_threshold_is_indeterminate(self):
        # Lambda = 1 exactly for kappa = 1 at N = 4, and mu_1 = -1 on the threshold
        g = PolarGrid.build(4, 2000)
        lam_margin, mu_margin = positivity_sides(AngularPotential.constant(1.0), g)
        assert abs(lam_margin) < 1e-9 and abs(mu_margin) < 1e-9


class TestAdmissibleRadius:
    def test_unit_case(self):
        assert admissible_radius(4, 0.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_nonpositive_coefficient_is_unbounded(self):
        assert admissible_radius(5, 0.5, -3.0, 0.5) == math.inf
        assert admissible_radius(5, 0.5, 0.0, 0.5) == math.inf

    def test_power_past_the_float_range_is_unbounded(self):
        assert admissible_radius(4, 0.0, 1e-3, 1e-300) == math.inf

    def test_direct_substitution(self):
        assert admissible_radius(3, 0.60983, 1.0, 1.0) == pytest.approx(0.0975425, abs=1e-7)

    def test_gate_requires_positivity(self):
        with pytest.raises(InputError):
            admissible_radius(4, 1.0, 1.0, 1.0)
        with pytest.raises(InputError):
            admissible_radius(4, 0.5, 1.0, -1.0)
