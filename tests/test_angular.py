import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.linalg import eigvalsh_tridiagonal

from dipolespec import _lapack, angular
from dipolespec.angular import (
    AngularPotential,
    PolarGrid,
    PolarTowers,
    TridiagonalMatrix,
    assemble_polar_operator,
    axisymmetric_spectrum,
    count_at_most,
    eigenfunction_sup_ratio,
    full_spectrum,
    harmonic_multiplicity,
    mode_sup_norm,
    polar_eigen,
    unit_sphere_area,
    _sin_power_cell_integrals,
    weyl_fit,
)
from dipolespec.errors import EigenSolveError, InputError, ResolutionError

from conftest import bound


def sphere_mean(potential, grid):
    """Mean of the potential over S^{N-1}, from its samples by the grid's quadrature."""
    return potential.sample(grid) @ grid.quadrature / grid.area_full


def exact_sphere_eigs(N, lmax):
    return [l * (l + N - 2.0) for l in range(lmax + 1)]


def exhaustive_merge(potential, K, grid):
    """Reference tower merge: every tower is asked for its K lowest values.

    Towers are scanned until one's bottom exceeds the K-th flattened value of
    the towers before it; each keeps its values up to the final K-th value.
    Returns (matrix, kept values) per scanned tower, indexed by m.
    """
    N = grid.dim
    towers, flat = [], []
    m = 0
    while True:
        mat = assemble_polar_operator(potential, m, grid)
        vals = eigvalsh_tridiagonal(mat.diag, mat.off, select="i", select_range=(0, K - 1))
        if m > 0 and vals[0] > sorted(flat)[K - 1]:
            break
        towers.append((mat, vals))
        flat.extend(np.repeat(vals, harmonic_multiplicity(N, m)))
        m += 1
    cutoff = sorted(flat)[K - 1]
    return [(mat, vals[vals <= cutoff]) for mat, vals in towers]


def reference_operator(potential, m, grid):
    """The tower-m operator written out in one piece, as the shared assembly must build it."""
    N = grid.dim
    h = grid.step
    t = grid.nodes
    a = potential.sample(grid)
    nu = m * (m + N - 3)
    beta2 = ((N - 2) / 2.0) ** 2
    if grid.sampling == "node":
        d = 2.0 / h**2 + ((N - 2) * (N - 4) / 4.0 + nu) / np.sin(t) ** 2 - beta2 - a
        return d, np.full(grid.size - 1, -1.0 / h**2)
    tmid = 0.5 * (t[:-1] + t[1:])
    p = np.sin(tmid) ** (N - 2)
    w = grid.weights
    fluxes = np.zeros(grid.size + 1)
    fluxes[1:-1] = p
    if nu:
        edges = np.concatenate([[t[0] - h / 2], tmid, [t[-1] + h / 2]])
        centrifugal = nu * _sin_power_cell_integrals(N - 4, edges) / (w * h)
    else:
        centrifugal = 0.0
    d = (fluxes[:-1] + fluxes[1:]) / (h**2 * w) + centrifugal - a
    return d, -p / (h**2 * np.sqrt(w[:-1] * w[1:]))


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def sturm_count(diag, off, x):
    """Eigenvalues at or below x, exactly: rational arithmetic on the entries' float values.

    They are the negative pivots of LDL^T = T - (x + delta) I as delta -> 0+.
    A zero pivot counts, since it turns negative for delta > 0; if e_i != 0
    the next pivot is then +inf, which does not count and adds nothing to
    the pivot after it.  The cost grows as M^2: 0.15 s a count at M = 1200.
    """
    x, count, pivot = Fraction(x), 0, None  # None stands for +inf
    for i, di in enumerate(diag):
        e2 = Fraction(off[i - 1]) ** 2 if i else 0
        if pivot == 0 and e2:
            pivot = None
            continue
        pivot = Fraction(di) - x - (e2 / pivot if pivot else 0)
        count += pivot <= 0
    return count


def ldl_count(diag, off, x):
    """Eigenvalues at or below x: negative pivots of the LDL^T factorization of T - x I, in floats.

    A pivot smaller in size than LAPACK's pivmin = safmin * max(1, max e^2)
    (dstebz) is replaced by -pivmin, which counts it and keeps every
    e^2 / pivot finite.  Forming e^2 can underflow, so this agrees with
    `sturm_count` only at points clear of every eigenvalue; it is the
    reference for towers too large for the exact count.
    """
    pivmin = np.finfo(float).tiny * max(1.0, float(np.max(np.square(off), initial=0.0)))
    count, pivot = 0, 1.0
    for i, di in enumerate(diag):
        pivot = di - x - (off[i - 1] ** 2 / pivot if i else 0.0)
        if abs(pivot) < pivmin:
            pivot = -pivmin
        count += pivot < 0
    return count


COUPLINGS = st.floats(0.25, 3.0) | st.floats(-3.0, -0.25)


@st.composite
def spectrum_cases(draw, kinds=("constant", "dipole", "tabulated"), samplings=("flux", "node"),
                   N=st.sampled_from([3, 4, 5]), M=st.integers(60, 401)):
    """(potential, K, grid) with K <= 60, and N (3..5), M (60..401) and the sampling drawn."""
    grid = PolarGrid.build(draw(N), draw(M), draw(st.sampled_from(samplings)))
    kind, c1, c2 = draw(st.sampled_from(kinds)), draw(COUPLINGS), draw(COUPLINGS)
    if kind == "constant":
        potential = AngularPotential.constant(c1)
    elif kind == "dipole":
        potential = AngularPotential.dipole(c1)
    else:
        t = grid.nodes
        potential = AngularPotential.tabulated(c1 * np.cos(t) + c2 * np.cos(2 * t), grid)
    return potential, draw(st.integers(1, 60)), grid


class TestPolarGrid:
    def test_nodes_and_weights(self):
        g = PolarGrid.build(5, 50)
        assert np.all(np.diff(g.nodes) > 0)
        assert 0 < g.nodes[0] and g.nodes[-1] < math.pi
        assert np.all(g.weights > 0)

    @pytest.mark.parametrize("N,M", [(3, 100), (4, 100), (7, 250)])
    def test_area_quadrature(self, N, M):
        g = PolarGrid.build(N, M)
        total = np.ones(M) @ g.quadrature
        assert abs(total - g.area_full) / g.area_full < 10 * g.step**2

    def test_sphere_areas(self):
        assert unit_sphere_area(2) == pytest.approx(2 * math.pi)
        assert unit_sphere_area(3) == pytest.approx(4 * math.pi)
        assert unit_sphere_area(4) == pytest.approx(2 * math.pi**2)

    def test_rejects_bad_sizes(self):
        with pytest.raises(InputError):
            PolarGrid.build(2, 100)
        with pytest.raises(InputError):
            PolarGrid.build(3, 2)

    @settings(max_examples=60, deadline=None)
    @given(N=st.integers(3, 12), M=st.integers(3, 2000))
    def test_half_weights_and_quadrature(self, N, M):
        g = PolarGrid.build(N, M)
        assert np.all(np.abs(g.half_weights**2 - g.weights) <= 4 * np.spacing(g.weights))

    def test_sphere_area_overflow_is_a_resolution_error(self):
        with pytest.raises(ResolutionError, match="N = 344"):
            PolarGrid.build(344, 100)

    def test_flux_underflow_is_a_resolution_error(self):
        with pytest.raises(ResolutionError, match="N = 60 on M = 10000"):
            PolarGrid.build(60, 10000)

    def test_node_sampling_has_no_flux_limit(self):
        assert PolarGrid.build(60, 10000, "node").sampling == "node"

    def test_rejects_unknown_sampling(self):
        with pytest.raises(InputError):
            PolarGrid.build(3, 50, "exotic")


class TestPotential:
    def test_constant_has_equal_bounds(self):
        a = AngularPotential.constant(1.5)
        assert a.ess_sup == 1.5

    def test_dipole_bounds(self):
        a = AngularPotential.dipole(-2.0)
        assert a.ess_sup == 2.0

    def test_tabulated_mean_below_sup(self):
        g = PolarGrid.build(3, 80)
        a = AngularPotential.tabulated(np.cos(g.nodes) ** 2, g)
        assert sphere_mean(a, g) < a.ess_sup
        assert a.ess_sup == pytest.approx(np.max(np.cos(g.nodes) ** 2))

    def test_tabulated_sample_count_mismatch(self):
        g = PolarGrid.build(3, 80)
        with pytest.raises(InputError, match="81 samples, grid has 80 nodes"):
            AngularPotential.tabulated(np.ones(81), g)
        # the size is checked before the samples' values
        with pytest.raises(InputError, match="79 samples, grid has 80 nodes"):
            AngularPotential.tabulated(np.full(79, np.nan), g)
        with pytest.raises(InputError, match="non-finite sample"):
            AngularPotential.tabulated(np.full(80, np.inf), g)
        a = AngularPotential.tabulated(np.ones(80), g)
        with pytest.raises(InputError):
            a.sample(PolarGrid.build(3, 81))


class TestAssemble:
    def test_the_written_gauss_rule_is_leggauss(self):
        nodes, weights = np.polynomial.legendre.leggauss(7)
        assert bits(angular._GAUSS7_NODES).tolist() == bits(nodes).tolist()
        assert bits(angular._GAUSS7_WEIGHTS).tolist() == bits(weights).tolist()

    @pytest.mark.parametrize("M", [3, 100, 2001])
    def test_cell_integrals_match_the_expression_form(self, M):
        # the in-place evaluation does the same arithmetic as this one-line form
        grid = PolarGrid.build(3, M)
        t, h = grid.nodes, grid.step
        edges = np.concatenate([[t[0] - h / 2], 0.5 * (t[:-1] + t[1:]), [t[-1] + h / 2]])
        mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
        nodes, weights = np.polynomial.legendre.leggauss(7)
        pts = mid[:, None] + half[:, None] * nodes[None, :]
        for k in range(-1, 13):
            want = half * ((np.sin(pts) ** k) @ weights)
            assert np.array_equal(bits(_sin_power_cell_integrals(k, edges)), bits(want)), k

    def test_free_ground_state_is_zero(self):
        # constant eigenfunction of the sphere Laplacian
        g = PolarGrid.build(3, 300)
        mat = assemble_polar_operator(AngularPotential.constant(0.0), 0, g)
        mu1 = polar_eigen(mat, bound(mat, 1))[0][0]
        assert abs(mu1) < 10 * g.step**2

    def test_constant_potential_shifts_ground_state(self):
        g = PolarGrid.build(4, 400)
        mat = assemble_polar_operator(AngularPotential.constant(2.5), 0, g)
        mu1 = polar_eigen(mat, bound(mat, 1))[0][0]
        assert mu1 == pytest.approx(-2.5, abs=10 * g.step**2)

    def test_first_azimuthal_tower(self):
        g = PolarGrid.build(3, 400)
        mat = assemble_polar_operator(AngularPotential.constant(0.0), 1, g)
        mu = polar_eigen(mat, bound(mat, 1))[0][0]
        assert mu == pytest.approx(2.0, abs=10 * g.step**2)

    def test_symmetry_and_errors(self):
        g = PolarGrid.build(3, 50)
        a = AngularPotential.dipole(1.0)
        mat = assemble_polar_operator(a, 0, g)
        assert mat.off.size == mat.diag.size - 1
        with pytest.raises(InputError):
            assemble_polar_operator(a, -1, g)
        bad = AngularPotential.tabulated(np.ones(50), g)
        with pytest.raises(InputError):
            assemble_polar_operator(bad, 0, PolarGrid.build(3, 51))

    @pytest.mark.parametrize("sampling", ["flux", "node"])
    def test_constant_shift_is_exact(self, sampling):
        # matrices differ by kappa * identity, so every eigenvalue shifts
        g = PolarGrid.build(5, 300, sampling)
        m0 = assemble_polar_operator(AngularPotential.constant(0.0), 0, g)
        m1 = assemble_polar_operator(AngularPotential.constant(1.0), 0, g)
        v0 = [v for v, _ in polar_eigen(m0, bound(m0, 6))]
        v1 = [v for v, _ in polar_eigen(m1, bound(m1, 6))]
        assert np.allclose(np.array(v1), np.array(v0) - 1.0, atol=1e-10)

    def test_second_order_convergence(self):
        # first excited free eigenvalue at N=3 (the ground one is exact)
        errs = []
        for M in (200, 400, 800):
            g = PolarGrid.build(3, M)
            mat = assemble_polar_operator(AngularPotential.constant(0.0), 0, g)
            errs.append(abs(polar_eigen(mat, bound(mat, 2))[1][0] - 2.0))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.15)

    def test_flux_order_of_the_first_towers_m_ge_1(self):
        # first free value of a tower, l = m: second order on (3, 2) and (4, 1),
        # not on (3, 1), whose errors -4.9e-6, -6.7e-7, -3.0e-8 fall by 7.3 and 22
        def errors(N, m):
            out = []
            for M in (624, 1249, 2499):
                mat = assemble_polar_operator(AngularPotential.constant(0.0), m, PolarGrid.build(N, M))
                out.append(polar_eigen(mat, bound(mat, 1))[0][0] - m * (m + N - 2.0))
            return out

        for N, m in [(3, 2), (4, 1)]:
            errs = errors(N, m)
            assert [a / b for a, b in zip(errs, errs[1:])] == pytest.approx([4.0, 4.0], abs=0.3)
        assert max(map(abs, errors(3, 1))) < 5e-6

    @pytest.mark.parametrize("N,m", [(10, 1), (10, 3), (13, 2)])
    def test_high_dimension_towers_stable_on_fine_grids(self, N, m):
        # the centrifugal cell integrals must stay positive near the poles;
        # naive antiderivative differences cancel catastrophically here
        g = PolarGrid.build(N, 10000)
        mat = assemble_polar_operator(AngularPotential.constant(0.0), m, g)
        assert np.all(mat.diag > 0)
        bottom = polar_eigen(mat, bound(mat, 1))[0][0]
        assert bottom == pytest.approx(m * (m + N - 2.0), rel=1e-6)


DIAGS = st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=40)
OFF_SEEDS = st.lists(st.floats(-5.0, 5.0), min_size=39, max_size=39)


class TestSturmCount:
    @settings(max_examples=80, deadline=None)
    @given(diag=DIAGS, off_seed=OFF_SEEDS)
    # a subnormal first pivot once overflowed the reference's next division
    @example(diag=[5e-324, 0.0], off_seed=[1.0] + [0.0] * 38)
    def test_matches_ldl_reference(self, diag, off_seed):
        d = np.array(diag)
        e = np.array(off_seed[: d.size - 1])
        mat = TridiagonalMatrix(d, e, 1.0)
        full = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        eigs = np.linalg.eigvalsh(full)
        scale = 1e-6 * max(1.0, float(np.max(np.abs(eigs))))
        points = [eigs[0] - 1.0, eigs[-1] + 1.0] + [
            0.5 * (lo + hi) for lo, hi in zip(eigs, eigs[1:]) if hi - lo > scale
        ]
        for x in points:
            want = int(np.sum(eigs <= x))
            assert sturm_count(d, e, x) == want
            assert count_at_most(mat, x) == want

    @settings(max_examples=40, deadline=None)
    @given(
        N=st.integers(3, 10),
        M=st.sampled_from([3, 50, 1200, 10000]),
        sampling=st.sampled_from(["flux", "node"]),
        m=st.integers(0, 6),
        coupling=COUPLINGS,
        spot=st.floats(0.0, 1.0),
    )
    def test_real_towers_match_both_references(self, N, M, sampling, m, coupling, spot):
        # shifts in the middle half between neighbouring values, clear of
        # both by far more than the rounding eps ||T||_1 of any count; the
        # float LDL^T count is checked at every M, the exact count, whose
        # cost grows as M^2, up to M = 50
        grid = PolarGrid.build(N, M, sampling)
        mat = PolarTowers(AngularPotential.dipole(coupling), grid).matrix(m)
        eigs = eigvalsh_tridiagonal(mat.diag, mat.off, select="i",
                                    select_range=(0, min(M, 12) - 1), tol=0.0)
        clear = 64 * np.finfo(float).eps * mat.one_norm()
        gaps = [(lo, hi) for lo, hi in zip(eigs, eigs[1:]) if hi - lo > 4 * clear]
        points = [eigs[0] - 1.0] + [lo + (hi - lo) * (0.25 + 0.5 * spot) for lo, hi in gaps]
        for x in points:
            stebz = eigvalsh_tridiagonal(mat.diag, mat.off, select="v",
                                         select_range=(-math.inf, x), tol=math.inf).size
            assert count_at_most(mat, x) == ldl_count(mat.diag, mat.off, x) == stebz
            if M <= 50:
                assert sturm_count(mat.diag, mat.off, x) == stebz

    @pytest.mark.parametrize("diag,off,x,want", [
        pytest.param([1.0, 2.0, 3.0], [1.0, 1.0], 1.0, 1, id="exact-zero-pivot"),
        pytest.param([0.0, 0.0, 0.0], [1.0, 1.0], 0.0, 2, id="zero-pivots-in-a-row"),
        pytest.param([1.0, 2.0, 3.0], [0.0, 0.0], 2.5, 2, id="split"),
        pytest.param([1.0, 2.0, 3.0], [0.0, 0.0], 2.0, 2, id="split-at-a-value"),
        pytest.param([2.0], [], 2.0, 1, id="size-1-at-its-value"),
        pytest.param([2.0], [], 1.0, 0, id="size-1-below"),
        pytest.param([0.0, 0.0], [1.0], 0.0, 1, id="size-2-zero-pivot"),
        pytest.param([0.0, 0.0], [1.0], 1.0, 2, id="size-2-at-the-top"),
        pytest.param([5e-324, 0.0], [1.0], 0.0, 1, id="subnormal-first-pivot"),
        pytest.param([0.0, 1.0], [1e-200], 0.0, 1, id="tiny-off-at-a-zero-pivot"),
        pytest.param([1, 2, 3], [1, 1], 1, 1, id="integer-entries"),
        # e^2 underflows: a float reference counted the last zero pivot too
        pytest.param([0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 4.2e-284], 0.0, 3, id="underflowing-off"),
    ])
    def test_edge_cases(self, diag, off, x, want):
        # every case runs under pytest's RuntimeWarning-as-error filter
        d, e = np.array(diag), np.array(off)
        mat = TridiagonalMatrix(d, e, 1.0)
        assert count_at_most(mat, x) == sturm_count(d, e, x) == want
        assert np.array_equal(mat.diag, diag) and np.array_equal(mat.off, off)  # left as they were

    # the matrix remembers each count; a copy of it has no memo and counts afresh.
    # Points at the diagonal entries make exact zero pivots, which the memo must not blur
    @settings(max_examples=80, deadline=None)
    @given(diag=DIAGS, off_seed=OFF_SEEDS,
           points=st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=8))
    def test_remembered_count_is_a_fresh_count(self, diag, off_seed, points):
        d = np.array(diag)
        e = np.array(off_seed[: d.size - 1])
        mat = TridiagonalMatrix(d, e, 1.0)
        points = points + diag
        first = [count_at_most(mat, x) for x in points]
        assert set(mat._counts) == set(points) and "_counts" not in repr(mat)
        remembered = [count_at_most(mat, x) for x in points]
        fresh = [count_at_most(TridiagonalMatrix(d.copy(), e.copy(), 1.0), x) for x in points]
        assert remembered == first == fresh


def test_one_norm_is_the_dense_one_norm():
    mat = TridiagonalMatrix(np.array([1.0, -7.0, 3.0, 0.5]), np.array([2.0, -4.0, 0.25]), 1.0)
    dense = np.diag(mat.diag) + np.diag(mat.off, 1) + np.diag(mat.off, -1)
    assert mat.one_norm() == np.linalg.norm(dense, 1) == 13.0


def test_a_shifted_matrix_shares_off_and_computes_its_own_pivmin():
    # shifted moves the diagonal only: it shares `off` and the step, takes
    # none of the source's counts, and forms its pivmin when first asked
    off = np.array([3.0, -4.0, 0.5])
    mat = TridiagonalMatrix(np.zeros(4), off, 0.25)
    count_at_most(mat, 0.5)
    other = mat.shifted(1.0)
    assert (other.diag.tolist(), other.off is off, other.step) == ([1.0] * 4, True, 0.25)
    assert other._counts == {} and "pivmin" not in vars(other)
    tiny = np.finfo(float).tiny
    assert other.pivmin == tiny * max(1.0, float(np.max(off**2))) == tiny * 16.0


DOUBLET_GRID = PolarGrid.build(3, 2000)
WELL_GRID = PolarGrid.build(3, 800)
# a = 200 cos 2t on these grids: the lowest m = 0 values pair up in clusters,
# one (N = 4, M = 397) equal to the bit, one (N = 3, M = 455) whose bisected
# value is an eigenvalue to the bit
CLUSTER_GRIDS = [PolarGrid.build(3, 455), PolarGrid.build(4, 319), PolarGrid.build(4, 397)]
# a = 40 cos 2t here: m = 0 values 3 and 4 lie 0.028 apart, within one
# lattice width, so both are bisected; in cells of their own, kept vector 3's
# error held value 4 just above the acceptance limit
STALL_GRID = PolarGrid.build(3, 423)


def well(depth, grid):
    return AngularPotential.tabulated(depth * np.cos(2 * grid.nodes), grid)


@st.composite
def kernel_cases(draw):
    """(potential, grid, m, K): dipole, constant or double-well c cos 2t potentials.

    The double wells, c in {10, 40, 200}, hold pairs of eigenvalues split by
    tunnelling: about 0.06 at c = 10, 4e-5 at c = 40 (N = 3, M = 2000, m = 0)
    and below rounding at c = 200.
    """
    grid = PolarGrid.build(draw(st.sampled_from([3, 4, 5])), draw(st.integers(60, 1200)),
                           draw(st.sampled_from(["flux", "node"])))
    kind = draw(st.sampled_from(["dipole", "constant", "double-well"]))
    if kind == "dipole":
        potential = AngularPotential.dipole(draw(COUPLINGS))
    elif kind == "constant":
        potential = AngularPotential.constant(draw(COUPLINGS))
    else:
        depth = draw(st.sampled_from([10.0, 40.0, 200.0]))
        potential = AngularPotential.tabulated(depth * np.cos(2 * grid.nodes), grid)
    return potential, grid, draw(st.integers(0, 4)), draw(st.integers(1, 30))


class TestPolarTowers:
    @settings(max_examples=60, deadline=None)
    @given(
        N=st.integers(3, 7),
        M=st.integers(3, 300),
        kind=st.sampled_from(["constant", "dipole", "tabulated"]),
        c1=COUPLINGS,
        c2=COUPLINGS,
        sampling=st.sampled_from(["flux", "node"]),
    )
    def test_bit_identical_to_the_one_piece_formula(self, N, M, kind, c1, c2, sampling):
        grid = PolarGrid.build(N, M, sampling)
        if kind == "constant":
            potential = AngularPotential.constant(c1)
        elif kind == "dipole":
            potential = AngularPotential.dipole(c1)
        else:
            t = grid.nodes
            potential = AngularPotential.tabulated(c1 * np.cos(t) + c2 * np.cos(2 * t), grid)
        towers = PolarTowers(potential, grid)
        for m in range(11):
            d, e = reference_operator(potential, m, grid)
            for mat in (towers.matrix(m), assemble_polar_operator(potential, m, grid)):
                assert np.array_equal(bits(mat.diag), bits(d))
                assert np.array_equal(bits(mat.off), bits(e))
                assert mat.step == grid.step

    def test_towers_share_the_off_diagonal(self):
        grid = PolarGrid.build(4, 50)
        towers = PolarTowers(AngularPotential.dipole(1.0), grid)
        assert towers.matrix(0).off is towers.matrix(3).off
        with pytest.raises(InputError):
            towers.matrix(-1)


class TestPolarEigen:
    def test_diagonal_matrix(self):
        mat = TridiagonalMatrix(np.array([1.0, 2.0, 3.0]), np.zeros(2), math.pi / 4)
        vals = [v for v, _ in polar_eigen(mat, bound(mat, 3))]
        assert vals == pytest.approx([1.0, 2.0, 3.0])

    def test_free_sphere_values(self):
        g = PolarGrid.build(3, 500)
        mat = assemble_polar_operator(AngularPotential.constant(0.0), 0, g)
        vals = [v for v, _ in polar_eigen(mat, bound(mat, 3))]
        assert vals == pytest.approx([0.0, 2.0, 6.0], abs=5e-4)

    def test_deterministic(self):
        g = PolarGrid.build(3, 200)
        mat = assemble_polar_operator(AngularPotential.dipole(1.0), 0, g)
        a = polar_eigen(mat, bound(mat, 4))
        b = polar_eigen(mat, bound(mat, 4))
        for (va, xa), (vb, xb) in zip(a, b):
            assert va == vb
            assert np.array_equal(xa, xb)

    def test_orthonormal_step_weighted(self):
        g = PolarGrid.build(4, 150)
        mat = assemble_polar_operator(AngularPotential.dipole(0.7), 0, g)
        pairs = polar_eigen(mat, bound(mat, 3))
        for i, (_, vi) in enumerate(pairs):
            assert vi[np.flatnonzero(vi)[0]] > 0
            for j, (_, vj) in enumerate(pairs):
                ip = float(np.sum(vi * vj) * g.step)
                assert ip == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)

    def test_count_validation(self):
        mat = TridiagonalMatrix(np.array([1.0, 2.0, 3.0]), np.full(2, 0.5), 0.1)
        with pytest.raises(InputError, match="NaN"):
            polar_eigen(mat, math.nan)
        mu1 = polar_eigen(mat, bound(mat, 1))[0][0]
        assert polar_eigen(mat, mu1 - 1e-3) == []

    @settings(max_examples=40, deadline=None)
    @given(case=kernel_cases(), extra=st.integers(1, 20))
    # the a = 40 cos 2t doublet mu_1, mu_2 (3.9e-5 apart) split by the bound
    @example(case=(AngularPotential.tabulated(40.0 * np.cos(2 * DOUBLET_GRID.nodes), DOUBLET_GRID),
                   DOUBLET_GRID, 0, 1), extra=11)
    @example(case=(well(200.0, CLUSTER_GRIDS[0]), CLUSTER_GRIDS[0], 0, 1), extra=3)
    @example(case=(well(200.0, CLUSTER_GRIDS[1]), CLUSTER_GRIDS[1], 0, 1), extra=3)
    @example(case=(well(200.0, CLUSTER_GRIDS[2]), CLUSTER_GRIDS[2], 0, 1), extra=3)
    def test_a_smaller_count_is_a_prefix_bit_for_bit(self, case, extra):
        # for bounds x < x', polar_eigen(T, x) is a prefix of polar_eigen(T, x')
        potential, grid, m, count = case
        mat = PolarTowers(potential, grid).matrix(m)
        small, large = polar_eigen(mat, bound(mat, count)), polar_eigen(mat, bound(mat, count + extra))
        assert len(small) <= len(large)
        assert np.array_equal(bits([mu for mu, _ in small]),
                              bits([mu for mu, _ in large[:len(small)]]))
        for (_, v), (_, w) in zip(small, large):
            assert np.array_equal(bits(v), bits(w))

    @settings(max_examples=40, deadline=None)
    @given(case=kernel_cases())
    # double wells whose towers m >= 1 hold values that the probe leaves
    # unisolated: a = 40 cos 2t at K = 60 in towers m = 1..4 of 6, a = 200 cos 2t
    # at K = 30 in all four
    @example(case=(AngularPotential.tabulated(40.0 * np.cos(2 * DOUBLET_GRID.nodes), DOUBLET_GRID),
                   DOUBLET_GRID, 0, 60))
    @example(case=(AngularPotential.tabulated(200.0 * np.cos(2 * WELL_GRID.nodes), WELL_GRID),
                   WELL_GRID, 0, 30))
    @example(case=(well(40.0, STALL_GRID), STALL_GRID, 0, 4))
    @example(case=(well(40.0, STALL_GRID), STALL_GRID, 0, 10))
    def test_every_tower_is_within_rounding_of_tight_bisection(self, case):
        # the m = 0 pairs of the tower drawn, then the towers m >= 1 of the
        # merge up to its bracket (the pieces of full_spectrum, without its
        # ground-doublet and ground-profile checks, which a double well can fail)
        potential, grid, m, count = case
        mats = [PolarTowers(potential, grid).matrix(m)]
        got = [[mu for mu, _ in polar_eigen(mats[0], bound(mats[0], count))]]
        towers = PolarTowers(potential, grid)
        hi = angular._bracket(towers, count)
        axial = [mu for mu, _ in polar_eigen(towers.matrix(0), hi)]
        for k, vals in enumerate(angular._tower_values(towers, hi, axial), 1):
            mats.append(towers.matrix(k))
            got.append(vals)
        eps = np.finfo(float).eps
        for mat, vals in zip(mats, got):
            ref = eigvalsh_tridiagonal(mat.diag, mat.off, select="i",
                                       select_range=(0, len(vals) - 1), tol=eps)
            assert np.all(np.abs(np.subtract(vals, ref)) <= 4 * eps * mat.one_norm())


    @settings(max_examples=40, deadline=None)
    @given(case=kernel_cases())
    @example(case=(AngularPotential.tabulated(40.0 * np.cos(2 * DOUBLET_GRID.nodes), DOUBLET_GRID),
                   DOUBLET_GRID, 0, 12))
    @example(case=(AngularPotential.tabulated(200.0 * np.cos(2 * WELL_GRID.nodes), WELL_GRID),
                   WELL_GRID, 0, 12))
    @example(case=(well(200.0, CLUSTER_GRIDS[0]), CLUSTER_GRIDS[0], 0, 4))
    @example(case=(well(200.0, CLUSTER_GRIDS[1]), CLUSTER_GRIDS[1], 0, 4))
    @example(case=(well(200.0, CLUSTER_GRIDS[2]), CLUSTER_GRIDS[2], 0, 4))
    @example(case=(well(40.0, STALL_GRID), STALL_GRID, 0, 4))
    @example(case=(well(40.0, STALL_GRID), STALL_GRID, 0, 10))
    def test_every_pair_meets_the_kernel_bound(self, case):
        # each unit vector x has ||Tx - theta x|| <= 16 eps ||T||_1 at its own
        # quotient theta, summed again by fsum; the vectors are orthonormal in
        # the step-weighted product, and each value, a quotient or a bisected
        # value, is within 4 eps ||T||_1 of tight bisection
        potential, grid, m, count = case
        mat = PolarTowers(potential, grid).matrix(m)
        pairs = polar_eigen(mat, bound(mat, count))
        eps = np.finfo(float).eps
        floor = eps * mat.one_norm()
        for _, v in pairs:
            x = v * math.sqrt(grid.step)
            y = mat.matvec(x)
            theta = math.fsum(x * y)
            assert math.sqrt(math.fsum((y - theta * x) ** 2)) <= 16 * floor * (1 + 1e-9)
        vectors = np.array([v for _, v in pairs])
        gram = (vectors * grid.step) @ vectors.T
        assert np.max(np.abs(gram - np.eye(len(pairs)))) <= 1e-14
        ref = eigvalsh_tridiagonal(mat.diag, mat.off, select="i", select_range=(0, len(pairs) - 1),
                                   tol=eps)
        assert np.all(np.abs(np.subtract([mu for mu, _ in pairs], ref)) <= 4 * floor)


class TestClusters:
    def test_a_cluster_is_one_search(self, monkeypatch):
        # a = 200 cos 2t, N = 3, M = 800: mu_1 and mu_2 agree to rounding, so
        # the lattice isolates neither; one dstebz call by index bisects each,
        # and each vector comes from the iteration started at its bisected
        # value, the second orthogonal to the first.  They span the dense
        # solver's pair
        potential = AngularPotential.tabulated(200.0 * np.cos(2 * WELL_GRID.nodes), WELL_GRID)
        mat = PolarTowers(potential, WELL_GRID).matrix(0)
        calls = []
        stebz, iterate = angular.dstebz, angular._iterate
        monkeypatch.setattr(angular, "dstebz",
                            lambda *a: calls.append(("dstebz", a[2], *a[5:7])) or stebz(*a))
        monkeypatch.setattr(angular, "_iterate", lambda matrix, cell, kept: calls.append(
            ("_iterate", cell.shift, len(kept))) or iterate(matrix, cell, kept))
        pairs = polar_eigen(mat, -150.0)
        monkeypatch.undo()
        values = [mu for mu, _ in pairs]
        assert count_at_most(mat, -150.0) == len(values) == 2
        assert calls == [("dstebz", 2, 1, 1), ("dstebz", 2, 2, 2),
                         ("_iterate", values[0], 0), ("_iterate", values[1], 1)]
        eps = np.finfo(float).eps
        bisected = [stebz(mat.diag, mat.off, 2, 0.0, 0.0, j, j, eps, "E")[1][0] for j in (1, 2)]
        assert np.array_equal(bits(values), bits(bisected))
        dense = np.diag(mat.diag) + np.diag(mat.off, 1) + np.diag(mat.off, -1)
        ref = np.linalg.eigh(dense)[1][:, :2]
        got = np.array([v for _, v in pairs]).T * math.sqrt(WELL_GRID.step)
        assert np.max(np.abs(got @ got.T - ref @ ref.T)) <= 1e-12


START_1200 = "d526ec742a7dd7be4a4ff687a124b6834459c919e9fb444c28419ae1f8814b53"


def splitmix64(i):
    """The i-th output of the splitmix64 generator from seed 0, in Python integers."""
    mask = (1 << 64) - 1
    z = i * 0x9E3779B97F4A7C15 & mask
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & mask
    z = (z ^ z >> 27) * 0x94D049BB133111EB & mask
    return z ^ z >> 31


class TestCertifiedValues:
    @settings(max_examples=40, deadline=None)
    @given(case=spectrum_cases(N=st.integers(3, 6), M=st.integers(60, 2000)))
    def test_each_accepted_value_meets_its_certificate(self, case):
        # the towers m >= 1 of the merge up to its bracket: each value that
        # Rayleigh-quotient iteration accepts is the quotient of a unit x
        # whose residual, summed again by fsum, is within 16 eps ||T||_1 and
        # meets ||r||^2 / gap <= 2^-6 eps ||T||_1 with the gap to the other
        # eigenvalues of tight bisection, and it lies within rounding of
        # tight bisection
        potential, K, grid = case
        towers = PolarTowers(potential, grid)
        hi = angular._bracket(towers, K)
        axial = [mu for mu, _ in polar_eigen(towers.matrix(0), hi)]
        accepted, iterate = [], angular._iterate
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(angular, "_iterate", lambda mat, *a: accepted.append(
                (mat, *iterate(mat, *a))) or accepted[-1][1:])
            got = angular._tower_values(towers, hi, axial)
        assume(accepted)
        eps = np.finfo(float).eps
        for mat, theta, x in accepted:
            floor = eps * mat.one_norm()
            count = next(len(vals) for m, vals in enumerate(got, 1) if towers.matrix(m) is mat)
            ref = eigvalsh_tridiagonal(mat.diag, mat.off, select="i",
                                       select_range=(0, min(count, mat.size - 1)), tol=eps)
            j = int(np.argmin(np.abs(ref - theta)))
            assert j < count and abs(theta - ref[j]) <= 4 * floor
            r = mat.matvec(x) - theta * x
            others = np.abs(np.delete(ref, j) - theta)
            gap = float(np.min(others, initial=math.inf)) - 4 * floor
            rr = math.fsum(r * r) / math.fsum(x * x)
            assert rr <= (16 * floor) ** 2 * (1 + 1e-12) and rr <= 2.0**-6 * floor * gap

    def test_clear_values_make_no_dstein_call(self, monkeypatch):
        # dipole:1, K = 80, M = 2000: the towers m >= 1 take their cells from
        # their guesses, and `_cell` places the m = 0 cells alone; no LAPACK
        # inverse iteration is bound at all
        grid = PolarGrid.build(3, 2000)
        potential = AngularPotential.dipole(1.0)
        cell, iterate, searched, solved = angular._cell, angular._iterate, [], []
        monkeypatch.setattr(angular, "_cell", lambda mat, *a: searched.append(mat.diag) or cell(mat, *a))
        monkeypatch.setattr(angular, "_iterate", lambda mat, *a: solved.append(mat.diag)
                            or iterate(mat, *a))
        spec = full_spectrum(potential, 80, grid)
        axial = PolarTowers(potential, grid).matrix(0).diag
        assert len(searched) == sum(np.array_equal(d, axial) for d in solved) >= len(spec.tower(0))
        assert all(np.array_equal(d, axial) for d in searched)
        assert len({d.tobytes() for d in solved}) >= 9
        assert not hasattr(_lapack, "dstein") and not hasattr(angular, "dstein")

    def test_a_quotient_outside_its_cell_is_not_a_shift(self, monkeypatch):
        # dipole:0.503241, N = 3, M = 10000, tower m = 7 up to the K = 80
        # bracket: the start holds so little of the second eigenvector that
        # two solves from its probe value 71.92 give the quotient 72.52,
        # outside the probe's cell [71.42, 72.42].  One more solve with the
        # same factors draws x back, and the next factorization, at that
        # quotient, gives the accepted value
        grid = PolarGrid.build(3, 10000)
        towers = PolarTowers(AngularPotential.dipole(0.503241), grid)
        mat, hi = towers.matrix(7), angular._bracket(towers, 80)
        assert count_at_most(mat, hi) == 2
        probed = angular._probe(mat, hi, 2, 0.5)
        prev, value, after = probed[1:4]
        cell = angular._Cell(value, value - 0.5, value + 0.5, min(value - prev, after - value) - 1.0)
        factor, quotient, calls = angular.dgttrf, angular._quotient, []
        monkeypatch.setattr(angular, "dgttrf",
                            lambda *a, **kw: calls.append("dgttrf") or factor(*a, **kw))
        monkeypatch.setattr(angular, "_quotient",
                            lambda *a: calls.append(quotient(*a)[0]) or quotient(*a))
        theta, _ = angular._iterate(mat, cell, [])
        # the second value: one factorization at its probe value, a quotient
        # outside the cell, then one inside it from the same factors
        factored, outside, inside = calls[:3]
        assert factored == "dgttrf" and isinstance(inside, float)
        assert outside > value + 0.5 and abs(inside - value) <= 0.5
        assert calls[3:] == ["dgttrf", theta]
        ref = eigvalsh_tridiagonal(mat.diag, mat.off, select="i", select_range=(1, 1),
                                   tol=np.finfo(float).eps)
        assert abs(theta - ref[0]) <= 4 * np.finfo(float).eps * mat.one_norm()

    def test_the_start_vector_is_pinned(self):
        # splitmix64 from seed 0, top 53 bits scaled to [-1, 1): integer
        # arithmetic alone, so no libm, BLAS or host changes a bit
        x = angular._start_vector(1200)
        assert x.tolist() == [(splitmix64(i) >> 11) * 2.0**-52 - 1.0 for i in range(1, 1201)]
        assert hashlib.sha256(x.tobytes()).hexdigest() == START_1200
        assert not x.flags.writeable and x is angular._start_vector(1200)


def traced_tower_values(potential, K, grid):
    """(towers, values, events): the towers m >= 1 up to the K-th value's bracket, traced.

    `events` lists in order each count ("count", matrix, x, count), each
    result of `_guided_cells` ("guided", matrix, cells or None), each probe
    ("probe", matrix, width), each result of `_cell` ("cell", matrix, j,
    cell) and each iteration ("iterate", matrix, cell, (theta, x)), that
    one appended once the iteration returns.
    """
    towers = PolarTowers(potential, grid)
    hi = angular._bracket(towers, K)
    axial = [mu for mu, _ in polar_eigen(towers.matrix(0), hi)]
    count, guided, probe, cell, iterate = (angular.count_at_most, angular._guided_cells,
                                           angular._probe, angular._cell, angular._iterate)
    events = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(angular, "count_at_most", lambda mat, x: events.append(
            ("count", mat, x, count(mat, x))) or events[-1][3])
        patch.setattr(angular, "_guided_cells", lambda mat, *a: events.append(
            ("guided", mat, guided(mat, *a))) or events[-1][2])
        patch.setattr(angular, "_probe", lambda mat, x, n, width: events.append(
            ("probe", mat, width)) or probe(mat, x, n, width))
        patch.setattr(angular, "_cell", lambda mat, j, *a: events.append(
            ("cell", mat, j, cell(mat, j, *a))) or events[-1][3])
        patch.setattr(angular, "_iterate", lambda mat, cell, kept: events.append(
            ("iterate", mat, cell, iterate(mat, cell, kept))) or events[-1][3])
        values = angular._tower_values(towers, hi, axial)
    return towers, values, events


WELLS = [(200.0, WELL_GRID, 30), (40.0, DOUBLET_GRID, 60)]


class TestGuidedTowers:
    @settings(max_examples=30, deadline=None)
    @given(case=spectrum_cases(N=st.integers(3, 7), M=st.integers(60, 2000)))
    @example(case=(well(200.0, WELL_GRID), 30, WELL_GRID))
    @example(case=(well(40.0, DOUBLET_GRID), 60, DOUBLET_GRID))
    def test_every_guided_value_is_proven_certified_and_tight(self, case):
        # a guided value's interval holds it alone by the counts the tower
        # took, its quotient meets ||r|| <= 16 eps ||T_m||_1 at a gap of
        # 2^14 eps ||T_m||_1 or more, and it lies within 4 eps ||T_m||_1 of
        # tight bisection.  A tower that declines makes counts only, then one
        # probe at 2^-1, and no iteration before it
        potential, K, grid = case
        towers, got, events = traced_tower_values(potential, K, grid)
        eps = np.finfo(float).eps
        for m, vals in enumerate(got, 1):
            mat = towers.matrix(m)
            mine = [e for e in events if e[1] is mat]
            [cells] = [e[2] for e in mine if e[0] == "guided"] or [None]
            probes = [i for i, e in enumerate(mine) if e[0] == "probe"]
            if cells is None:
                assert len(probes) == 1 and mine[probes[0]][2] == 0.5
                assert {e[0] for e in mine[:probes[0]]} <= {"count", "guided"}
                continue
            if probes:  # an iteration was not accepted: the probe path solved the tower
                continue
            floor = eps * mat.one_norm()
            ref = eigvalsh_tridiagonal(mat.diag, mat.off, select="i",
                                       select_range=(0, min(len(vals), mat.size - 1)), tol=eps)
            counted = {(e[2], e[3]) for e in mine if e[0] == "count"}
            solved = [e[2:] for e in mine if e[0] == "iterate"]
            assert [cell for cell, _ in solved] == cells and len(cells) == len(vals)
            for j, (cell, (theta, x)) in enumerate(solved, 1):
                below = max(y for y, n in counted if n < j)
                above = min(y for y, n in counted if n >= j)
                assert (below, j - 1) in counted and (above, j) in counted
                slack = 2 * eps * max(abs(below), abs(above), 1.0)
                assert min(cell.lo - below, above - cell.hi) >= cell.gap - slack
                assert cell.gap >= 2**14 * floor
                r = mat.matvec(x) - theta * x
                assert math.sqrt(math.fsum(r * r)) <= 16 * floor * (1 + 1e-9)
                assert vals[j - 1] == theta and abs(theta - ref[j - 1]) <= 4 * floor
                others = np.abs(np.delete(ref, j - 1) - theta)
                assert np.all(others >= cell.gap - 4 * floor)

    @pytest.mark.parametrize("guesses,cells,counts", [
        # eigenvalues 1, 3 and 10, hi = 5: ends 0.5, 2 and 5
        ([1.25, 2.75], [(1.25, 0.75, 1.75), (2.75, 2.25, 4.75)], [(0.5, 0), (2.0, 1)]),
        # a guess within w = 0.5 of an end, and guesses that decrease: no count
        ([1.1, 1.8], None, []),
        ([2.9, 1.1], None, []),
        # the first end counts 1, not 0: no other count
        ([2.0, 4.0], None, [(1.0, 1)]),
    ])
    def test_guesses_and_counts_decide_the_cells(self, monkeypatch, guesses, cells, counts):
        mat = TridiagonalMatrix(np.array([1.0, 3.0, 10.0]), np.zeros(2), 1.0)
        seen, count = [], angular.count_at_most
        monkeypatch.setattr(angular, "count_at_most", lambda m, x: seen.append((x, count(m, x)))
                            or seen[-1][1])
        got = angular._guided_cells(mat, 5.0, guesses, 0.5)
        assert seen == counts
        assert got == (cells and [angular._Cell(*cell, 0.25) for cell in cells])

    @pytest.mark.parametrize("depth,grid,K", WELLS)
    def test_a_double_well_declines_before_any_solve(self, depth, grid, K):
        # the towers m >= 1 of the double wells hold pairs of values closer
        # than the guesses' intervals; their counts disagree
        towers, got, events = traced_tower_values(well(depth, grid), K, grid)
        declined = [e[1] for e in events if e[0] == "guided" and e[2] is None]
        assert declined
        for mat in declined:
            kinds = [e[0] for e in events if e[1] is mat and e[0] != "guided"]
            first = kinds.index("probe")
            assert set(kinds[:first]) == {"count"} and kinds.count("probe") == 1

    @pytest.mark.parametrize("depth,grid,K", WELLS)
    def test_a_declined_tower_iterates_the_cells_of_its_walk(self, depth, grid, K):
        # each declined tower takes `_cell` at j = 1, 2, ..., count in order;
        # it iterates exactly the cells with a finite gap, in order, and its
        # values are their quotients and the bisected values
        towers, got, events = traced_tower_values(well(depth, grid), K, grid)
        declined = [e[1] for e in events if e[0] == "guided" and e[2] is None]
        assert declined
        for mat in declined:
            [vals] = [vals for m, vals in enumerate(got, 1) if towers.matrix(m) is mat]
            walk = [e[2:] for e in events if e[0] == "cell" and e[1] is mat]
            assert [j for j, _ in walk] == list(range(1, len(vals) + 1))
            placed = [cell for _, cell in walk]
            solved = [e[2:] for e in events if e[0] == "iterate" and e[1] is mat]
            assert [cell for cell, _ in solved] == [c for c in placed if c.gap < math.inf]
            thetas = iter(theta for _, (theta, _) in solved)
            assert vals.tolist() == [c.shift if c.gap == math.inf else next(thetas) for c in placed]


def doubled_bracket(towers, K):
    """The K-th value's bracket as a span doubled from -max a and bisected 3 times, by counts."""
    start = -float(np.max(towers.a))

    def reaches(x):
        return angular._count_from(towers, 0, x, K - 1) >= K

    lo, span = start, 1.0
    while not reaches(start + span):
        lo, span = start + span, 2.0 * span
    hi = start + span
    for _ in range(3):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if reaches(mid) else (mid, hi)
    return hi


class TestBracket:
    @pytest.mark.parametrize("potential,K,M", [
        (AngularPotential.constant(0.0), 500, 1200),
        (AngularPotential.dipole(1.0), 80, 10000),
        (AngularPotential.dipole(0.9), 20, 10000),
        (AngularPotential.dipole(0.9), 80, 10000),
    ])
    def test_the_free_level_is_one_count_sum(self, monkeypatch, potential, K, M):
        # N = 3: level l holds 2l + 1 free values, so K = 500, 80 and 20 sit
        # in levels 22, 8 and 4, and hi is l(l + 1) - min a + 1
        grid = PolarGrid.build(3, M)
        sums, count_from = [], angular._count_from
        monkeypatch.setattr(angular, "_count_from", lambda *a: sums.append(a) or count_from(*a))
        hi = angular._bracket(PolarTowers(potential, grid), K)
        level = {500: 22, 80: 8, 20: 4}[K]
        assert len(sums) == 1
        assert hi == level * (level + 1) - float(np.min(potential.sample(grid))) + 1.0

    @pytest.mark.parametrize("N,M,sampling,kind,K", [
        # a oscillates by 400, more than any levels' gap
        (3, 800, "flux", "double-well", 1),
        (3, 800, "flux", "double-well", 30),
        (4, 300, "node", "double-well", 12),
        # node sampling lifts the last value of a level above l(l + 1) + 1
        (3, 40, "node", "constant", 9),
        (3, 100, "node", "constant", 16),
        # the ground level: 1.5 cos t spreads it past the next level's bottom
        (3, 400, "flux", "dipole", 1),
        (4, 400, "node", "dipole", 1),
    ])
    def test_no_free_level_bound_keeps_the_doubled_bracket(self, monkeypatch, N, M, sampling,
                                                           kind, K):
        grid = PolarGrid.build(N, M, sampling)
        if kind == "double-well":
            potential = AngularPotential.tabulated(200.0 * np.cos(2 * grid.nodes), grid)
        else:
            potential = AngularPotential.constant(0.0) if kind == "constant" else \
                AngularPotential.dipole(1.5)
        want = doubled_bracket(PolarTowers(potential, grid), K)
        sums, count_from = [], angular._count_from
        monkeypatch.setattr(angular, "_count_from", lambda *a: sums.append(a) or count_from(*a))
        hi = angular._bracket(PolarTowers(potential, grid), K)
        assert bits(hi) == bits(want) and len(sums) > 1

    @settings(max_examples=50, deadline=None)
    @given(case=spectrum_cases(N=st.integers(3, 6), M=st.integers(60, 2000)),
           m=st.integers(0, 4))
    # the a = 40 cos 2t doublet: mu_1 and mu_2 lie 3.9e-5 apart, within each other's guard band
    @example(case=(AngularPotential.tabulated(40.0 * np.cos(2 * DOUBLET_GRID.nodes), DOUBLET_GRID),
                   4, DOUBLET_GRID), m=0)
    def test_probe_bounds_skip_only_counts(self, case, m):
        # the probe only skips counts whose outcome it proves: the cells from
        # the probe are the cells from the tight value of eigenvalue j with no
        # bounds on its neighbours, whose guard bands are all counted
        potential, K, grid = case
        towers = PolarTowers(potential, grid)
        hi = angular._bracket(towers, K)
        assert angular._count_from(towers, 0, hi, K - 1) >= K
        calls, cell = [], angular._cell
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(angular, "_cell", lambda *a: calls.append((a, cell(*a))) or calls[-1][1])
            polar_eigen(towers.matrix(m), hi)
        eps = np.finfo(float).eps
        for (mat, j, probed, width), placed in calls:
            fresh = TridiagonalMatrix(mat.diag, mat.off, mat.step)
            tight = eigvalsh_tridiagonal(mat.diag, mat.off, select="i", select_range=(j - 1, j - 1),
                                         tol=eps)[0]
            unbounded = [math.inf] * (j + 2)
            unbounded[j], unbounded[j + 1] = tight, -math.inf
            assert cell(fresh, j, unbounded, width) == placed


class TestFullSpectrum:
    def test_free_sphere_with_multiplicities(self, free3_spectrum):
        flat = free3_spectrum.flattened()[:9]
        assert flat == pytest.approx([0, 2, 2, 2, 6, 6, 6, 6, 6], abs=2e-3)

    def test_multiplicity_formula(self):
        assert harmonic_multiplicity(3, 0) == 1
        assert harmonic_multiplicity(3, 5) == 2
        assert [harmonic_multiplicity(4, m) for m in range(4)] == [1, 3, 5, 7]
        assert harmonic_multiplicity(5, 2) == 9  # degree-2 harmonics on S^3

    def test_n4_flattened_structure(self):
        g = PolarGrid.build(4, 300)
        s = full_spectrum(AngularPotential.constant(0.0), 14, g)
        flat = s.flattened()[:14]
        expect = [0.0] + [3.0] * 4 + [8.0] * 9
        assert flat == pytest.approx(expect, abs=5e-3)

    def test_constant_potential_ground(self):
        g = PolarGrid.build(4, 300)
        s = full_spectrum(AngularPotential.constant(1.0), 1, g)
        assert s.mu_1 == pytest.approx(-1.0, abs=1e-9)

    def test_dipole_ground_bounds(self, dipole3_spectrum):
        assert -1.0 < dipole3_spectrum.mu_1 < 0.0

    def test_simplicity_gap(self, dipole3_spectrum):
        flat = dipole3_spectrum.flattened()
        assert flat[1] - flat[0] > 0.1

    def test_ground_profile_positive(self, dipole3_spectrum):
        grid = dipole3_spectrum.grid
        psi1 = dipole3_spectrum.psi_1.psi
        assert np.all(psi1 > 0)
        # unit norm on the sphere
        assert psi1**2 @ grid.quadrature == pytest.approx(1.0, abs=1e-10)

    def test_resolution_error(self):
        g = PolarGrid.build(3, 20)
        with pytest.raises(ResolutionError):
            full_spectrum(AngularPotential.constant(0.0), 21, g)

    @pytest.mark.parametrize("solve", [full_spectrum, axisymmetric_spectrum])
    def test_a_ground_doublet_below_rounding_is_named(self, solve):
        # a = 200 cos 2t on M = 140: the two lowest m = 0 values agree to the
        # bit, so no ground profile is defined, whatever the sign of the one formed
        grid = PolarGrid.build(3, 140)
        potential = AngularPotential.tabulated(200.0 * np.cos(2 * grid.nodes), grid)
        with pytest.raises(ResolutionError, match=r"two lowest m = 0 eigenvalues lie 0 apart, "
                                                  r"within 16 eps \|\|T_0\|\|_1"):
            solve(potential, 27, grid)

    @pytest.mark.parametrize("solve", [full_spectrum, axisymmetric_spectrum])
    @pytest.mark.parametrize("M,K", [(2000, 40), (800, 80), (140, 5)])
    def test_a_ground_doublet_is_raised_before_the_towers_above(self, monkeypatch, solve, M, K):
        # the gap is checked right after the m = 0 solve: no tower m >= 1 is
        # solved, and the keep rule makes no count (full_spectrum solved 6, 9
        # and 2 towers m >= 1 here, and axisymmetric_spectrum ran its keep rule)
        grid = PolarGrid.build(3, M)
        potential = AngularPotential.tabulated(200.0 * np.cos(2 * grid.nodes), grid)
        calls = []
        eigen, values, count_from = angular.polar_eigen, angular._tower_values, angular._count_from
        monkeypatch.setattr(angular, "polar_eigen",
                            lambda *a: calls.append("polar_eigen") or eigen(*a))
        monkeypatch.setattr(angular, "_tower_values",
                            lambda *a: calls.append("_tower_values") or values(*a))
        monkeypatch.setattr(angular, "_count_from",
                            lambda towers, first, *a: calls.append(("_count_from", first))
                            or count_from(towers, first, *a))
        angular._axisymmetric_memo.cache_clear()
        with pytest.raises(ResolutionError, match="two lowest m = 0 eigenvalues"):
            solve(potential, K, grid)
        assert "polar_eigen" in calls and ("_count_from", 0) in calls
        assert "_tower_values" not in calls and ("_count_from", 1) not in calls

    def test_mu1_monotone_in_coupling(self):
        g = PolarGrid.build(3, 300)
        mus = []
        for lam in (0.0, 0.5, 1.0, 1.5, 2.0):
            s = full_spectrum(AngularPotential.dipole(lam), 1, g)
            mus.append(s.mu_1)
        assert all(b <= a + 1e-12 for a, b in zip(mus, mus[1:]))

    def test_axisymmetric_mode_indexing(self, dipole3_spectrum):
        tower = dipole3_spectrum.tower(0)
        assert dipole3_spectrum.axisymmetric_mode(1).mu == tower[0].mu
        with pytest.raises(InputError):
            dipole3_spectrum.axisymmetric_mode(0)
        with pytest.raises(InputError):
            dipole3_spectrum.axisymmetric_mode(len(tower) + 1)

    @settings(max_examples=60, deadline=None)
    @given(case=spectrum_cases())
    def test_matches_exhaustive_merge(self, case):
        potential, K, grid = case
        N = grid.dim
        spec = full_spectrum(potential, K, grid)
        ref = exhaustive_merge(potential, K, grid)
        want = [(m, harmonic_multiplicity(N, m)) for m, (_, vals) in enumerate(ref) for _ in vals]
        assert sorted((md.m, md.multiplicity) for md in spec.modes) == sorted(want)
        # value-range and index-range bisection agree to LAPACK's tolerance
        for m, (mat, vals) in enumerate(ref):
            got = np.array([md.mu for md in spec.tower(m)])
            assert np.all(np.abs(got - vals) <= 4 * np.finfo(float).eps * mat.one_norm())
        # the m = 0 modes are the tight solve of their tower, whatever the count
        axial, kept = ref[0]
        want0 = polar_eigen(axial, bound(axial, kept.size))
        for md, (mu, vec) in zip(spec.tower(0), want0, strict=True):
            assert abs(md.mu - mu) <= 4 * np.finfo(float).eps * max(1.0, abs(mu))
            profile = vec / math.sqrt(grid.area_equator) / np.sin(grid.nodes) ** ((N - 2) / 2.0)
            assert np.max(np.abs(md.psi - profile)) <= 1e-11 * np.max(np.abs(profile))

    @settings(max_examples=40, deadline=None)
    @given(case=spectrum_cases())
    def test_merge_invariants(self, case):
        potential, K, grid = case
        spec = full_spectrum(potential, K, grid)
        towers = sorted({md.m for md in spec.modes})
        assert towers == list(range(len(towers)))
        bottoms = [spec.tower(m)[0].mu for m in towers]
        assert all(lo < hi for lo, hi in zip(bottoms, bottoms[1:]))
        assert len(spec.flattened()) == sum(md.multiplicity for md in spec.modes) >= K
        for md in spec.modes:
            if md.m == 0:
                assert md.psi.shape == grid.nodes.shape
            else:
                assert md.psi is None

    def test_weyl_merge_work_count(self, monkeypatch):
        # N = 3, K = 500, M = 1200: Sturm counts bracket the K-th flattened
        # value before any value is computed, and the m = 0 tower is the only
        # one probed: each tower m >= 1 starts from guesses that the towers
        # below give, and counts prove them.  A value probe per tower bounded
        # by the running K-th value requested 1623 eigenvalues here, an
        # index-range probe of K values per tower 11500, and a probe per tower
        # up to hi 276
        K = 500
        brackets, probed, probes, counts = [], [], [], []
        bracket, probe, values, count = (angular._bracket, angular._probe,
                                         angular.eigvalsh_tridiagonal, angular.count_at_most)

        def bracketing(*args):
            brackets.append(bracket(*args))
            counts.append(None)  # the requests after this mark are the towers' own
            return brackets[-1]

        def counting_values(*args, **kwargs):
            probes.append((args[0], kwargs, values(*args, **kwargs)))
            return probes[-1][2]

        monkeypatch.setattr(angular, "_bracket", bracketing)
        monkeypatch.setattr(angular, "_probe", lambda mat, *a: probed.append(mat.diag) or probe(mat, *a))
        monkeypatch.setattr(angular, "eigvalsh_tridiagonal", counting_values)
        monkeypatch.setattr(angular, "count_at_most", lambda *a: counts.append(a) or count(*a))
        grid = PolarGrid.build(3, 1200)
        potential = AngularPotential.constant(0.0)
        spec = full_spectrum(potential, K, grid)
        monkeypatch.undo()
        towers = PolarTowers(potential, grid)
        [hi] = brackets

        # counts replace the probes of the towers m >= 1: with a probe per
        # tower this merge made 81 count requests (<= 97) and took 276 probe
        # values; a dyadic count search for the m = 0 cells made 563 requests,
        # and a bracket doubled from -max a with every guard band counted, 270
        assert len(counts) - 1 <= 334
        assert sum(vals.size for *_, vals in probes) <= 23
        # one probe, of T_0, at 2^-1 and reaching 4 of those widths above hi
        [(diag, kwargs, vals)] = probes
        assert len(probed) == 1 and np.array_equal(probed[0], towers.matrix(0).diag)
        assert np.array_equal(diag, towers.matrix(0).diag)
        assert kwargs["select"] == "v" and kwargs["tol"] == 0.5
        assert kwargs["select_range"] == (-math.inf, hi + 4 * 0.5)
        assert vals.size >= count_at_most(towers.matrix(0), hi)
        # each guided tower makes count_m + 1 requests or fewer after the
        # bracket: its count at hi and one at each lower end of its intervals
        scanned = [m for m in range(grid.size + 1) if count_at_most(towers.matrix(m), hi)]
        assert scanned == list(range(len(scanned))) and len(scanned) > 2
        own = counts[counts.index(None) + 1:]
        for m in scanned[1:]:
            mat = towers.matrix(m)
            xs = [x for requested, x in own if np.array_equal(requested.diag, mat.diag)]
            assert hi in xs and len(xs) <= count_at_most(mat, hi) + 1
        assert {md.m for md in spec.modes} <= set(scanned)
        assert sum(harmonic_multiplicity(3, m) * count_at_most(towers.matrix(m), hi)
                   for m in scanned) >= K

        # the dipole K = 80, M = 10000 merge: 37 count requests (<= 43) with a
        # probe per tower; 198 with the dyadic m = 0 search, 108 with the
        # doubled bracket and every guard band counted
        counts.clear()
        probed.clear()
        monkeypatch.setattr(angular, "_probe", lambda mat, *a: probed.append(mat) or probe(mat, *a))
        monkeypatch.setattr(angular, "count_at_most", lambda *a: counts.append(a) or count(*a))
        full_spectrum(AngularPotential.dipole(0.9), 80, PolarGrid.build(3, 10000))
        assert len(counts) <= 73 and len(probed) == 1

    @pytest.mark.parametrize("solve", [full_spectrum, axisymmetric_spectrum])
    def test_no_count_is_factored_twice(self, monkeypatch, solve):
        # the bracket, the keep rule, each tower's count at hi and its cell
        # search share the counts that each tower matrix remembers; in the
        # N = 3 Weyl case full_spectrum makes 334 requests at 315 distinct
        # (matrix, x).  Each sweep starts with one dpttrf call on all M rows
        M = 1200
        requests, rows = [], []
        count, factor = angular.count_at_most, angular.dpttrf
        monkeypatch.setattr(angular, "count_at_most",
                            lambda mat, x: requests.append((id(mat), x)) or count(mat, x))
        monkeypatch.setattr(angular, "dpttrf",
                            lambda d, e, **kw: rows.append(d.size) or factor(d, e, **kw))
        angular._axisymmetric_memo.cache_clear()
        solve(AngularPotential.constant(0.0), 500, PolarGrid.build(3, M))
        distinct = set(requests)
        assert len(requests) > len(distinct) > 50
        assert rows.count(M) == len(distinct)

    @pytest.mark.parametrize("potential", [AngularPotential.constant(-1e300),
                                           AngularPotential.dipole(1e300),
                                           AngularPotential.dipole(-1e17)])
    def test_unresolvable_potential_fails_before_any_solve(self, monkeypatch, potential):
        # once |max a| >= 2^53, -max a + 1 rounds to -max a: every tower's
        # values would round to the bracket and the scan would probe all towers
        calls = []
        monkeypatch.setattr(angular, "eigvalsh_tridiagonal", lambda *a, **k: calls.append(k))
        monkeypatch.setattr(angular, "dgttrf", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(angular, "dstebz", lambda *a: calls.append(a))
        with pytest.raises(ResolutionError, match="float64 cannot resolve"):
            full_spectrum(potential, 5, PolarGrid.build(3, 2000))
        assert calls == []

    @pytest.mark.parametrize("sampling,solve", [
        pytest.param("flux", full_spectrum, id="flux"),
        pytest.param("node", full_spectrum, id="node"),
        pytest.param("flux", axisymmetric_spectrum, id="flux-axisymmetric_spectrum"),
        pytest.param("node", axisymmetric_spectrum, id="node-axisymmetric_spectrum"),
    ])
    def test_m0_values_do_not_depend_on_the_count(self, sampling, solve):
        grid = PolarGrid.build(3, 2000, sampling)
        towers = {K: solve(AngularPotential.dipole(1.0), K, grid).tower(0)
                  for K in (5, 20, 80, 200)}
        for K, tower in towers.items():
            ref = towers[200][:len(tower)]
            assert np.array_equal(bits([md.mu for md in tower]), bits([md.mu for md in ref])), K
            for md, want in zip(tower, ref):
                assert np.array_equal(bits(md.psi), bits(want.psi)), K

    @pytest.mark.parametrize("N,M,coupling", [(3, 2000, 1.0), (4, 400, 0.7)])
    def test_higher_tower_values_do_not_drift_with_the_count(self, N, M, coupling):
        # each m >= 1 value is the Rayleigh quotient of a converged vector, so
        # the probe's hi, which moves with K, leaves it within rounding
        grid = PolarGrid.build(N, M)
        potential = AngularPotential.dipole(coupling)
        towers = PolarTowers(potential, grid)
        for K in (10, 20, 30):
            small, large = full_spectrum(potential, K, grid), full_spectrum(potential, K + 10, grid)
            for m in range(1, 12):
                a, b = [md.mu for md in small.tower(m)], [md.mu for md in large.tower(m)]
                n = min(len(a), len(b))
                floor = np.finfo(float).eps * towers.matrix(m).one_norm()
                assert np.all(np.abs(np.subtract(a[:n], b[:n])) <= 0.05 * floor), (K, m)


class TestAxisymmetricSpectrum:
    @settings(max_examples=60, deadline=None)
    @given(case=spectrum_cases())
    # a near tie: mu_9 = 72.0017266 of the m = 0 tower sits just above tower
    # 1's 72.0016462, the K-th flattened value, and a Sturm count of tower 0
    # at mu_9 itself returns 8, not 9
    @example(case=(AngularPotential.dipole(1.0), 80, PolarGrid.build(3, 10000)))
    def test_matches_the_m0_tower_of_the_merge(self, case):
        want = full_spectrum(*case).tower(0)
        got = axisymmetric_spectrum(*case)
        assert len(got.modes) == len(want)
        assert all(md.m == 0 and md.multiplicity == 1 for md in got.modes)
        assert np.array_equal(bits([md.mu for md in got.modes]), bits([md.mu for md in want]))
        for md, ref in zip(got.modes, want):
            assert np.array_equal(bits(md.psi), bits(ref.psi))

    def test_near_tie_keeps_what_the_merge_keeps(self):
        grid = PolarGrid.build(3, 10000)
        potential = AngularPotential.dipole(1.0)
        full = full_spectrum(potential, 80, grid)
        spec = axisymmetric_spectrum(potential, 80, grid)
        assert len(spec.modes) == len(full.tower(0)) == 8
        mu9 = polar_eigen(spec.axial, bound(spec.axial, 9))[8][0]
        cutoff = full.flattened()[79]
        assert spec.modes[-1].mu < cutoff < mu9 < cutoff + 1e-3
        # the keep rule's tower-0 term is the index j = 9, which rejects mu_9
        towers = PolarTowers(potential, grid)
        assert 9 + sum(harmonic_multiplicity(3, m) * count_at_most(towers.matrix(m), mu9)
                       for m in range(1, 12)) == 81

    @pytest.mark.parametrize("solve", [full_spectrum, axisymmetric_spectrum])
    def test_one_tower_build_per_call(self, monkeypatch, solve):
        # the bracket, the m >= 1 scan and the keep rule share one PolarTowers,
        # and with it the sin^(N-4) cell integrals; it builds each tower once
        builds = []
        matrices = []  # (m, tower matrix) for every distinct matrix handed out

        class Counting(PolarTowers):
            def __init__(self, *args):
                builds.append(args)
                super().__init__(*args)

            def matrix(self, m):
                mat = super().matrix(m)
                if not any(mat is seen for _, seen in matrices):
                    matrices.append((m, mat))
                return mat

        monkeypatch.setattr(angular, "PolarTowers", Counting)
        solve(AngularPotential.dipole(1.0), 30, PolarGrid.build(4, 400))
        assert len(builds) == 1
        ms = [m for m, _ in matrices]
        assert 0 in ms and len(ms) == len(set(ms))

    @pytest.mark.parametrize("K,error", [(0, InputError), (801, ResolutionError)])
    def test_count_out_of_range(self, K, error):
        with pytest.raises(error):
            axisymmetric_spectrum(AngularPotential.dipole(1.0), K, PolarGrid.build(3, 800))

    @pytest.mark.parametrize("sampling", ["flux", "node"])
    def test_apply_axial_is_the_operator_in_psi_coordinates(self, sampling):
        grid = PolarGrid.build(3, 400, sampling)
        spec = axisymmetric_spectrum(AngularPotential.dipole(1.0), 10, grid)
        g = spec.psi_1.psi * np.cos(grid.nodes)
        want = spec.axial.matvec(g * grid.half_weights) / grid.half_weights
        assert np.array_equal(spec.apply_axial(g), want)


class TestAxisymmetricMemo:
    """axisymmetric_spectrum keeps one result, under (N, M, sampling, K, kind, exact value)."""

    @staticmethod
    def counted_solves(monkeypatch):
        calls = []
        count, iterate, towers = angular.count_at_most, angular._iterate, PolarTowers
        monkeypatch.setattr(angular, "count_at_most",
                            lambda *a: calls.append("count_at_most") or count(*a))
        monkeypatch.setattr(angular, "_iterate", lambda *a: calls.append("_iterate") or iterate(*a))
        monkeypatch.setattr(angular, "PolarTowers",
                            lambda *a: calls.append("PolarTowers") or towers(*a))
        return calls

    def test_a_hit_returns_the_result_without_a_solve(self, monkeypatch):
        first = axisymmetric_spectrum(AngularPotential.dipole(0.7), 20, PolarGrid.build(3, 300))
        calls = self.counted_solves(monkeypatch)
        # a new grid and potential with the same values
        again = axisymmetric_spectrum(AngularPotential.dipole(0.7), 20, PolarGrid.build(3, 300))
        assert again is first and calls == []
        assert angular._axisymmetric_memo.cache_info().hits == 1
        angular._axisymmetric_memo.cache_clear()
        fresh = axisymmetric_spectrum(AngularPotential.dipole(0.7), 20, PolarGrid.build(3, 300))
        assert fresh is not first and {"count_at_most", "_iterate", "PolarTowers"} <= set(calls)
        assert np.array_equal(bits([md.mu for md in fresh.modes]), bits([md.mu for md in first.modes]))
        for md, ref in zip(fresh.modes, first.modes):
            assert np.array_equal(bits(md.psi), bits(ref.psi))

    def test_each_key_component_misses(self):
        # each variant differs from the base in one key component; 0.0 and
        # -0.0, and a constant against a dipole at 0, solve the same tower
        base = (3, 200, "flux", 12, AngularPotential.dipole(0.0))
        variants = [
            (4, 200, "flux", 12, AngularPotential.dipole(0.0)),
            (3, 201, "flux", 12, AngularPotential.dipole(0.0)),
            (3, 200, "node", 12, AngularPotential.dipole(0.0)),
            (3, 200, "flux", 13, AngularPotential.dipole(0.0)),
            (3, 200, "flux", 12, AngularPotential.constant(0.0)),
            (3, 200, "flux", 12, AngularPotential.dipole(-0.0)),
        ]
        memo = angular._axisymmetric_memo

        def value(potential):
            return potential.coupling if potential.kind == "dipole" else potential.kappa

        for calls, (N, M, sampling, K, potential) in enumerate(
                [case for variant in variants for case in (base, variant)], 1):
            spec = axisymmetric_spectrum(potential, K, PolarGrid.build(N, M, sampling))
            assert memo.cache_info().misses == calls
            assert (spec.grid.dim, spec.grid.size, spec.grid.sampling) == (N, M, sampling)
            assert spec.potential.kind == potential.kind
            assert float.hex(value(spec.potential)) == float.hex(value(potential))

    def test_an_exception_is_not_remembered(self, monkeypatch):
        memo = angular._axisymmetric_memo
        grid = PolarGrid.build(3, 200)
        kept = axisymmetric_spectrum(AngularPotential.dipole(1.0), 12, grid)
        with pytest.raises(ResolutionError):
            axisymmetric_spectrum(AngularPotential.dipole(1.0), 201, grid)
        assert axisymmetric_spectrum(AngularPotential.dipole(1.0), 12, grid) is kept

        factor = angular.dgttrf

        def failing(*args, **kwargs):  # the first shift is an eigenvalue to the bit
            return (*factor(*args, **kwargs)[:-1], 1)

        monkeypatch.setattr(angular, "dgttrf", failing)
        with pytest.raises(EigenSolveError, match="dgttrf info 1"):
            axisymmetric_spectrum(AngularPotential.dipole(0.5), 12, grid)
        monkeypatch.undo()
        solved = axisymmetric_spectrum(AngularPotential.dipole(0.5), 12, grid)
        assert solved.potential.coupling == 0.5
        assert memo.cache_info().misses == 4 and memo.cache_info().hits == 1

    @pytest.mark.parametrize("kind", ["dipole", "tabulated"])
    def test_the_shared_arrays_are_read_only(self, kind):
        grid = PolarGrid.build(3, 200)
        potential = (AngularPotential.dipole(1.0) if kind == "dipole"
                     else AngularPotential.tabulated(np.cos(grid.nodes), grid))
        spec = axisymmetric_spectrum(potential, 12, grid)
        g = spec.grid
        arrays = [g.nodes, g.weights, g.half_weights, g.quadrature,
                  spec.axial.diag, spec.axial.off, *(md.psi for md in spec.modes)]
        if kind == "tabulated":
            arrays.append(spec.potential.values)
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        # the caller's own grid and potential stay writable
        grid.nodes[0] = grid.nodes[0]


class TestMu1Bounds:
    """-ess sup a < mu_1 < -mean(a), strictly for a nonconstant potential."""

    def test_dipole_bounds_strict(self, dipole3_spectrum):
        s = dipole3_spectrum
        assert -s.potential.ess_sup < s.mu_1 < -sphere_mean(s.potential, s.grid)

    def test_n5_strong_coupling(self):
        g = PolarGrid.build(5, 400)
        s = full_spectrum(AngularPotential.dipole(2.0), 1, g)
        assert -s.potential.ess_sup < s.mu_1 < -sphere_mean(s.potential, g)

    # flux sampling is exact on constants (mu_1 = -kappa), which the discrete
    # bounds rest on; node sampling is not
    @settings(max_examples=40, deadline=None)
    @given(case=spectrum_cases(kinds=("dipole", "tabulated"), samplings=("flux",)))
    def test_bounds_hold_for_nonconstant_potentials(self, case):
        s = full_spectrum(*case)
        assert -s.potential.ess_sup < s.mu_1 < -sphere_mean(s.potential, s.grid)


class TestSupRatio:
    def test_free_sphere_ratios_bounded(self, free3_spectrum):
        # the ground value is zero to rounding and is skipped; the zonal
        # harmonic of degree l has sup sqrt((2l+1)/(4 pi)) and mu = l(l+1),
        # so the ratios fall from l = 1 on and the first one is the maximum
        tower = free3_spectrum.tower(0)
        assert abs(tower[0].mu) <= 4.0 * free3_spectrum.m0_rounding < abs(tower[1].mu)
        ratios = [mode_sup_norm(md) / abs(md.mu) for md in tower[1:]]  # power 1 at N = 3
        assert len(ratios) >= 5
        assert ratios[0] == pytest.approx(math.sqrt(3 / (4 * math.pi)) / 2, rel=1e-3)
        assert max(ratios) <= ratios[0] * (1 + 1e-9)
        assert eigenfunction_sup_ratio(free3_spectrum) == max(ratios)

    def test_dipole_ratio_finite(self, dipole3_spectrum):
        assert eigenfunction_sup_ratio(dipole3_spectrum) < 50.0

    @pytest.mark.parametrize("name", ["dipole3_spectrum", "free3_spectrum"])
    def test_pole_value_matches_quadratic_fit(self, request, name):
        spectrum = request.getfixturevalue(name)
        t = spectrum.grid.nodes

        def at_pole(x, y, x0):  # the quadratic through three samples, by least squares
            return abs(float(np.polyval(np.polyfit(x, y, 2), x0)))

        for md in spectrum.tower(0):
            psi = md.psi
            want = max(float(np.max(np.abs(psi))), at_pole(t[:3], psi[:3], 0.0),
                       at_pole(t[-3:], psi[-3:], math.pi))
            assert mode_sup_norm(md) == pytest.approx(want, rel=1e-12)

    def test_needs_two_modes(self):
        g = PolarGrid.build(3, 300)
        s = full_spectrum(AngularPotential.dipole(1.0), 1, g)
        with pytest.raises(InputError):
            eigenfunction_sup_ratio(s)


class TestWeylFit:
    def test_requires_enough_eigenvalues(self, dipole3_spectrum):
        with pytest.raises(InputError):
            weyl_fit(dipole3_spectrum)

    def test_free_sphere_exponent(self):
        g = PolarGrid.build(3, 500)
        s = full_spectrum(AngularPotential.constant(0.0), 150, g)
        fit = weyl_fit(s)
        assert fit.exponent == pytest.approx(1.0, rel=0.15)

    def test_negative_window_rejected(self):
        g = PolarGrid.build(3, 500)
        s = full_spectrum(AngularPotential.constant(100.0), 150, g)
        with pytest.raises(ResolutionError):
            weyl_fit(s)
