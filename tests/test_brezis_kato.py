import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dipolespec.brezis_kato import (
    BKParameters,
    _log_step_constant,
    asymptotic_cost_ratio,
    ell_q,
    exponent_sequence,
    iteration_constants,
)
from dipolespec.errors import InputError, NumericalError

REFERENCE = BKParameters(dim=4, s=3.0, v_norm=1.0, ckn_constant=1.0,
                         dist=1.0, diam=2.0, sigma=0.5)

# partial product at n = 200 for the reference parameters; regression anchor
REFERENCE_PRODUCT_200 = 133.14139380502718


def kernel_bracket(q: float) -> float:
    """The kernel's log bracket at stage n = 2 with no potential (no l_q term)."""
    p = BKParameters(4, 3.0, 0.0, 1.0, 1.0, 2.0, 0.5)
    return float(_log_step_constant(p, np.array([2.0]), np.array([q]))[0])


def free_bracket(q: float, C: float) -> float:
    """log(16 n^4/(R^2 C) + 4 n^4 (q+2)/R^2) at n = 2, R = dist/4 = 1/4."""
    n, R = 2.0, 0.25
    return math.log(16 * n**4 / (R**2 * C) + 4 * n**4 * (q + 2) / R**2)


class TestCOfQ:
    """C(q) = min(1/4, 4/(q+4)), as the kernel that `bk` prints evaluates it."""

    def test_small_q_uses_quarter(self):
        assert kernel_bracket(2.0) == pytest.approx(free_bracket(2.0, 0.25), rel=1e-12)

    def test_crossover_at_twelve(self):
        # both branches give 1/4 at q = 12; 4/(q+4) takes over above it
        assert kernel_bracket(12.0) == pytest.approx(free_bracket(12.0, 0.25), rel=1e-12)
        assert kernel_bracket(12.0) == pytest.approx(free_bracket(12.0, 4.0 / 16.0), rel=1e-12)
        assert kernel_bracket(11.5) == pytest.approx(free_bracket(11.5, 0.25), rel=1e-12)
        assert kernel_bracket(12.5) == pytest.approx(free_bracket(12.5, 4.0 / 16.5), rel=1e-12)

    def test_large_q(self):
        assert kernel_bracket(28.0) == pytest.approx(free_bracket(28.0, 0.125), rel=1e-12)

    def test_rejects_q_at_most_one(self):
        with pytest.raises(InputError):
            ell_q(1.0, REFERENCE)


class TestEllQ:
    def test_reference_value(self):
        # max(8, 3) ckn |V|^{3/2} = 8, exponent N/(2s-N) = 2
        assert ell_q(2.0, REFERENCE).value == pytest.approx(64.0)

    def test_branches_coincide_at_twelve(self):
        # 8 = (q+4)/2 at q = 12
        v = ell_q(12.0, REFERENCE).value
        assert v == pytest.approx(8.0 ** 2)

    def test_zero_norm_flag(self):
        p = BKParameters(4, 3.0, 0.0, 1.0, 1.0, 2.0, 0.5)
        res = ell_q(5.0, p)
        assert res.value == 0.0 and res.no_truncation

    @settings(max_examples=100, deadline=None)
    @given(
        q=st.floats(min_value=1.1, max_value=200.0),
        s_extra=st.floats(min_value=0.1, max_value=6.0),
        v=st.floats(min_value=1e-3, max_value=50.0),
        ckn=st.floats(min_value=1e-2, max_value=20.0),
        dim=st.integers(min_value=3, max_value=9),
    )
    def test_truncation_identity(self, q, s_extra, v, ckn, dim):
        # |V|^s l_q^{-s+N/2} equals min(1/(8 ckn), 2/((q+4) ckn))^{N/2};
        # ell_q itself raises if the identity drifts past 1e-12 relative
        p = BKParameters(dim, dim / 2 + s_extra, v, ckn, 1.0, 2.0, 0.5)
        assert ell_q(q, p).value > 0


class TestExponentSequence:
    def test_n6_values(self):
        p = BKParameters(6, 4.0, 1.0, 1.0, 1.0, 2.0, 0.5)
        q = exponent_sequence(p, np.arange(1, 4, dtype=float))
        assert q == pytest.approx([3.0, 4.5, 6.75])

    def test_first_step_is_critical_exponent(self):
        # q_1 = 2* so the bootstrap starts from the natural integrability
        for dim in (3, 4, 6, 8):
            p = BKParameters(dim, dim, 1.0, 1.0, 1.0, 2.0, 0.5)
            q1 = exponent_sequence(p, np.array([1.0]))[0]
            assert q1 == pytest.approx(p.two_star)

    def test_printed_variant_quarter(self):
        p = BKParameters(6, 4.0, 1.0, 1.0, 1.0, 2.0, 0.5)
        q = exponent_sequence(p, np.arange(1, 3, dtype=float), printed_variant=True)
        assert q == pytest.approx([0.75, 1.125])


class TestIterationConstants:
    def test_partial_sums_cauchy(self):
        table = iteration_constants(REFERENCE, 400)
        s200 = table.rows[199][4]
        s400 = table.rows[399][4]
        assert abs(s400 - s200) <= 1e-6

    def test_product_regression_anchor(self):
        table = iteration_constants(REFERENCE, 200)
        assert table.rows[199][5] == pytest.approx(REFERENCE_PRODUCT_200, rel=1e-12)

    def test_product_stable_to_six_digits(self):
        t200 = iteration_constants(REFERENCE, 200).rows[199][5]
        t400 = iteration_constants(REFERENCE, 400).rows[399][5]
        assert abs(t400 - t200) / t200 < 1e-6

    def test_inverse_exponent_sum_closed_form(self):
        table = iteration_constants(REFERENCE, 400)
        assert abs(table.sum_inv_q - table.sum_inv_q_closed) < 1e-10

    def test_shell_radii(self):
        table = iteration_constants(REFERENCE, 5)
        assert [r[2] for r in table.rows] == pytest.approx([1, 0.25, 1 / 9, 1 / 16, 1 / 25])

    def test_limit_constant_monotone_in_potential_norm(self):
        c1 = iteration_constants(REFERENCE, 100).limit_constant
        p2 = BKParameters(4, 3.0, 2.0, 1.0, 1.0, 2.0, 0.5)
        c2 = iteration_constants(p2, 100).limit_constant
        assert c2 >= c1

    def test_diameter_enters_with_negative_exponent(self):
        # sigma (2 - 2*) < 0 for sigma > 0, as printed: larger diam shrinks C
        small = iteration_constants(REFERENCE, 100).limit_constant
        p = BKParameters(4, 3.0, 1.0, 1.0, 1.0, 4.0, 0.5)
        large = iteration_constants(p, 100).limit_constant
        assert large < small

    def test_overflow_free_deep_tail(self):
        # q_400 ~ 2^401; the bracket would overflow without log-space work
        table = iteration_constants(REFERENCE, 400)
        b = [r[3] for r in table.rows]
        assert all(math.isfinite(x) for x in b)
        assert b[-1] < 1e-50

    def test_diameter_factor_overflow_is_a_numerical_failure(self):
        # diam^{sigma (2 - 2*)} = 1e300 for a tiny diameter, and the printed
        # variant raises it to sum 1/q_n > 1, past the float64 maximum
        p = BKParameters(4, 3.0, 1.0, 1.0, 1.0, 1e-300, 0.5)
        with pytest.raises(NumericalError, match="overflows"):
            iteration_constants(p, 20, printed_variant=True)

    @pytest.mark.parametrize("v_norm,diam,match", [
        (1e300, 2.0, "partial product .* at n = 2"),
        (1e150, 1e-300, "limit constant overflows float64 at n = 20"),
    ])
    def test_overflow_raises_without_warnings(self, v_norm, diam, match):
        # an infinite partial product or limit constant is never returned,
        # and the overflow is not reported on stderr by numpy
        p = BKParameters(4, 3.0, v_norm, 1.0, 1.0, diam, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=match):
                iteration_constants(p, 20)

    def test_requires_two_stages(self):
        with pytest.raises(InputError):
            iteration_constants(REFERENCE, 1)

    def test_divergence_guard(self, monkeypatch):
        # freeze the exponent growth: costs stop decaying and the guard fires
        import dipolespec.brezis_kato as bk

        monkeypatch.setattr(
            bk, "exponent_sequence", lambda p, n, printed_variant=False: np.full_like(n, 2.0)
        )
        with pytest.raises(NumericalError):
            bk.iteration_constants(REFERENCE, 50)


class TestAsymptoticCost:
    def test_ratio_tends_to_one(self):
        ratios = [asymptotic_cost_ratio(REFERENCE, n) for n in (10, 25, 50)]
        errs = [abs(r - 1.0) for r in ratios]
        assert errs[0] > errs[1] > errs[2] or errs[2] < 1e-12
        assert errs[2] < 1e-6

    def test_needs_potential(self):
        p = BKParameters(4, 3.0, 0.0, 1.0, 1.0, 2.0, 0.5)
        with pytest.raises(InputError):
            asymptotic_cost_ratio(p, 10)


class TestParameterValidation:
    def test_subcritical_s_rejected(self):
        with pytest.raises(InputError):
            BKParameters(4, 2.0, 1.0, 1.0, 1.0, 2.0, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["s", "v_norm", "ckn_constant", "dist", "diam", "sigma"])
    def test_a_nonfinite_input_is_an_input_error(self, field, bad):
        with pytest.raises(InputError, match=f"^{field} must be finite$"):
            dataclasses.replace(REFERENCE, **{field: bad})

    @pytest.mark.parametrize("dist", [5e-324, 1e-323])
    def test_a_dist_whose_quarter_underflows_is_an_input_error(self, dist):
        with pytest.raises(InputError, match="underflows"):
            dataclasses.replace(REFERENCE, dist=dist)

    def test_two_star(self):
        assert REFERENCE.two_star == pytest.approx(4.0)
        assert BKParameters(6, 4.0, 1.0, 1.0, 1.0, 2.0, 0.5).two_star == pytest.approx(3.0)
