import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmest.errors import DomainError
from cmest.specfun import (
    hyp1f1,
    ks_two_sample_sf,
    lambert_w0,
    ricean_fading_penalty,
    student_t_two_sided_sf,
)

# Frozen oracle: 200-term Kummer series at 50 decimal digits (stable against
# doubling the term count).
HYP1F1_3_2_1_5 = 393.7700753196285

# Frozen oracle: (E[|h|])^-2 over 1e7 unit-power Ricean K=5 envelope draws,
# seed 20260810; relative standard error ~1.9e-4.
RICEAN_PENALTY_K5_MC = 1.08535899


def _kummer_oracle(a, b, x):
    """Term-doubling high-precision series; independent of the implementation.

    All arithmetic stays in mpf from the start: forming a + k in float64
    first would bake rounding into every term, which matters for negative x
    where the alternating series cancels many digits.
    """
    ma, mb, mx = mp.mpf(a), mp.mpf(b), mp.mpf(x)

    def partial(n):
        s = mp.mpf(1)
        t = mp.mpf(1)
        for k in range(n):
            t *= (ma + k) / (mb + k) * mx / (k + 1)
            s += t
        return s

    with mp.workdps(40):
        n = 64
        prev = partial(n)
        while n < 65536:
            n *= 2
            cur = partial(n)
            if abs(cur - prev) <= mp.mpf("1e-25") * abs(cur):
                return float(cur)
            prev = cur
        return float(cur)


class TestLambertW0:
    def test_fixed_points(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(math.e) == pytest.approx(1.0, rel=1e-14)
        assert lambert_w0(-1.0 / math.e) == -1.0

    def test_domain_error(self):
        with pytest.raises(DomainError):
            lambert_w0(-1.0 / math.e - 1e-12)

    def test_just_below_branch_point_within_tolerance(self):
        # within the 1e-14 absolute slack the input snaps to the branch point
        assert lambert_w0(-1.0 / math.e - 5e-15) == -1.0

    @given(st.floats(min_value=-0.367879, max_value=10.0))
    @settings(max_examples=300)
    def test_defining_identity(self, x):
        w = lambert_w0(x)
        assert w >= -1.0
        assert w * math.exp(w) == pytest.approx(x, rel=1e-12, abs=1e-13)

    def test_identity_near_branch_point(self):
        for x in [-1 / math.e + 1e-12, -1 / math.e + 1e-8, -1 / math.e + 1e-4]:
            w = lambert_w0(x)
            assert w * math.exp(w) == pytest.approx(x, rel=1e-10)

    def test_large_argument(self):
        w = lambert_w0(1e8)
        assert w * math.exp(w) == pytest.approx(1e8, rel=1e-12)


class TestHyp1F1:
    def test_empty_series(self):
        assert hyp1f1(1.5, 1.0, 0.0) == 1.0

    def test_exponential_special_case(self):
        assert hyp1f1(1.0, 1.0, 2.0) == pytest.approx(math.exp(2.0), rel=1e-14)

    def test_frozen_oracle_value(self):
        assert hyp1f1(1.5, 1.0, 5.0) == pytest.approx(HYP1F1_3_2_1_5, rel=1e-12)

    @pytest.mark.parametrize("b", [0.0, -1.0, -3.0])
    def test_invalid_b(self, b):
        with pytest.raises(DomainError):
            hyp1f1(1.5, b, 1.0)

    def test_random_sweep_against_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            a = rng.uniform(0.25, 4.0)
            b = rng.uniform(0.5, 4.0)
            x = rng.uniform(-20.0, 30.0)
            assert hyp1f1(a, b, x) == pytest.approx(
                _kummer_oracle(a, b, x), rel=1e-10
            ), (a, b, x)


class TestRiceanPenalty:
    def test_rayleigh_limit(self):
        assert ricean_fading_penalty(0.0) == pytest.approx(4.0 / math.pi, rel=1e-10)

    def test_hardening_limit(self):
        assert ricean_fading_penalty(50.0) < 1.01

    def test_monte_carlo_oracle_k5(self):
        assert ricean_fading_penalty(5.0) == pytest.approx(
            RICEAN_PENALTY_K5_MC, rel=1e-3
        )

    def test_negative_k(self):
        with pytest.raises(DomainError):
            ricean_fading_penalty(-0.1)

    def test_monotone_and_at_least_one(self):
        ks = np.linspace(0.0, 50.0, 201)
        vals = np.array([ricean_fading_penalty(k) for k in ks])
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.all(vals >= 1.0 - 1e-12)


def _t_tail_oracle(t, df):
    """P(|T| >= t) = I_x(df/2, 1/2) at x = df/(df + t^2), at 40 digits."""
    with mp.workdps(40):
        t = mp.mpf(t)
        x = df / (df + t * t)
        return mp.betainc(mp.mpf(df) / 2, mp.mpf(1) / 2, 0, x, regularized=True)


class TestStudentTTail:
    @pytest.mark.parametrize("df", [1, 2, 3, 5, 10, 50, 200, 1000])
    def test_against_incomplete_beta(self, df):
        for t in np.logspace(-8, 6, 57):
            ref = _t_tail_oracle(t, df)
            got = student_t_two_sided_sf(t, df)
            if ref < 1e-300:  # below float64's normal range: must underflow too
                assert 0.0 <= got < 1e-290
            else:
                assert abs(got - ref) <= 1e-10 * ref, (t, df, got, float(ref))

    def test_both_methods_agree_at_the_switch(self):
        # the finite sum is left for the series once the tail drops below 0.1
        for df in (4, 7, 1000):
            for t in np.linspace(1.0, 2.5, 61):
                ref = _t_tail_oracle(t, df)
                got = student_t_two_sided_sf(t, df)
                assert got == pytest.approx(float(ref), rel=1e-12)

    def test_edge_values(self):
        assert student_t_two_sided_sf(0.0, 3) == 1.0
        assert student_t_two_sided_sf(math.inf, 3) == 0.0
        assert math.isnan(student_t_two_sided_sf(math.nan, 3))
        assert student_t_two_sided_sf(-2.5, 6) == student_t_two_sided_sf(2.5, 6)
        assert student_t_two_sided_sf(1.0, 1) == pytest.approx(0.5, rel=1e-15)

    @pytest.mark.parametrize("df", [0, -1, 2.5, 3.0, True])
    def test_df_must_be_a_positive_integer(self, df):
        with pytest.raises(DomainError):
            student_t_two_sided_sf(1.0, df)


def _ks_null_by_enumeration(n1, n2, h):
    """P(D >= h/lcm) over all C(n1+n2, n1) equally likely interleavings."""
    g = math.gcd(n1, n2)
    hits = total = 0
    for first in itertools.combinations(range(n1 + n2), n1):
        first = set(first)
        i = j = gap = 0
        for pos in range(n1 + n2):
            if pos in first:
                i += 1
            else:
                j += 1
            gap = max(gap, abs(i * (n2 // g) - j * (n1 // g)))
        hits += gap >= h
        total += 1
    return hits / total


class TestKsTwoSampleNull:
    @pytest.mark.parametrize("n1, n2", [(1, 1), (3, 3), (5, 5), (2, 3), (4, 6), (7, 3)])
    def test_against_enumeration(self, n1, n2):
        lcm = n1 * n2 // math.gcd(n1, n2)
        for h in range(0, lcm + 2):
            assert ks_two_sample_sf(n1, n2, h) == pytest.approx(
                _ks_null_by_enumeration(n1, n2, h), rel=1e-13, abs=1e-15
            )

    def test_no_gap_is_certain(self):
        assert ks_two_sample_sf(10, 10, 0) == 1.0
        assert ks_two_sample_sf(10, 7, 0) == 1.0

    @pytest.mark.parametrize("args", [(0, 3, 1), (3, 0, 1), (3, 3, -1)])
    def test_domain(self, args):
        with pytest.raises(DomainError):
            ks_two_sample_sf(*args)
