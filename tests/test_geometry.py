"""Unit tests for exact circle arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.geometry import (
    ccw_arc,
    cw_arc,
    gaps,
    interleave_sum,
    is_ring_ordered,
    normalize,
    sort_ring,
)

F = Fraction


def frac(denom_bits: int = 10):
    denom = 1 << denom_bits
    return st.integers(min_value=-3 * denom, max_value=3 * denom).map(
        lambda k: Fraction(k, denom)
    )


class TestNormalize:
    def test_identity_in_range(self):
        assert normalize(F(1, 3)) == F(1, 3)

    def test_wraps_above_one(self):
        assert normalize(F(7, 3)) == F(1, 3)

    def test_wraps_negative(self):
        assert normalize(F(-1, 4)) == F(3, 4)

    def test_zero(self):
        assert normalize(F(0)) == 0
        assert normalize(F(1)) == 0

    @given(frac())
    def test_result_in_unit_interval(self, x):
        y = normalize(x)
        assert 0 <= y < 1

    @given(frac(), st.integers(min_value=-5, max_value=5))
    def test_invariant_under_integer_shift(self, x, k):
        assert normalize(x + k) == normalize(x)


class TestArcs:
    def test_cw_simple(self):
        assert cw_arc(F(1, 4), F(3, 4)) == F(1, 2)

    def test_cw_wraps(self):
        assert cw_arc(F(3, 4), F(1, 4)) == F(1, 2)

    def test_cw_zero(self):
        assert cw_arc(F(2, 5), F(2, 5)) == 0

    def test_ccw_is_complement(self):
        assert ccw_arc(F(1, 4), F(3, 4)) == F(1, 2)
        assert ccw_arc(F(0), F(1, 3)) == F(2, 3)

    @given(frac(), frac())
    def test_cw_plus_ccw_is_one_or_zero(self, a, b):
        total = cw_arc(a, b) + ccw_arc(a, b)
        assert total in (0, 1)
        assert (total == 0) == (normalize(a) == normalize(b))

    @given(frac(), frac(), frac())
    def test_cw_triangle_additivity(self, a, b, c):
        # Walking a->b->c clockwise covers a->c plus possibly full turns.
        walked = cw_arc(a, b) + cw_arc(b, c)
        assert normalize(walked) == cw_arc(a, c)


class TestGaps:
    def test_gaps_sum_to_one(self):
        p = [F(0), F(1, 8), F(1, 2), F(3, 4)]
        assert sum(gaps(p)) == 1

    def test_gap_values(self):
        p = [F(0), F(1, 4), F(1, 2)]
        assert gaps(p) == [F(1, 4), F(1, 4), F(1, 2)]

    def test_ring_ordered_accepts_rotated_start(self):
        p = [F(1, 2), F(3, 4), F(0), F(1, 4)]
        assert is_ring_ordered(p)

    def test_ring_ordered_rejects_shuffled(self):
        p = [F(0), F(1, 2), F(1, 4), F(3, 4)]
        assert not is_ring_ordered(p)

    def test_ring_ordered_rejects_duplicates(self):
        p = [F(0), F(1, 2), F(1, 2)]
        assert not is_ring_ordered(p)

    def test_sort_ring(self):
        p = [F(1, 2), F(0), F(3, 4)]
        assert sort_ring(p) == [1, 0, 2]


def _ring_ordered_oracle(positions):
    """The Fraction-arithmetic ring-order check the integer
    :func:`is_ring_ordered` replaced, kept as its oracle."""
    n = len(positions)
    if n == 0:
        return True
    if len(set(normalize(p) for p in positions)) != n:
        return False
    total = sum(gaps(positions), F(0))
    return total == 1 and all(g > 0 for g in gaps(positions))


class TestIntegerRingOrder:
    """The integer :func:`is_ring_ordered` against the Fraction oracle."""

    CASES = {
        "mixed_denominators": [F(1, 7), F(1, 3), F(5, 9), F(7, 8)],
        "outside_unit_interval": [F(-3, 4), F(4, 3), F(-1, 8)],
        "wraps_above_one": [F(7, 4), F(23, 8), F(1, 3) - 2],
        "duplicate_after_normalisation": [F(1, 4), F(1, 2), F(5, 4)],
        "adjacent_duplicate_after_normalisation": [F(1, 4), F(5, 4)],
        "shuffled": [F(0), F(1, 2), F(1, 4), F(3, 4)],
        "shuffled_mixed": [F(1, 3), F(1, 7), F(5, 9), F(7, 8)],
        "two_laps": [F(0), F(1, 2), F(0), F(1, 2)],
        "n1": [F(1, 3)],
        "n2": [F(1, 3), F(5, 6)],
        "n2_duplicate": [F(1, 3), F(4, 3)],
        "empty": [],
    }
    EXPECTED = {
        "mixed_denominators": True,
        "outside_unit_interval": True,
        "wraps_above_one": True,
        "duplicate_after_normalisation": False,
        "adjacent_duplicate_after_normalisation": False,
        "shuffled": False,
        "shuffled_mixed": False,
        "two_laps": False,
        "n1": False,
        "n2": True,
        "n2_duplicate": False,
        "empty": True,
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_fraction_oracle(self, case):
        positions = self.CASES[case]
        assert is_ring_ordered(positions) == self.EXPECTED[case]
        assert _ring_ordered_oracle(positions) == self.EXPECTED[case]

    @given(st.lists(frac(4), min_size=1, max_size=7))
    def test_random_lists_match_oracle(self, positions):
        assert is_ring_ordered(positions) == _ring_ordered_oracle(positions)

    @given(
        st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=60),
            min_size=1,
            max_size=8,
            unique=True,
        ),
        st.integers(min_value=0, max_value=7),
        st.lists(st.integers(min_value=-2, max_value=2), min_size=8,
                 max_size=8),
    )
    def test_rotated_shifted_rings_match_oracle(self, points, start, laps):
        ring = sorted(p - (p // 1) for p in points)
        start %= len(ring)
        rotated = ring[start:] + ring[:start]
        shifted = [p + k for p, k in zip(rotated, laps)]
        # One agent never closes a positive full-turn gap.
        expected = len(ring) > 1 and len(set(ring)) == len(ring)
        assert is_ring_ordered(shifted) == expected
        assert _ring_ordered_oracle(shifted) == expected


class TestInterleaveSum:
    def test_window(self):
        vals = [F(1), F(2), F(3), F(4)]
        assert interleave_sum(vals, 1, 2) == 5

    def test_wraparound(self):
        vals = [F(1), F(2), F(3), F(4)]
        assert interleave_sum(vals, 3, 2) == 5

    def test_zero_count(self):
        assert interleave_sum([F(1)], 0, 0) == 0

    def test_full_cycle_is_total(self):
        vals = [F(1, 3), F(1, 3), F(1, 3)]
        assert interleave_sum(vals, 2, 3) == 1
