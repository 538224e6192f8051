"""Exact circle arithmetic on the unit-circumference ring.

All positions are rationals in [0, 1).  Working over
:class:`fractions.Fraction` keeps every collision time and every
observation exact, which matters because the paper's protocols test
*equalities* between observed quantities (e.g. ``2z = y1 + ... + yj`` in
Algorithm 5); floating point would need tolerances and could mislabel
agents.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence

ONE = Fraction(1)
ZERO = Fraction(0)


def normalize(x: Fraction) -> Fraction:
    """Reduce a coordinate to the canonical representative in [0, 1)."""
    return x - (x // 1)


def cw_arc(start: Fraction, end: Fraction) -> Fraction:
    """Arc length from ``start`` to ``end`` walking clockwise.

    Clockwise is the direction of increasing coordinate.  The result is
    in [0, 1); ``cw_arc(p, p) == 0``.
    """
    return normalize(end - start)


def ccw_arc(start: Fraction, end: Fraction) -> Fraction:
    """Arc length from ``start`` to ``end`` walking anticlockwise."""
    return normalize(start - end)


def gaps(positions: Sequence[Fraction]) -> List[Fraction]:
    """Clockwise gaps between consecutive agents.

    ``gaps(p)[i]`` is the arc from ``p[i]`` to ``p[(i + 1) % n]`` going
    clockwise -- the quantity the paper calls ``x_i`` (with its 1-based
    labels).  Positions must be listed in ring order; the gaps of a valid
    configuration are strictly positive and sum to 1.
    """
    n = len(positions)
    result = []
    for i in range(n):
        arc = cw_arc(positions[i], positions[(i + 1) % n])
        if arc == 0 and n > 1:
            arc = ONE if n == 1 else arc
        result.append(arc)
    return result


def is_ring_ordered(positions: Sequence[Fraction]) -> bool:
    """Whether positions are distinct and listed in clockwise ring order.

    A sequence is ring ordered when, starting anywhere, walking clockwise
    meets the agents in index order.  Equivalently the clockwise gaps are
    all strictly positive and sum to exactly 1.

    Checked on integers: every position becomes a numerator over the
    shared ``lcm`` denominator ``D`` (the representation
    :class:`~repro.ring.backends.LatticeBackend` runs on) and each gap
    is a difference mod ``D``, so positions outside ``[0, 1)`` need no
    reduction.  Positive gaps summing to exactly one turn imply
    distinct positions.
    """
    n = len(positions)
    if n == 0:
        return True
    scale = math.lcm(*(p.denominator for p in positions))
    num = [p.numerator * (scale // p.denominator) for p in positions]
    total = 0
    prev = num[-1]
    for x in num:
        gap = (x - prev) % scale
        if gap == 0:
            return False
        total += gap
        prev = x
    return total == scale


def sort_ring(positions: Sequence[Fraction]) -> List[int]:
    """Indices that put positions into clockwise ring order.

    The returned permutation starts from the agent with the smallest
    canonical coordinate.
    """
    canon = [normalize(p) for p in positions]
    return sorted(range(len(positions)), key=lambda i: canon[i])


def interleave_sum(values: Sequence[Fraction], start: int, count: int) -> Fraction:
    """Sum of ``count`` consecutive cyclic entries beginning at ``start``.

    Used to express ``dist()``/``coll()`` observations as sums of gap
    variables: the clockwise displacement of an agent shifted by ``r``
    ring places from slot ``s`` is ``interleave_sum(gaps, s, r)``.
    """
    n = len(values)
    total = ZERO
    for k in range(count):
        total += values[(start + k) % n]
    return total
