"""Fraction-free incremental elimination over the shared-denominator
lattice.

Every observation a backend emits is an integer numerator over one
shared denominator ``D`` (``dist`` over ``D``, ``coll`` over ``2 D`` --
the same ``Z/(2D)`` grid the kinematics run on).  The exact-`Fraction`
:class:`~repro.analysis.equations.EquationSystem` therefore spends its
whole life normalising rationals whose denominators all divide ``D``.
:class:`IntEquationSystem` is its fraction-free twin: rows are sparse
integer coefficient maps (``{column: coefficient}``, nonzeros only),
right-hand sides are integer numerators over the system's single
``den``, and elimination is Bareiss-style -- each combination step is
the integer cross-multiplication ``(p // g) * row - (c // g) * brow``
over the live support, followed by content (gcd) removal when a row is
filed, so no rational arithmetic ever runs.  Only
:meth:`IntEquationSystem.solve` materialises Fractions, one
constructor call per unknown (fewer with a shared ``cache``), by exact
integer back-substitution.

Rows are plain Python ints, exact at any magnitude, so the engine needs
no numpy and no overflow guard: Algorithm 6's equations are short
cyclic windows (one to three cells in the Convolution rounds, n/2 in
the Pivots), and walking their support beats scanning dense length-n
vectors.

The Fraction classes stay untouched as the executable spec; the
equivalence is load-bearing and pinned three ways:

* construction with ``cross_check=True`` shadows every ``add`` /
  ``solve`` on a live :class:`~repro.analysis.equations.EquationSystem`
  and asserts identical rank trajectory, identical
  :class:`~repro.exceptions.SingularSystemError` behaviour and
  identical solutions (``discover_distances(..., engine="cross")`` and
  cross-validated simulators turn this on for the native Distances
  driver);
* ``tests/test_int_equations.py`` property-tests the agreement on
  random window systems;
* ``benchmarks/bench_equations.py`` enforces bit-exact protocol output
  against the spec engine before timing anything.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from itertools import chain
from math import gcd
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis.equations import Equation, EquationSystem
from repro.exceptions import SingularSystemError


class IntEquation:
    """One constraint ``sum_c support[c] * x_c = value / den`` where
    ``den`` is the owning system's shared denominator.

    ``coeffs`` is the dense coefficient sequence or its nonzero support
    as a ``{column: coefficient}`` dict (kept as given, never mutated);
    ``value`` is the right-hand side's integer *numerator*.  Nothing
    here ever materialises a Fraction.
    """

    __slots__ = ("support", "value")

    def __init__(
        self, coeffs: Union[Mapping[int, int], Sequence[int]], value: int
    ) -> None:
        if not isinstance(coeffs, dict):
            coeffs = {col: int(c) for col, c in enumerate(coeffs) if c}
        elif 0 in coeffs.values():
            coeffs = {col: c for col, c in coeffs.items() if c}
        self.support: Dict[int, int] = coeffs
        self.value = value

    @staticmethod
    def window(
        n: int, start: int, count: int, value: int, scale: int = 1
    ) -> "IntEquation":
        """Integer twin of :meth:`Equation.window`: the constraint
        ``scale * (x_start + ... + x_{start+count-1}) = value / den``
        with cyclic indices, built straight as its support."""
        if not scale:
            return IntEquation({}, value)
        start %= n
        whole, rem = divmod(count, n)
        end = start + rem
        cells = (
            range(start, end)
            if end <= n
            else chain(range(start, n), range(end - n))
        )
        if not whole:
            return IntEquation(dict.fromkeys(cells, scale), value)
        support = dict.fromkeys(range(n), scale * whole)
        for col in cells:
            support[col] += scale
        return IntEquation(support, value)


#: A filed basis row: (positive pivot, the other nonzeros as
#: ``(column, coefficient)`` pairs, all right of the pivot, value
#: numerator).
_BasisRow = Tuple[int, Tuple[Tuple[int, int], ...], int]


class IntEquationSystem:
    """Incremental fraction-free Gaussian elimination (Bareiss-style).

    Mirrors :class:`~repro.analysis.equations.EquationSystem`'s API and
    observable behaviour exactly -- same pivot choice (first nonzero
    column, scanning ascending), same rank trajectory, same
    :class:`SingularSystemError` on contradictions, identical
    :meth:`solve` output -- but every elimination step is integer-only.
    Basis rows are stored unnormalised (integer row, integer value
    numerator, pivot made positive, content removed), so a stored row
    equals the spec's reduced row times a nonzero integer; that scalar
    cancels in rank decisions and in back-substitution.
    """

    def __init__(self, n: int, den: int, cross_check: bool = False) -> None:
        if den <= 0:
            raise ValueError("den must be a positive integer")
        self.n = n
        self.den = den
        self._basis: Dict[int, _BasisRow] = {}
        self._shadow: Optional[EquationSystem] = (
            EquationSystem(n) if cross_check else None
        )

    # -- spec mirroring ---------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self._basis)

    @property
    def full_rank(self) -> bool:
        return self.rank == self.n

    def _spec_equation(self, eq: IntEquation) -> Equation:
        coeffs = [Fraction(0)] * self.n
        for col, coeff in eq.support.items():
            coeffs[col] = Fraction(coeff)
        return Equation(tuple(coeffs), Fraction(int(eq.value), self.den))

    # -- elimination ------------------------------------------------------

    def add(self, eq: IntEquation) -> bool:
        """Insert an equation; returns True if it increased the rank.

        Raises:
            SingularSystemError: If the equation contradicts the basis.
        """
        if self._shadow is None:
            return self._add(eq)
        spec_raised = False
        try:
            expected = self._shadow.add(self._spec_equation(eq))
        except SingularSystemError:
            spec_raised = True
        try:
            grew = self._add(eq)
        except SingularSystemError:
            if not spec_raised:
                raise AssertionError(
                    "cross-check failed: int path raised where the "
                    "Fraction spec accepted the equation"
                )
            raise
        if spec_raised:
            raise AssertionError(
                "cross-check failed: Fraction spec raised where the "
                "int path accepted the equation"
            )
        if grew != expected or self.rank != self._shadow.rank:
            raise AssertionError(
                "cross-check failed: rank trajectories diverged "
                f"(int {self.rank}, spec {self._shadow.rank})"
            )
        return grew

    def _add(self, eq: IntEquation) -> bool:
        """Reduce the working row against the basis in ascending pivot
        order, walking only its live support (a min-heap of columns,
        as in the spec: a basis row filed at ``col`` has nonzeros only
        right of ``col``, so combinations only add support ahead of the
        cursor)."""
        row = dict(eq.support)
        value = int(eq.value)
        basis = self._basis
        support = sorted(row)
        while support:
            col = heappop(support)
            coeff = row.get(col)
            if coeff is None:
                continue  # cancelled since it was pushed
            entry = basis.get(col)
            if entry is None:
                self._store(col, row, value)
                return True
            pivot, tail, bval = entry
            del row[col]
            if pivot != 1:
                shrink = gcd(pivot, coeff)
                mult_row = pivot // shrink
                coeff //= shrink
                if mult_row != 1:
                    for c in row:
                        row[c] *= mult_row
                    value *= mult_row
            for c, b in tail:
                before = row.get(c)
                if before is None:
                    row[c] = -coeff * b
                    heappush(support, c)
                else:
                    after = before - coeff * b
                    if after:
                        row[c] = after
                    else:
                        del row[c]
            value -= coeff * bval
        if value != 0:
            raise SingularSystemError("observation contradicts earlier ones")
        return False

    def _store(self, col: int, row: Dict[int, int], value: int) -> None:
        """File ``row`` (every nonzero at or right of ``col``) as the
        pivot for ``col``: content removed, pivot made positive."""
        content = gcd(value, *row.values())
        pivot = row.pop(col)
        if pivot < 0:
            content = -content
        if content != 1:
            pivot //= content
            value //= content
            tail = tuple((c, a // content) for c, a in row.items())
        else:
            tail = tuple(row.items())
        self._basis[col] = (pivot, tail, value)

    # -- solving ----------------------------------------------------------

    def solve(self, cache: Optional[dict] = None) -> List[Fraction]:
        """Back-substitute into the exact solution vector.

        Integer-only: per unknown one running numerator/denominator
        pair is folded over the basis row's nonzeros with gcd
        reduction, and the result materialises as a single ``Fraction``
        constructor call -- no Fraction arithmetic anywhere.  Callers
        solving many systems with the same unknowns (one per ring slot)
        pass one shared ``cache``: values are interned by their reduced
        numerator/denominator pair, so each distinct value is
        constructed once across all of them.
        """
        if not self.full_rank:
            raise SingularSystemError(
                f"rank {self.rank} < {self.n}: not enough observations"
            )
        if cache is None:
            cache = {}
        result: List[Fraction] = []
        for key in self._solve_ints():
            value = cache.get(key)
            if value is None:
                value = cache[key] = Fraction(*key)
            result.append(value)
        if self._shadow is not None:
            expected = self._shadow.solve()
            if result != expected:
                raise AssertionError(
                    "cross-check failed: int and Fraction solutions differ"
                )
        return result

    def _solve_ints(self) -> List[Tuple[int, int]]:
        """Each unknown as a reduced ``(numerator, denominator > 0)``."""
        pairs: List[Tuple[int, int]] = [(0, 1)] * self.n
        for col in sorted(self._basis, reverse=True):
            pivot, tail, value = self._basis[col]
            # acc = value/den - sum coeff * x_c, folded as one exact
            # integer numerator/denominator pair.
            acc_num, acc_den = value, self.den
            for c, coeff in tail:
                num_c, den_c = pairs[c]
                acc_num = acc_num * den_c - coeff * num_c * acc_den
                acc_den = acc_den * den_c
                shrink = gcd(acc_num, acc_den)
                if shrink > 1:
                    acc_num //= shrink
                    acc_den //= shrink
            acc_den *= pivot
            shrink = gcd(acc_num, acc_den)
            if shrink > 1:
                acc_num //= shrink
                acc_den //= shrink
            pairs[col] = (acc_num, acc_den)
        return pairs

    def solve_if_ready(self) -> Optional[List[Fraction]]:
        """The solution if the system already has full rank, else None."""
        return self.solve() if self.full_rank else None
