"""Tests for the fraction-free equation engine and the columnar
location-discovery harvests.

The load-bearing claim is equivalence: :class:`IntEquationSystem` must
be observably identical to the exact-`Fraction`
:class:`EquationSystem` spec (rank trajectory, contradiction
behaviour, solutions), and the lazy integer harvests must leave the
protocols' outputs bit-for-bit unchanged.  The payoff claim is also
tested: an integer-mode Distances run on the array backend performs
*zero* Fraction arithmetic.
"""

import builtins
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.equations import Equation, EquationSystem
from repro.analysis.int_equations import IntEquation, IntEquationSystem
from repro.analysis.linear_system import (
    solve_cyclic_pair_sums,
    solve_cyclic_pair_sums_ints,
)
from repro.core.scheduler import Scheduler
from repro.exceptions import ProtocolError, SingularSystemError
from repro.experiments.harness import _speculative_preset
from repro.protocols.base import KEY_LD_GAPS
from repro.protocols.policies.distances import discover_distances
from repro.protocols.policies.location_discovery import (
    LazyGapColumn,
    sweep_rotation_one,
    sweep_rotation_two,
)
from repro.ring import arrayops
from repro.ring.configs import random_configuration
from repro.types import Model

F = Fraction

DEN = 840  # highly divisible shared denominator, like the backends'


def _spec_window(n, start, count, num):
    return Equation.window(n, start, count, F(1), F(num, DEN))


def _spec_support(spec):
    """The spec equation's nonzero coefficients as ``{column: int}``."""
    support = {}
    for col, coeff in enumerate(spec.coeffs):
        if coeff:
            assert coeff.denominator == 1
            support[col] = coeff.numerator
    return support


class TestIntEquationWindow:
    def test_matches_spec_window_and_stays_integer(self):
        for n, start, count in [(4, 3, 2), (5, 0, 5), (6, 4, 9), (3, 2, 1)]:
            eq = IntEquation.window(n, start, count, value=7)
            spec = Equation.window(n, start, count, F(1), F(7, DEN))
            assert eq.support == _spec_support(spec)
            assert all(type(c) is int for c in eq.support.values())
            assert type(eq.value) is int
        scaled = IntEquation.window(5, 4, 7, value=1, scale=3)
        spec = Equation.window(5, 4, 7, F(3), F(1, DEN))
        assert scaled.support == _spec_support(spec)
        assert IntEquation.window(5, 2, 3, value=0, scale=0).support == {}

    def test_numpy_row_matches_list_row(self):
        """A dense row given as a list or as an int64 vector becomes the
        same plain-int support as the window builder's."""
        np = pytest.importorskip("numpy")
        for n, start, count in [(5, 3, 4), (6, 5, 14), (4, 1, 4)]:
            window = IntEquation.window(n, start, count, value=3)
            spec = Equation.window(n, start, count, F(1), F(3, DEN))
            dense = [int(c) for c in spec.coeffs]
            plain = IntEquation(dense, 3)
            vec = IntEquation(np.array(dense, dtype=np.int64), 3)
            assert plain.support == vec.support == window.support
            assert window.support == _spec_support(spec)
            assert all(type(c) is int for c in vec.support.values())

    def test_zero_entries_never_enter_the_support(self):
        assert IntEquation([0, 2, 0, -1], 5).support == {1: 2, 3: -1}
        given = {0: 1, 2: 0}
        assert IntEquation(given, 5).support == {0: 1}
        assert given == {0: 1, 2: 0}  # the caller's dict is not touched


class TestIntEquationSystemEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_rank_trajectory_contradictions_and_solutions(self, data):
        """Feed the same random window equations (occasionally
        corrupted into contradictions) to both engines and require
        identical observable behaviour at every step."""
        import random

        n = data.draw(st.integers(min_value=3, max_value=12))
        rng = random.Random(data.draw(st.integers(0, 100_000)))
        x_nums = [rng.randint(-3 * DEN, 3 * DEN) for _ in range(n)]
        int_sys = IntEquationSystem(n, DEN)
        spec = EquationSystem(n)
        for _ in range(4 * n):
            start = rng.randrange(n)
            count = rng.randint(1, 2 * n)
            num = sum(x_nums[(start + k) % n] for k in range(count))
            if rng.random() < 0.1:
                num += rng.randint(1, 5)  # corrupt: may contradict
            int_raised = spec_raised = False
            try:
                grew = int_sys.add(IntEquation.window(n, start, count, num))
            except SingularSystemError:
                int_raised = True
            try:
                expected = spec.add(_spec_window(n, start, count, num))
            except SingularSystemError:
                spec_raised = True
            assert int_raised == spec_raised
            if not int_raised:
                assert grew == expected
            assert int_sys.rank == spec.rank
            assert int_sys.full_rank == spec.full_rank
        if int_sys.full_rank:
            assert int_sys.solve() == spec.solve()
        else:
            with pytest.raises(SingularSystemError):
                int_sys.solve()
            assert int_sys.solve_if_ready() is None

    def test_recovers_exact_gaps_at_larger_n(self):
        import random

        for n in (17, 33, 64):
            rng = random.Random(n)
            x_nums = [rng.randint(0, DEN) for _ in range(n)]
            int_sys = IntEquationSystem(n, DEN)
            while not int_sys.full_rank:
                start = rng.randrange(n)
                count = rng.randint(1, n)
                num = sum(x_nums[(start + k) % n] for k in range(count))
                int_sys.add(IntEquation.window(n, start, count, num))
            assert int_sys.solve() == [F(v, DEN) for v in x_nums]

    def test_cross_check_mode_runs_both_engines(self):
        sys_ = IntEquationSystem(3, DEN, cross_check=True)
        assert sys_.add(IntEquation.window(3, 0, 1, 10))
        assert sys_.add(IntEquation.window(3, 1, 1, 20))
        assert not sys_.add(IntEquation.window(3, 0, 2, 30))
        assert sys_.add(IntEquation.window(3, 0, 3, 60))
        assert sys_._shadow is not None and sys_._shadow.rank == 3
        assert sys_.solve() == [F(10, DEN), F(20, DEN), F(30, DEN)]
        with pytest.raises(SingularSystemError):
            sys_.add(IntEquation.window(3, 0, 3, 61))

    def test_invalid_den_rejected(self):
        with pytest.raises(ValueError):
            IntEquationSystem(3, 0)


class TestIntEquationSystemOverflow:
    def test_huge_coefficients_retreat_to_python_ints(self):
        """Coefficients beyond int64 must take the arbitrary-precision
        path (the numpy constructor raises OverflowError) and still
        agree with the spec."""
        n = 3
        big = 1 << 70
        int_sys = IntEquationSystem(n, DEN)
        spec = EquationSystem(n)
        rows = [
            ([big, 1, 0], 5),
            ([0, big, 1], 7),
            ([1, 0, big], 9),
        ]
        for coeffs, num in rows:
            assert int_sys.add(IntEquation(coeffs, num))
            spec.add(Equation(
                tuple(F(c) for c in coeffs), F(num, DEN)
            ))
        assert int_sys.solve() == spec.solve()

    def test_growth_under_elimination_retreats_before_int64_overflow(self):
        """Rows that start inside int64 but whose combination grows far
        past it must still eliminate exactly, with results unchanged."""
        n = 3
        p = (1 << 35) + 3
        q = (1 << 35) + 7  # coprime to p, so no content to strip
        x_nums = [1, 2, 3]  # ground truth, numerators over DEN

        def both_add(int_sys, spec, coeffs):
            num = sum(c * v for c, v in zip(coeffs, x_nums))
            grew = int_sys.add(IntEquation(list(coeffs), num))
            expected = spec.add(Equation(
                tuple(F(c) for c in coeffs), F(num, DEN)
            ))
            assert grew == expected

        int_sys = IntEquationSystem(n, DEN)
        spec = EquationSystem(n)
        # Eliminating the second row against the first cross-multiplies
        # to ~p*q =~ 2^70 coefficients: past int64.
        both_add(int_sys, spec, (p, 1, 0))
        both_add(int_sys, spec, (1, q, 0))
        both_add(int_sys, spec, (1, 1, 1))
        assert int_sys.full_rank
        assert int_sys.solve() == spec.solve()
        assert int_sys.solve() == [F(v, DEN) for v in x_nums]


class TestIntEquationSystemWithoutNumpy:
    def test_stdlib_path_matches_spec(self, monkeypatch):
        real_import = builtins.__import__

        def blocked(name, *args, **kwargs):
            if name == "numpy" or name.startswith("numpy."):
                raise ImportError("numpy unavailable in this test")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", blocked)
        for mod in [
            m for m in list(sys.modules)
            if m == "numpy" or m.startswith("numpy.")
        ]:
            monkeypatch.delitem(sys.modules, mod)
        arrayops.reset_numpy_cache()
        try:
            int_sys = IntEquationSystem(3, DEN)
            spec = EquationSystem(3)
            for start, count, num in [(0, 2, 30), (1, 2, 50), (0, 3, 60)]:
                int_sys.add(IntEquation.window(3, start, count, num))
                spec.add(_spec_window(3, start, count, num))
            assert int_sys.full_rank
            assert int_sys.solve() == spec.solve()
        finally:
            monkeypatch.undo()
            arrayops.reset_numpy_cache()


class TestCyclicPairSumsInts:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_fraction_solver(self, data):
        import random

        n = data.draw(st.sampled_from([3, 5, 7, 9, 11]))
        rng = random.Random(data.draw(st.integers(0, 9999)))
        x_nums = [rng.randint(-5 * DEN, 5 * DEN) for _ in range(n)]
        sums = [x_nums[j] + x_nums[(j + 1) % n] for j in range(n)]
        got = solve_cyclic_pair_sums_ints(sums, DEN)
        want = solve_cyclic_pair_sums([F(s, DEN) for s in sums])
        assert got == want
        assert got == [F(v, DEN) for v in x_nums]

    def test_even_n_raises(self):
        with pytest.raises(SingularSystemError):
            solve_cyclic_pair_sums_ints([1, 2, 3, 4], DEN)

    def test_shared_cache_interns_across_calls(self):
        cache = {}
        a = solve_cyclic_pair_sums_ints([3, 4, 5], DEN, cache=cache)
        b = solve_cyclic_pair_sums_ints([3, 4, 5], DEN, cache=cache)
        for cell_a, cell_b in zip(a, b):
            assert cell_a is cell_b


def _distances_sched(n, seed, backend="array", **kwargs):
    state = random_configuration(n, seed=seed, common_sense=False)
    sched = Scheduler(state, Model.PERCEPTIVE, backend=backend, **kwargs)
    _speculative_preset(sched, leader=False, labels=True)
    return sched


class TestNativeDistancesEngines:
    def test_engines_agree_bit_exactly(self):
        results = {}
        for engine in ("int", "fraction"):
            sched = _distances_sched(10, seed=3)
            rounds = discover_distances(sched, engine=engine)
            results[engine] = (
                rounds,
                sched.state.snapshot(),
                [
                    list(col)
                    for col in sched.population.get_column(KEY_LD_GAPS)
                ],
            )
        assert results["int"] == results["fraction"]

    def test_unknown_engine_rejected(self):
        sched = _distances_sched(8, seed=0)
        with pytest.raises(ProtocolError, match="unknown equation engine"):
            discover_distances(sched, engine="decimal")

    def test_cross_engine_runs_lockstep_shadow(self, monkeypatch):
        seen = []
        original = IntEquationSystem.__init__

        def spy(self, n, den, cross_check=False):
            seen.append(cross_check)
            original(self, n, den, cross_check=cross_check)

        monkeypatch.setattr(IntEquationSystem, "__init__", spy)
        sched = _distances_sched(8, seed=1)
        discover_distances(sched, engine="cross")
        assert seen == [True] * 8
        gaps = sched.population.get_column(KEY_LD_GAPS)
        assert sum(gaps[0], F(0)) == 1

    def test_int_mode_runs_zero_fraction_arithmetic(self, monkeypatch):
        """The acceptance gate: a native array-backend Distances run in
        integer mode must perform no Fraction arithmetic at all --
        harvest, elimination and back-substitution are integer-only,
        and Fractions appear solely via constructor calls on read."""
        sched = _distances_sched(12, seed=5)
        calls = {"arith": 0}
        adds = {"n": 0}

        def counting(name):
            real = getattr(Fraction, name)

            def wrapper(self, other):
                calls["arith"] += 1
                return real(self, other)

            return wrapper

        real_add = IntEquationSystem.add

        def counting_add(self, eq):
            adds["n"] += 1
            return real_add(self, eq)

        monkeypatch.setattr(IntEquationSystem, "add", counting_add)
        for name in (
            "__mul__", "__rmul__", "__add__", "__radd__",
            "__sub__", "__rsub__", "__truediv__", "__rtruediv__",
        ):
            monkeypatch.setattr(Fraction, name, counting(name))
        rounds = discover_distances(sched)
        assert rounds == 12 // 2 + 3
        assert adds["n"] > 0, "the int engine was not exercised"
        assert calls["arith"] == 0, (
            f"{calls['arith']} Fraction arithmetic calls leaked into "
            "the integer-mode hot path"
        )
        # The run still produced the exact gap vectors.
        gaps = sched.population.get_column(KEY_LD_GAPS)
        assert sum(gaps[0], F(0)) == 1


    @staticmethod
    def _outcome(n, seed, backend, engine=None, **kwargs):
        """``(rounds, snapshot, gap columns)`` of one Distances run, or
        the exception it raised as ``(type, message, round)``."""
        sched = _distances_sched(n, seed, backend=backend, **kwargs)
        try:
            rounds = discover_distances(sched, engine=engine)
        except (ProtocolError, SingularSystemError) as exc:
            return type(exc), str(exc), sched.rounds
        gaps = sched.population.get_column(KEY_LD_GAPS)
        return rounds, sched.state.snapshot(), [list(col) for col in gaps]

    @staticmethod
    def _count_adds(monkeypatch):
        counts = {"int": 0, "fraction": 0}
        for key, cls in (
            ("int", IntEquationSystem), ("fraction", EquationSystem)
        ):
            def counting(self, eq, _real=cls.add, _key=key):
                counts[_key] += 1
                return _real(self, eq)

            monkeypatch.setattr(cls, "add", counting)
        return counts

    @pytest.mark.parametrize("n", [8, 10, 14])
    def test_scalar_lattice_runs_take_the_int_engine(self, n, monkeypatch):
        want = self._outcome(n, n, "lattice", engine="fraction")
        counts = self._count_adds(monkeypatch)
        assert self._outcome(n, n, "lattice") == want
        assert counts["int"] > 0
        assert counts["fraction"] == 0

    def test_fraction_backend_keeps_the_spec(self, monkeypatch):
        counts = self._count_adds(monkeypatch)
        got = self._outcome(8, 2, "fraction")
        assert counts["int"] == 0 and counts["fraction"] > 0
        assert got == self._outcome(8, 2, "lattice")

    @pytest.mark.parametrize("backend", ["lattice", "array"])
    def test_cross_validated_runs_keep_the_shadow(
        self, backend, monkeypatch
    ):
        seen = []
        original = IntEquationSystem.__init__

        def spy(self, n, den, cross_check=False):
            seen.append(cross_check)
            original(self, n, den, cross_check=cross_check)

        monkeypatch.setattr(IntEquationSystem, "__init__", spy)
        got = self._outcome(8, 4, backend, cross_validate=True)
        assert seen == [True] * 8
        assert got == self._outcome(8, 4, backend, engine="fraction")

    @pytest.mark.parametrize("backend", ["lattice", "array"])
    @pytest.mark.parametrize("seed, plan", [
        # Distances is overdetermined: each of these faults makes a
        # later observation contradict the basis, in different rounds
        (6, dict(delays=((1, 1),), byzantine=((4, 3, "flip"),))),
        (0, dict(delays=((6, 1),), byzantine=((2, 7, "flip"),))),
        (6, dict(crashes=((3, 2),))),
    ])
    def test_engines_agree_under_fault_plan(self, seed, plan, backend):
        """Faults rewrite directions only, so every observation stays
        on the shared grid and the int engine recovers it exactly:
        equal results, or the same exception in the same round, as the
        spec engine."""
        from repro.faults.plan import FaultPlan

        outcomes = {
            engine: self._outcome(
                10, seed, backend, engine=engine, faults=FaultPlan(**plan)
            )
            for engine in ("int", "fraction")
        }
        assert outcomes["int"] == outcomes["fraction"]
        assert outcomes["int"] != self._outcome(10, seed, backend)

    def test_materialised_recovery_refuses_off_grid_values(self):
        from repro.protocols.policies.distances import _grid_numerator

        assert _grid_numerator(F(3, 4), 8) == 6
        assert _grid_numerator(F(0), 8) == 0
        with pytest.raises(ProtocolError, match="not on the 1/8 grid"):
            _grid_numerator(F(1, 16), 8)

    def test_solved_gaps_are_interned_across_agents(self):
        sched = _distances_sched(12, seed=7, backend="lattice")
        discover_distances(sched)
        gaps = sched.population.get_column(KEY_LD_GAPS)
        distinct = {id(cell) for col in gaps for cell in col}
        assert len(distinct) == len({cell for col in gaps for cell in col})

    def test_solve_cache_shares_values_between_systems(self):
        cache = {}
        solutions = []
        for shift in range(3):
            int_sys = IntEquationSystem(3, DEN)
            nums = [10, 20, 30][shift:] + [10, 20, 30][:shift]
            for col, num in enumerate(nums):
                int_sys.add(IntEquation.window(3, col, 1, num))
            solutions.append(int_sys.solve(cache=cache))
        assert solutions[0] == [F(10, DEN), F(20, DEN), F(30, DEN)]
        assert solutions[1][0] is solutions[0][1]
        assert solutions[2][0] is solutions[0][2]
        assert len(cache) == 3

def _sweep_sched(n, seed, model, **kwargs):
    state = random_configuration(n, seed=seed, common_sense=False)
    sched = Scheduler(state, model, backend="array", **kwargs)
    _speculative_preset(sched, leader=True, labels=False)
    return sched


class TestColumnarSweepHarvest:
    def test_rotation_one_engines_agree_and_columns_are_lazy(self):
        results = {}
        for engine in ("int", "fraction"):
            sched = _sweep_sched(9, seed=2, model=Model.LAZY)
            rounds = sweep_rotation_one(sched, engine=engine)
            column = sched.population.get_column(KEY_LD_GAPS)
            results[engine] = (rounds, [list(cells) for cells in column])
            if engine == "int":
                assert all(
                    isinstance(cells, LazyGapColumn) for cells in column
                )
        assert results["int"] == results["fraction"]

    def test_rotation_two_engines_agree(self):
        results = {}
        for engine in ("int", "fraction"):
            sched = _sweep_sched(11, seed=4, model=Model.BASIC)
            rounds = sweep_rotation_two(sched, engine=engine)
            column = sched.population.get_column(KEY_LD_GAPS)
            results[engine] = (rounds, [list(cells) for cells in column])
        assert results["int"] == results["fraction"]

    def test_lazy_column_contract(self):
        sched = _sweep_sched(7, seed=1, model=Model.LAZY)
        sweep_rotation_one(sched)
        column = sched.population.get_column(KEY_LD_GAPS)
        cells = column[0]
        assert isinstance(cells, LazyGapColumn)
        # ints() exposes the raw numerators without materialising.
        nums = cells.ints()
        assert all(type(v) is int for v in nums)
        assert cells._cells is None
        # Reads materialise interned Fractions; equality works against
        # plain lists from either side, and mismatches stay False.
        as_list = list(cells)
        assert cells._cells is not None
        assert cells == as_list
        assert as_list == cells
        assert cells == tuple(as_list)
        assert not (cells == as_list[:-1])
        assert cells != object()
        assert hash(cells) == hash(tuple(as_list))
        assert len(cells) == len(as_list)
        assert cells[0] == as_list[0]
        assert sum(as_list, F(0)) == 1

    def test_unknown_engine_rejected(self):
        sched = _sweep_sched(7, seed=0, model=Model.LAZY)
        with pytest.raises(ProtocolError, match="unknown harvest engine"):
            sweep_rotation_one(sched, engine="decimal")
