"""Native Distances / Algorithm 6 (vectorised twin of
:mod:`repro.protocols.distances`).

The Convolution/Pivot *directions* are public (one pass over the label
column per round), but the phase is data-dependent in its ending: every
round's ``dist()``/``coll()`` observations feed each agent's equation
system, and the protocol is done exactly when every system reaches full
rank -- which Lemma 41 guarantees on the last Pivot round.  The whole
n/2 + 3 round schedule is therefore planned as one
:class:`~repro.ring.stretch.SpeculativeStretch`: the stop predicate
harvests round ``j``'s observation columns into the equation systems
and fires once all of them are full rank.  Whenever the backend keeps
a shared denominator (``lattice`` and ``array``), the observations
feed :class:`~repro.analysis.int_equations.IntEquationSystem` rows as
integer numerators over it -- read straight off a fused span's raw
dist/coll columns, or recovered exactly from a materialised round's
interned Fractions (scalar rounds, fault plans, cross-validation) --
so the elimination is fraction-free and every agent's solution is
interned through one shared cache (they all recover rotations of the
same n gaps).  On the ``fraction`` backend the predicate feeds the
exact-`Fraction` :class:`~repro.analysis.equations.EquationSystem`,
reproducing the legacy loop bit for bit.  Either way the firing round
is the schedule's planned end, so the native driver stays bit-exact
with the callback reference.  ``engine="fraction"`` forces the spec
engine everywhere (the benchmark's baseline side); ``engine="cross"``
runs both engines in lockstep and asserts identical rank trajectories
and solutions.

Reuses the legacy module's pure schedule helpers
(:func:`~repro.protocols.distances.convolution_direction`,
:func:`~repro.protocols.distances.pivot_direction`,
:func:`~repro.protocols.distances.coll_window`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from repro.analysis.equations import Equation, EquationSystem
from repro.analysis.int_equations import IntEquation, IntEquationSystem
from repro.core.scheduler import Scheduler
from repro.exceptions import ProtocolError
from repro.protocols.base import (
    KEY_FRAME_FLIP,
    KEY_LABEL,
    KEY_LD_GAPS,
    KEY_RING_SIZE,
)
from repro.protocols.distances import (
    coll_window,
    convolution_direction,
    pivot_direction,
)
from repro.protocols.policies.base import (
    LEFT,
    RIGHT,
    aligned_vector,
)
from repro.ring.stretch import SpeculativeStretch
from repro.types import Model

#: One schedule entry: (moves_right, rho, rotation) exactly as the
#: legacy ``_run_structured_round`` consumes them.
_ScheduleEntry = Tuple[object, int, int]


def _schedule(n: int) -> List[_ScheduleEntry]:
    """The Convolution/Pivot schedule (n/2 rounds + 3 pivots)."""
    entries: List[_ScheduleEntry] = []
    for i in range(1, n // 2 + 1):
        exception = n - 2 * (i - 1)
        rho = (2 * (i - 1)) % n
        entries.append((convolution_direction(n, exception), rho, 2))
    # Cumulative rotation is now n = 0 (mod n): initial configuration.
    for j in (n, n - 1, n - 2):
        entries.append((pivot_direction(n, j), 0, 0))
    return entries


def _round_columns(result, j: int, flips, cache: Dict[int, Fraction]):
    """Round ``j``'s common-frame dists and doubled colls as Fractions.

    Returns ``(dists, colls2)`` where ``colls2[slot]`` is ``2 * coll``
    (the Prop 4/37 window right-hand side) or None.  Raw integer
    columns go through one interning cache; the materialised-round
    fallback mirrors the legacy per-agent arithmetic bit for bit.
    """
    ints = result.dist_ints(j)
    if ints is not None:
        scale = result.scale
        raw = ints.tolist() if result.np is not None else list(ints)
        dists: List[Fraction] = []
        for flip, v in zip(flips, raw):
            if flip and v:
                v = scale - v
            value = cache.get(v)
            if value is None:
                value = cache[v] = Fraction(v, scale)
            dists.append(value)
        craw = result.coll_ints(j)
        if craw is None:
            colls2: List[Optional[Fraction]] = [None] * len(raw)
        else:
            craw = craw.tolist() if result.np is not None else list(craw)
            colls2 = []
            for c in craw:
                if c < 0:
                    colls2.append(None)
                    continue
                # coll is over 2*scale, so 2*coll is c over scale.
                value = cache.get(c)
                if value is None:
                    value = cache[c] = Fraction(c, scale)
                colls2.append(value)
        return dists, colls2
    obs = result.observations(j)
    dists = [
        (Fraction(1) - o.dist if o.dist != 0 else Fraction(0))
        if flip
        else o.dist
        for flip, o in zip(flips, obs)
    ]
    colls2 = [None if o.coll is None else 2 * o.coll for o in obs]
    return dists, colls2


def _int_round_columns(result, j: int, flips, scale: int):
    """Round ``j``'s common-frame dist numerators (over ``scale``) and
    doubled-coll numerators (over ``scale``; negative = no collision)
    as plain ints -- the :class:`IntEquationSystem` right-hand sides.

    ``scale`` is the backend's shared denominator.  A fused span's raw
    integer columns are read directly; a materialised round (scalar
    backends, fault plans, cross-validation) is recovered from its
    interned Fractions' numerator/denominator attributes -- integer
    arithmetic only, exact because every observation lies on the
    ``Z/(2 scale)`` grid (:func:`_grid_numerator` raises otherwise).
    """
    ints = result.dist_ints(j)
    if ints is not None:
        if result.np is not None:
            ints = ints.tolist()
        dists = [
            scale - v if flip and v else v for flip, v in zip(flips, ints)
        ]
        craw = result.coll_ints(j)
        if craw is not None and result.np is not None:
            craw = craw.tolist()
        return dists, craw
    obs = result.observations(j)
    dists = []
    for flip, o in zip(flips, obs):
        v = _grid_numerator(o.dist, scale)
        if flip and v:
            v = scale - v
        dists.append(v)
    # coll is over 2 * scale, so 2 * coll's numerator over scale is
    # coll's numerator on the doubled grid.
    doubled = 2 * scale
    colls2 = [
        -1 if o.coll is None else _grid_numerator(o.coll, doubled)
        for o in obs
    ]
    return dists, colls2


def _grid_numerator(value: Fraction, grid: int) -> int:
    """``value``'s numerator over ``grid``; raises if ``value`` is off
    the grid, so a recovery can never round silently."""
    step, rem = divmod(grid, value.denominator)
    if rem:
        raise ProtocolError(
            f"observation {value} is not on the 1/{grid} grid"
        )
    return value.numerator * step


def discover_distances(
    sched: Scheduler, engine: Optional[str] = None
) -> int:
    """Native twin of Algorithm 6.  Returns the rounds used (n/2 + 3);
    postcondition: every agent's gap vector under ``ld.gaps``.

    ``engine`` picks the equation backend: ``None``/``"int"`` harvest
    into the fraction-free :class:`IntEquationSystem` whenever the
    backend keeps a shared denominator (``lattice`` and ``array``,
    fused or scalar, under fault plans too), falling back to the spec
    engine on the ``fraction`` backend; ``"cross"`` does the same but
    shadows every system on a live :class:`EquationSystem` and asserts
    lockstep agreement (a cross-validated simulator turns this on
    too); ``"fraction"`` forces the exact-`Fraction` spec everywhere.
    """
    if engine not in (None, "int", "cross", "fraction"):
        raise ProtocolError(f"unknown equation engine {engine!r}")
    if sched.model is not Model.PERCEPTIVE:
        raise ProtocolError("Distances requires the perceptive model")
    population = sched.population
    for key in (KEY_LABEL, KEY_RING_SIZE, KEY_FRAME_FLIP):
        if not population.all_set(key):
            raise ProtocolError(f"Distances requires {key} to be set")
    n = population.column(KEY_RING_SIZE)[0]
    if n % 2 != 0:
        raise ProtocolError(
            "Distances requires even n; use the rotation sweeps for odd n"
        )

    labels = population.column(KEY_LABEL)
    flips = population.column(KEY_FRAME_FLIP)
    schedule = _schedule(n)
    rows = [
        aligned_vector(
            flips,
            [RIGHT if moves_right(label - 1) else LEFT for label in labels],
        )
        for moves_right, _rho, _rotation in schedule
    ]
    # Structural coll() windows, precomputed per (round, slot) -- the
    # schedule is public, only the observation values are not.
    windows = [
        [
            coll_window(n, moves_right, labels[slot] - 1, rho)
            for slot in range(population.n)
        ]
        for moves_right, rho, _rotation in schedule
    ]
    cache: Dict[int, Fraction] = {}
    one = Fraction(1)  # lint: allow[fraction-hot-path] -- one interned constant for the Fraction-spec engine, built once per discovery
    cross_check = engine == "cross" or bool(
        getattr(sched.simulator, "cross_validate", False)
    )
    systems: List[object] = []
    mode: Dict[str, object] = {"scale": None}

    def stop(result, j: int) -> bool:
        """Harvest round ``j``'s equations; fire at full rank."""
        if not systems:
            # First harvested round decides the engine: a backend with
            # a shared denominator (synced by now) feeds the
            # fraction-free engine, the fraction backend the spec.
            scale = (
                None
                if engine == "fraction"
                else getattr(sched.simulator.backend, "scale", None)
            )
            mode["scale"] = scale
            if scale is not None:
                systems.extend(  # lint: allow[per-agent-loop] -- one-time O(N) system construction on the first harvested round, not per-round work
                    IntEquationSystem(n, scale, cross_check=cross_check)
                    for _ in range(population.n)
                )
            else:
                systems.extend(  # lint: allow[per-agent-loop] -- one-time O(N) system construction on the first harvested round, not per-round work
                    EquationSystem(n) for _ in range(population.n)
                )
        _moves_right, rho, rotation = schedule[j]
        round_windows = windows[j]
        done = True
        scale = mode["scale"]
        if scale is not None:
            dists, colls2 = _int_round_columns(result, j, flips, scale)
            for slot in range(population.n):  # lint: allow[per-agent-loop] -- per-slot rank bookkeeping over already-columnar integer rows; each iteration is O(1) equation appends
                label0 = labels[slot] - 1
                system = systems[slot]
                if rotation % n != 0:
                    system.add(
                        IntEquation.window(
                            n, (label0 + rho) % n, rotation, dists[slot]
                        )
                    )
                window = round_windows[slot]
                if (
                    window is not None
                    and colls2 is not None
                    and colls2[slot] >= 0
                ):
                    start, hops = window
                    system.add(
                        IntEquation.window(n, start, hops, colls2[slot])
                    )
                if done and not system.full_rank:
                    done = False
            return done
        dists, colls2 = _round_columns(result, j, flips, cache)
        for slot in range(population.n):  # lint: allow[per-agent-loop] -- Fraction-spec fallback engine: per-slot appends against the executable spec, kept scalar on purpose
            label0 = labels[slot] - 1
            system = systems[slot]
            if rotation % n != 0:
                system.add(
                    Equation.window(
                        n, (label0 + rho) % n, rotation, one, dists[slot]
                    )
                )
            window = round_windows[slot]
            if window is not None and colls2[slot] is not None:
                start, hops = window
                system.add(
                    Equation.window(n, start, hops, one, colls2[slot])
                )
            if done and not system.full_rank:
                done = False
        return done

    before = sched.rounds
    sched.run_stretch(
        SpeculativeStretch(pairs=[(row, 1) for row in rows], stop=stop)
    )

    if not systems:
        raise ProtocolError("the Convolution/Pivot schedule ran no rounds")
    gaps_column: List[List[Fraction]] = []
    solved: Dict[object, Fraction] = {}
    for slot, system in enumerate(systems):
        if not system.full_rank:
            raise ProtocolError(
                f"agent {population.ids[slot]} ended with rank "
                f"{system.rank} < {n}; the Convolution/Pivot schedule "
                "should reach full rank"
            )
        x = (
            system.solve() if mode["scale"] is None else system.solve(solved)
        )
        label0 = labels[slot] - 1
        gaps_column.append([x[(label0 + k) % n] for k in range(n)])
    population.set_column(KEY_LD_GAPS, gaps_column)
    return sched.rounds - before
