"""Native leader election (vectorised twin of
:mod:`repro.protocols.leader_election`).

:class:`LeaderElectionPolicy` is Algorithm 2 as one whole-population
policy: per ID bit, a candidate probe and its REVERSEDROUND planned as
one fused :meth:`~repro.ring.stretch.Stretch.probe_restore` span (2
rounds, data-dependent row from the candidate state) whose harvest
reads the probe's raw ``dist()`` row and refines the candidate set.
With numpy the candidate state is a bool array and the probe rows are
int8 sign rows.  The Lemma 13 emptiness-bisection route reuses the
native emptiness test.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.core.agent import id_bits
from repro.core.scheduler import Scheduler
from repro.exceptions import ProtocolError
from repro.protocols.base import KEY_FRAME_FLIP, KEY_LEADER, KEY_NMOVE_DIR
from repro.protocols.leader_election import _KEY_SAW_NONZERO
from repro.protocols.policies.base import (
    LEFT,
    PhasePolicy,
    RIGHT,
    frame_signs,
    moved_column,
    probe_row,
    require_column,
)
from repro.protocols.policies.emptiness import emptiness_test
from repro.ring.stretch import Stretch


class LeaderElectionPolicy(PhasePolicy):
    """Algorithm 2: refine the candidate set one ID bit at a time.

    Preconditions: ``nmove.dir`` and ``frame.flip`` columns are set.
    After :meth:`run`, exactly one slot holds ``leader.is_leader`` and
    :attr:`leader_id` is its ID.  Costs 2 rounds per ID bit, exactly
    like the legacy driver.
    """

    def __init__(self, sched: Scheduler) -> None:
        super().__init__(sched)
        population = self.population
        precondition = (
            "Algorithm 2 requires nontrivial move + direction agreement"
        )
        nmove = require_column(population, KEY_NMOVE_DIR, precondition)
        flips = require_column(population, KEY_FRAME_FLIP, precondition)
        # Candidates: agents that moved common-RIGHT in the nontrivial
        # round (aligned_direction(view, RIGHT) is nmove.dir).
        candidates = [
            (LEFT if flip else RIGHT) is direction
            for flip, direction in zip(flips, nmove)
        ]
        xp = self.xp
        self._frame = frame_signs(xp, flips)
        if xp is not None:
            self._ids = xp.asarray(population.ids, dtype=xp.int64)
            self._candidates: Any = xp.asarray(candidates, dtype=bool)
        else:
            self._candidates = candidates
        self.leader_id: Optional[int] = None
        for bit in range(id_bits(population.id_bound)):
            self.push_stretch(
                lambda bit=bit: Stretch.probe_restore(
                    self._probe_vector(bit)
                ),
                lambda result, bit=bit: self._harvest(result, bit),
            )

    def _zero_bit(self, bit: int) -> Any:
        """Per slot: whether the ID's bit ``bit`` is 0."""
        if self.xp is not None:
            return ((self._ids >> bit) & 1) == 0
        return [((x >> bit) & 1) == 0 for x in self.population.ids]

    def _probe_vector(self, bit: int) -> Any:
        """Probe RI(X0), X0 = candidates whose ID bit ``bit`` is 0:
        members move common-RIGHT, everyone else common-LEFT."""
        zero = self._zero_bit(bit)
        if self.xp is not None:
            members = self._candidates & zero
        else:
            members = [c and z for c, z in zip(self._candidates, zero)]
        return probe_row(self.xp, self._frame, members, LEFT)

    def _harvest(self, result: Any, bit: int) -> None:
        """Post the probe's nonzero-dist column and keep the half of the
        candidates the leader-to-be's observation selects."""
        xp = self.xp
        nonzeros = moved_column(result, xp)
        keep_zero = bool(nonzeros[0])
        self.population.set_column(
            _KEY_SAW_NONZERO,
            nonzeros.tolist() if xp is not None else nonzeros,
        )
        zero = self._zero_bit(bit)
        if xp is not None:
            self._candidates = self._candidates & (zero == keep_zero)
        else:
            self._candidates = [
                candidate and z == keep_zero
                for candidate, z in zip(self._candidates, zero)
            ]

    def finalize(self) -> None:
        candidates = self._candidates
        self.population.set_column(
            KEY_LEADER,
            candidates.tolist() if self.xp is not None else candidates,
        )
        self.leader_id = unique_leader_id(self.sched)


def unique_leader_id(sched: Scheduler) -> int:
    """The single elected leader's ID (raises unless exactly one)."""
    population = sched.population
    leaders_column = population.get_column(KEY_LEADER)
    leaders: List[int] = (
        []
        if leaders_column is None
        else [
            population.ids[i]
            for i, cell in enumerate(leaders_column)
            if cell is True
        ]
    )
    if len(leaders) != 1:
        raise ProtocolError(
            f"leader election produced {len(leaders)} leaders: {leaders}"
        )
    return leaders[0]


def elect_leader_with_nontrivial_move(sched: Scheduler) -> int:
    """Native twin of Algorithm 2 (see :class:`LeaderElectionPolicy`)."""
    return LeaderElectionPolicy(sched).run().leader_id


def elect_leader_common_sense(sched: Scheduler) -> int:
    """Native twin of Lemma 13: binary-search the ID space with
    emptiness tests; the smallest present ID leads."""
    population = sched.population
    lo, hi = 1, population.id_bound
    while lo < hi:
        mid = (lo + hi) // 2
        if emptiness_test(sched, range(lo, mid + 1)):
            lo = mid + 1
        else:
            hi = mid
    population.set_column(
        KEY_LEADER, [agent_id == lo for agent_id in population.ids]
    )
    return unique_leader_id(sched)
