"""Native emptiness testing (vectorised twin of
:mod:`repro.protocols.emptiness`).

Same probe rounds per model (Lemma 12), same ``empty.result`` consensus
column; occupancy evidence is OR-folded over the observation column in
one pass.  Each probe and its REVERSEDROUND run as one fused
:meth:`~repro.ring.stretch.Stretch.probe_restore` span whose harvest
reads the probe's raw integer ``dist()``/``coll()`` rows; with numpy
the probe rows are int8 sign rows and the evidence a bool array.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional

from repro.core.population import MISSING
from repro.core.scheduler import Scheduler
from repro.exceptions import ProtocolError
from repro.protocols.base import KEY_FRAME_FLIP
from repro.protocols.emptiness import KEY_EMPTY_RESULT, _KEY_SAW
from repro.protocols.policies.base import (
    IDLE,
    LEFT,
    frame_signs,
    moved_column,
    probe_row,
    require_column,
)
from repro.core.agent import id_bits
from repro.ring.stretch import Stretch
from repro.types import Model


def emptiness_test(sched: Scheduler, candidate_ids: Iterable[int]) -> bool:
    """Native twin of :func:`repro.protocols.emptiness.emptiness_test`:
    every agent ends with the consensus verdict under ``empty.result``
    (True = empty)."""
    members = set(candidate_ids)
    population = sched.population
    model = sched.model
    flips = require_column(
        population,
        KEY_FRAME_FLIP,
        "emptiness testing requires an established common frame",
    )

    # Probe B itself (non-members common-LEFT, or idle in the lazy
    # model); in the basic model with even n, then each bit-slice of B.
    other = IDLE if model is Model.LAZY else LEFT
    slices: List[Optional[int]] = [None]
    if model is Model.BASIC and population.parity_even:
        slices += range(id_bits(population.id_bound))

    ids = population.ids
    member = [agent_id in members for agent_id in ids]
    xp = sched.array_module
    frame = frame_signs(xp, flips)
    saw: Any
    if xp is not None:
        member_col: Any = xp.asarray(member, dtype=bool)
        id_col = xp.asarray(ids, dtype=xp.int64)
        saw = xp.zeros(population.n, dtype=bool)
    else:
        member_col = member
        saw = [False] * population.n
    for bit in slices:
        mask = member_col
        if bit is not None:
            if xp is not None:
                mask = mask & ((id_col >> bit) & 1).astype(bool)
            else:
                mask = [m and (x >> bit) & 1 for m, x in zip(member, ids)]
        result = sched.run_stretch(
            Stretch.probe_restore(probe_row(xp, frame, mask, other))
        )
        moved = moved_column(result, xp, coll=model.reports_collisions)
        if xp is not None:
            saw |= moved
        else:
            saw = [s or m for s, m in zip(saw, moved)]
    if xp is not None:
        saw = saw.tolist()

    results = [False if m else not s for m, s in zip(member, saw)]
    # Mirror the legacy driver exactly: it pops its occupancy scratch
    # key only for non-members, so member agents keep theirs.
    population.set_column(
        _KEY_SAW, [s if m else MISSING for m, s in zip(member, saw)]
    )
    population.set_column(KEY_EMPTY_RESULT, results)
    if any(r != results[0] for r in results):
        raise ProtocolError("emptiness test reached no consensus: bug")
    return bool(results[0])
