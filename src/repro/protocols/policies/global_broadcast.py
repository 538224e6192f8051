"""Native rotation-coded broadcast (vectorised twin of
:mod:`repro.protocols.global_broadcast`).

Each bit is one fused :meth:`~repro.ring.stretch.Stretch.probe_restore`
span; its harvest reads the probe's raw ``dist()`` row.  With numpy the
probe rows are int8 sign rows and the received bits accumulate in an
int64 column."""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.core.agent import id_bits
from repro.core.scheduler import Scheduler
from repro.exceptions import ProtocolError
from repro.protocols.base import KEY_FRAME_FLIP
from repro.protocols.global_broadcast import KEY_BROADCAST_VALUE
from repro.protocols.policies.base import (
    LEFT,
    frame_signs,
    moved_column,
    probe_row,
    require_column,
)
from repro.ring.stretch import Stretch


def broadcast_value(
    sched: Scheduler,
    announcers: Sequence[bool],
    values: Sequence[Optional[int]],
    width: Optional[int] = None,
    result_key: str = KEY_BROADCAST_VALUE,
) -> int:
    """Native twin of
    :func:`repro.protocols.global_broadcast.broadcast_value`: the unique
    slot with ``announcers[slot]`` set transmits ``values[slot]`` to
    everyone, one bit per (probe + restore) round pair."""
    population = sched.population
    flips = require_column(
        population, KEY_FRAME_FLIP, "global broadcast requires a common frame"
    )
    announcer_slots = [i for i, a in enumerate(announcers) if a]
    if len(announcer_slots) != 1:
        raise ProtocolError(
            "broadcast requires exactly one announcer, found "
            f"{len(announcer_slots)}"
        )
    value = values[announcer_slots[0]]
    if value is None or value < 0:
        raise ProtocolError("announcer must hold a non-negative value")
    bits = width if width is not None else id_bits(population.id_bound)
    if value >= (1 << bits):
        raise ProtocolError(f"value {value} does not fit in {bits} bits")

    xp = sched.array_module
    frame = frame_signs(xp, flips)
    if xp is not None:
        senders: Any = xp.asarray(announcers, dtype=bool)
        silent: Any = xp.zeros(population.n, dtype=bool)
        acc: Any = xp.zeros(population.n, dtype=xp.int64)
    else:
        senders = announcers
        silent = [False] * population.n
        acc = [0] * population.n
    for bit in range(bits):
        sending = senders if (value >> bit) & 1 else silent
        row = probe_row(xp, frame, sending, LEFT)
        result = sched.run_stretch(Stretch.probe_restore(row))
        moved = moved_column(result, xp)
        if xp is not None:
            acc |= moved.astype(xp.int64) << bit
        else:
            acc = [a | (m << bit) for a, m in zip(acc, moved)]

    if xp is not None:
        acc = acc.tolist()
    population.set_column(result_key, acc)
    results = set(acc)
    if results != {value}:
        raise ProtocolError(f"broadcast diverged: {results} != {value}")
    return value
