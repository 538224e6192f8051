"""Deprecated end-to-end entry points (use :class:`repro.api.RingSession`).

``solve_coordination`` and ``solve_location_discovery`` predate the
protocol registry; they are kept as thin shims that plan and run the
registered pipeline and emit a :class:`DeprecationWarning`.  Results are
identical to the registry path by construction (the shims *are* the
registry path) and tested to stay that way.

The routing table the registry implements, for reference:

===========================  =========================================
Setting                      Pipeline
===========================  =========================================
odd n (any model)            DirAgr (Prop 17, O(1)) -> leader via
                             emptiness bisection (O(log N)) -> NMove
                             from leader (O(1))
even n, basic/lazy           NMove via the published distinguisher
                             sequence (Thm 27) -> DirAgr (Alg 1) ->
                             leader (Alg 2)
even n, perceptive           NMoveS (Alg 4, O(√n log N)) -> DirAgr ->
                             leader (Alg 2)
common chirality declared    leader via emptiness bisection (Lemma 13)
                             -> NMove from leader
===========================  =========================================

Location discovery then runs the best discovery phase for the model:
rotation-1 sweep (lazy, n rounds), rotation-2 sweep (basic, odd n only
-- Lemma 5 forbids even n), or neighbor discovery + RingDist + ring-size
broadcast + Distances (perceptive, even n, n/2 + o(n)).
"""

from __future__ import annotations

import warnings
from typing import Optional

from repro.core.scheduler import Scheduler
from repro.protocols.base import (
    CoordinationResult,
    LocationDiscoveryResult,
)
from repro.ring.state import RingState
from repro.types import Model


def _warn_deprecated(old: str, new: str) -> None:
    warnings.warn(
        f"{old}() is deprecated; use {new}",
        DeprecationWarning,
        stacklevel=3,
    )


def solve_coordination(
    state: RingState,
    model: Model = Model.BASIC,
    common_sense: bool = False,
    scheduler: Optional[Scheduler] = None,
    backend: Optional[str] = None,
) -> CoordinationResult:
    """Deprecated: use ``RingSession(...).run("coordination")``.

    Solve direction agreement, leader election and nontrivial move.

    Args:
        state: A fresh ring configuration.
        model: Model variant to run under.
        common_sense: Declare that agents share a sense of direction
            (the Table II setting).  The caller must guarantee it.
        scheduler: Reuse an existing scheduler (e.g. to continue with
            location discovery); a new one is created otherwise.
        backend: Kinematics backend name ("lattice"/"fraction"/"array")
            for a newly created scheduler; ignored when ``scheduler`` is
            given.  ``None`` picks by ring size (see
            :func:`repro.ring.backends.make_backend`).

    Returns:
        A :class:`CoordinationResult` with the leader's ID and per-phase
        round counts.  Positions are restored to the initial
        configuration on exit.
    """
    from repro.api.session import RingSession

    _warn_deprecated(
        "solve_coordination", 'repro.api.RingSession(...).run("coordination")'
    )
    sched = scheduler or Scheduler(state, model, backend=backend)
    session = RingSession.from_scheduler(sched, common_sense=common_sense)
    return session.run("coordination")


def solve_location_discovery(
    state: RingState,
    model: Model = Model.LAZY,
    common_sense: bool = False,
    backend: Optional[str] = None,
) -> LocationDiscoveryResult:
    """Deprecated: use ``RingSession(...).run("location-discovery")``.

    Full location discovery from a cold start.

    Args:
        backend: Kinematics backend name ("lattice"/"fraction"/"array");
            ``None`` picks ``"array"`` from
            :data:`repro.ring.backends.ARRAY_MIN_N` agents up and
            ``"lattice"`` below.

    Raises:
        InfeasibleProblemError: basic model with even n (Lemma 5).

    Returns:
        Per-agent reconstructed gap vectors (see
        :class:`LocationDiscoveryResult`) and per-phase round counts.
    """
    from repro.api.session import RingSession

    _warn_deprecated(
        "solve_location_discovery",
        'repro.api.RingSession(...).run("location-discovery")',
    )
    session = RingSession.from_state(
        state, model=model, backend=backend, common_sense=common_sense
    )
    return session.run("location-discovery")
