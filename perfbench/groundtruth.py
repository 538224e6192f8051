"""Ground-truth checks of every timed result, run outside the timed region.

The simulator knows the exact initial positions and IDs, so each
completed result can be checked against them:

* location discovery -- every agent's gap vector equals the true
  initial gaps in one shared clockwise-or-counter-clockwise frame,
  every gap is positive and the gaps sum to 1;
* coordination -- the leader is a real ID and exactly one agent holds
  the leader flag (every agent agrees who leads);
* fleet rows -- the ring is rebuilt from the row's spec and the same
  checks apply (a row carries the leader ID only when exactly one
  agent held the flag).

Each check returns ``None`` for a correct result, else a one-line
reason.  Nothing here calls a function the tracer wraps.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence


def check_gaps(
    true_cw: Sequence[Fraction], gaps_by_agent: Sequence[Sequence[Fraction]]
) -> Optional[str]:
    """Every agent's gaps must be the true initial gaps, read from its
    own slot, all in the clockwise frame or all in the counter-clockwise
    one.  The true gaps are checked to be positive and to sum to 1, so
    a vector equal to one of their rotations is positive and sums to 1
    as well."""
    n = len(true_cw)
    if any(g <= 0 for g in true_cw) or sum(true_cw) != 1:
        return "the ring's own gaps are not positive summing to 1"
    if len(gaps_by_agent) != n:
        return f"{len(gaps_by_agent)} gap vectors for {n} agents"
    vectors = [list(g) for g in gaps_by_agent]
    for i, gaps in enumerate(vectors):
        if len(gaps) != n:
            return f"agent {i} reported {len(gaps)} gaps, ring has {n}"
    cw = list(true_cw) * 2
    # Agent i's counter-clockwise vector: true_cw[(i - 1 - k) % n].
    ccw = list(reversed(true_cw)) * 2
    if all(vectors[i] == cw[i:i + n] for i in range(n)):
        return None
    if all(vectors[i] == ccw[n - i:2 * n - i] for i in range(n)):
        return None
    return "gap vectors differ from the true gaps in both frames"


def check_leader(
    ids: Sequence[int], leader_id: Optional[int], flags: Sequence[bool]
) -> Optional[str]:
    if leader_id not in ids:
        return f"leader {leader_id!r} is not an agent ID"
    holders = [agent for agent, flag in zip(ids, flags) if flag]
    if holders != [leader_id]:
        return f"leader flag held by {holders}, result says {leader_id}"
    return None


def check_session(session, protocol: str, result) -> Optional[str]:
    """Check a solo ``RingSession.run`` result against its own state."""
    from repro.protocols.base import KEY_LEADER

    state = session.state
    if protocol == "location-discovery":
        return check_gaps(state.initial_gaps(), result.gaps_by_agent)
    flags = [bool(view.memory.get(KEY_LEADER)) for view in session.views]
    return check_leader(list(state.ids), result.leader_id, flags)


def _rebuilt_state(spec: dict):
    """The ring a fleet row's spec describes (a session's
    default ``random`` configuration)."""
    from repro.ring.configs import random_configuration

    return random_configuration(
        spec["n"],
        seed=spec["seed"],
        id_bound=spec.get("id_bound"),
        common_sense=spec.get("common_sense", False),
    )


def check_row(row: dict) -> Optional[str]:
    """Check one ``RunReport`` row against the ring rebuilt from its spec."""
    result = row.get("result")
    if result is None or "faults" in row:
        return "error row"
    spec = row["spec"]
    state = _rebuilt_state(spec)
    if spec["protocol"] == "location-discovery":
        gaps: List[List[Fraction]] = [
            [Fraction(g) for g in vector] for vector in result["gaps_by_agent"]
        ]
        return check_gaps(state.initial_gaps(), gaps)
    leader = result.get("leader_id")
    ids = list(state.ids)
    # leader_id is set only when exactly one agent held the flag.
    return check_leader(ids, leader, [agent == leader for agent in ids])
