"""Seeded inputs and the closed-loop operations of each workload.

Every workload is one client in a closed loop: the next operation
starts when the previous one returns.  A run's inputs are a stream of
*blocks*; block ``b`` is a pure function of ``(workload, seed, scale,
b)``, so counts taken over a fixed number of blocks repeat exactly for
a seed, and each block draws fresh rings from the same size grid.

The program only ever receives the generated ``(protocol, model, n,
seed)`` tuples, through the public API at default settings: no
``backend=``, ``driver=``, ``shards=`` or ``unchecked=`` is passed, so
a change of default shows up here.

Workloads (see README.md for why each was chosen):

* ``ld-mixed`` -- serial ``RingSession(...).run("location-discovery")``:
  perceptive runs on even n (16-60) and lazy/basic runs on odd n
  (129-243).
* ``coord-large`` -- serial ``RingSession(...).run("coordination")``
  over all three models on rings of about 1024, 2048 and 4096 agents,
  odd and even n.
* ``fleet-incremental`` -- a growing sweep of cached ``Fleet.run()``
  batches on the default process executor: each batch adds new small
  specs, asks again for some earlier ones and repeats some within the
  batch.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass
from typing import List, Sequence, Tuple

WORKLOADS = ("ld-mixed", "coord-large", "fleet-incremental")
SCALES = ("full", "tiny")
MODELS = ("basic", "lazy", "perceptive")

LD = "location-discovery"
COORD = "coordination"


@dataclass(frozen=True)
class Op:
    """One session's inputs: everything the program is given."""

    protocol: str
    model: str
    n: int
    seed: int


#: A fleet batch is the list of specs one ``Fleet.run()`` receives.
Batch = Tuple[Op, ...]


def _pick(rng: random.Random, lo: int, hi: int, parity: int) -> int:
    """A uniform n in ``[lo, hi]`` with ``n % 2 == parity``."""
    first = lo if lo % 2 == parity else lo + 1
    return rng.randrange(first, hi + 1, 2)


def _ring_seed(rng: random.Random) -> int:
    return rng.randrange(1 << 31)


# Sizes come from a fixed grid of centres, so every seed gets the same
# mix of small and large rings and per-block totals stay comparable
# across seeds; the seed moves n a little around each centre, picks
# the ring configurations and shuffles the order.
_LD_PERCEPTIVE = (16, 22, 28, 34, 40, 46, 52, 58)    # even n, +0 or +2
_LD_ODD = (129, 145, 161, 177, 193, 209, 225, 241)  # odd n, +0 or +2
_COORD = (1024, 2048, 4096)                         # n within +-16


def ld_mixed(rng: random.Random, scale: str) -> List[Op]:
    perceptive, odd = ((8,), (9,)) if scale == "tiny" else (
        _LD_PERCEPTIVE, _LD_ODD
    )
    ops = [
        Op(LD, "perceptive", c + rng.choice((0, 2)), _ring_seed(rng))
        for c in perceptive
    ]
    for model in ("lazy", "basic"):
        ops.extend(
            Op(LD, model, c + rng.choice((0, 2)), _ring_seed(rng))
            for c in odd
        )
    rng.shuffle(ops)
    return ops


def coord_large(rng: random.Random, scale: str) -> List[Op]:
    centres = (24,) if scale == "tiny" else _COORD
    ops = [
        Op(COORD, model, _pick(rng, c - 16, c + 16, parity), _ring_seed(rng))
        for model in MODELS
        for parity in (0, 1)
        for c in centres
    ]
    rng.shuffle(ops)
    return ops


#: The small-spec classes of a fleet block, each with its size slots in
#: ascending order: batch b gets slots 2b and 2b + 1, and the seed picks
#: one size of each slot's pair.  Each such session runs in roughly
#: 1-25 ms.  Perceptive location discovery costs ~25 rounds on odd n
#: and ~250 on n = 6 or 8 but ~500 from n = 10, so its pairs keep n's
#: parity and stay below 10.
_ANY = tuple(
    (n, n + 2) for n in (8, 9, 10, 11, 12, 14, 16, 18, 20, 23, 26, 30)
)
_FLEET_CLASSES = (
    (COORD, "basic", _ANY),
    (COORD, "lazy", _ANY),
    (COORD, "perceptive", _ANY),
    (LD, "lazy", _ANY),
    (LD, "basic", tuple((n, n + 2) for n in range(9, 32, 2))),
    (LD, "perceptive", ((5, 7), (6, 8)) * 6),
)


def fleet_incremental(rng: random.Random, scale: str) -> List[Batch]:
    """A growing sweep.  Batch b gets ``per_class`` new specs of every
    class, the next sizes of each class's grid; ``dups`` second copies
    of its own new specs (deduplicated); and, from the second batch
    on, ``repeats`` specs of earlier batches (store hits).  Which class
    and grid slot each copy or repeat takes is fixed, so every seed
    gets the same mix; the seed picks each size from its slot, the ring
    configurations and shuffles each batch."""
    batches, per_class, repeats, dups = (
        (2, 1, 1, 1) if scale == "tiny" else (6, 2, 4, 2)
    )
    classes = len(_FLEET_CLASSES)
    fresh = [
        [
            [
                Op(protocol, model, rng.choice(sizes[b * per_class + k]),
                   _ring_seed(rng))
                for k in range(per_class)
            ]
            for protocol, model, sizes in _FLEET_CLASSES
        ]
        for b in range(batches)
    ]
    out: List[Batch] = []
    for b in range(batches):
        batch = [op for ops in fresh[b] for op in ops]
        batch += [
            fresh[b][(b * dups + j) % classes][j % per_class]
            for j in range(dups)
        ]
        if b:
            batch += [
                fresh[j % b][(b * repeats + j) % classes][j % per_class]
                for j in range(repeats)
            ]
        rng.shuffle(batch)
        out.append(tuple(batch))
    return out


_GENERATORS = {
    "ld-mixed": ld_mixed,
    "coord-large": coord_large,
    "fleet-incremental": fleet_incremental,
}


def make_block(
    workload: str, seed: int, scale: str = "full", block: int = 0
) -> list:
    """The operations of one block: sessions, or batches for the fleet."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    rng = random.Random(f"{workload}/{scale}/{seed}/{block}")
    return _GENERATORS[workload](rng, scale)


def sessions_of(op) -> Sequence[Op]:
    """The sessions one operation asks for (a batch asks for many)."""
    return op if isinstance(op, tuple) else (op,)


def inputs_digest(blocks: List[list]) -> str:
    """A short digest of some blocks' inputs, so two runs can be shown
    to have used identical inputs."""
    doc = [
        [[asdict(s) for s in sessions_of(op)] for op in ops]
        for ops in blocks
    ]
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def warmup_ops(ops: list) -> List[Op]:
    """One tiny session per (protocol, model, parity) the block uses:
    the untimed first sessions of set-up, which load and exercise
    every code path the timed operations will take."""
    classes = sorted({
        (s.protocol, s.model, s.n % 2)
        for op in ops for s in sessions_of(op)
    })
    return [
        Op(protocol, model, 9 if parity else 8, 0)
        for protocol, model, parity in classes
    ]
