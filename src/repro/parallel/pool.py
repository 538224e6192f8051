"""Persistent warm worker pools and the zero-copy fleet executor.

The original :class:`~repro.api.fleet.Fleet` spun up a fresh
``ProcessPoolExecutor`` inside every ``run()`` and pickled every
:class:`~repro.api.fleet.SessionSpec` and result row through it -- on
the committed benchmark the spin-up alone ate the parallel win.  This
module replaces that with:

* :class:`WorkerPool` -- a process pool created once per worker count
  and reused for every subsequent run (module registry via
  :func:`get_pool`; :meth:`WorkerPool.warm` pre-spawns the workers and
  pre-imports the session stack so none of that cost lands inside a
  timed region).

* a per-run :class:`~repro.parallel.shm.ShmArena` holding the spec
  payloads (packed JSON blobs) and one fixed-size result slot per spec.
  Jobs pass only ``(arena name, layout, index)``-sized tuples; workers
  attach to the arena once (cached across jobs by name, LRU-evicted)
  and land their result JSON in their spec's slot.  Only results too
  large for their slot fall back to the pickle channel -- correctness
  never depends on the slot size.

Worker-side state lives in module globals: the attachment cache and
nothing else.  Fork and spawn start methods both work (all job
functions are module level; workers share the parent's resource
tracker, so attach-time registrations can never tear down an owner's
segment -- see :mod:`repro.parallel.shm`).
"""

from __future__ import annotations

import atexit
import json
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.parallel.shm import Layout, ShmArena, pack_blobs

#: Default per-spec result-slot size.  Generous for every registry
#: protocol at bench sizes; oversized results transparently fall back
#: to the pickle channel.
DEFAULT_SLOT_BYTES = 1 << 16

#: How many arena attachments a worker keeps mapped (older runs'
#: arenas are unlinked by their owners; closing the mapping frees the
#: pages).
_ATTACH_CACHE_SLOTS = 4

# -- worker-side attachment cache ---------------------------------------

_ATTACHED: Dict[str, ShmArena] = {}


def _attached_arena(name: str, layout: Layout) -> ShmArena:
    """This worker's mapping of arena ``name`` (attach once, cache)."""
    arena = _ATTACHED.get(name)
    if arena is None:
        while len(_ATTACHED) >= _ATTACH_CACHE_SLOTS:
            _evict, stale = next(iter(_ATTACHED.items()))
            del _ATTACHED[_evict]
            try:
                stale.close()
            except BufferError:
                # A leaked view keeps the mapping alive until process
                # exit; the owner's unlink still controls the segment.
                pass
        arena = ShmArena.attach(name, layout)
        _ATTACHED[name] = arena
    return arena


def _warm_job(_index: int) -> bool:
    """Pre-import the session stack so the first real job pays nothing."""
    import repro.api.session  # noqa: F401  (import for side effect)
    import repro.protocols.policies  # noqa: F401

    return True


def _fleet_job(
    name: str, layout: Layout, index: int, slot_bytes: int
) -> Tuple[int, float, Optional[str]]:
    """Run spec ``index`` of the fleet arena ``name`` in this worker.

    Reads the spec JSON out of the arena's packed blob column, runs the
    session, and lands the result JSON in the spec's result slot.
    Returns ``(index, seconds, None)`` on the shm path, or
    ``(index, seconds, result_json)`` when the row is too large for its
    slot and must ride the pickle channel instead.
    """
    from repro.api.fleet import SessionSpec, run_session_spec

    arena = _attached_arena(name, layout)
    bounds = arena.ints("spec_bounds")
    start, end = int(bounds[index]), int(bounds[index + 1])
    spec_doc = json.loads(bytes(arena.raw("specs")[start:end]))
    row = run_session_spec(SessionSpec.from_dict(spec_doc))
    # The wire document is an envelope, not the bare result: faulted
    # specs carry a "faults" block (outcome/error/plan) that must reach
    # the parent alongside the (possibly null) result payload.
    envelope: Dict[str, object] = {"result": row["result"]}
    if "faults" in row:
        envelope["faults"] = row["faults"]
    payload = json.dumps(
        envelope, separators=(",", ":")
    ).encode("utf-8")
    seconds = float(row["seconds"])
    if len(payload) > slot_bytes:
        return index, seconds, payload.decode("utf-8")
    slot = arena.raw("results")[
        index * slot_bytes:index * slot_bytes + len(payload)
    ]
    slot[:] = payload
    arena.ints("result_len")[index] = len(payload)
    return index, seconds, None


# -- the persistent pool -------------------------------------------------


class WorkerPool:
    """A process pool created once and kept warm across runs.

    The underlying executor is built lazily on first use and reused for
    every subsequent submission; :meth:`warm` spawns all workers and
    pre-imports the session stack, so benchmarks can keep pool spin-up
    out of their timed regions.  :meth:`shutdown` tears the pool down
    (the module registry does this for every pool at interpreter exit).
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        self.workers = workers
        self._executor: Optional[ProcessPoolExecutor] = None
        self._warm = False

    @property
    def executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            # Start the parent's resource tracker BEFORE any worker
            # exists: forked workers then inherit it, so their
            # attach-time registrations are set no-ops against the
            # owner's entry.  A worker that forked trackerless would
            # spawn a private tracker whose exit-time cleanup unlinks
            # every segment the worker ever attached -- under the
            # owner, while it is still using them.
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
            self._warm = False
        return self._executor

    @property
    def alive(self) -> bool:
        return self._executor is not None

    def warm(self) -> None:
        """Spawn every worker and pre-import the session stack (no-op
        when the pool is already warm)."""
        if self._warm:
            return
        futures = [
            self.executor.submit(_warm_job, i) for i in range(self.workers)
        ]
        for future in futures:
            future.result()
        self._warm = True

    def submit(self, fn, *args):
        return self.executor.submit(fn, *args)

    def shutdown(self) -> None:
        executor, self._executor = self._executor, None
        self._warm = False
        if executor is not None:
            executor.shutdown(wait=True)


_POOLS: Dict[int, WorkerPool] = {}
_SHUTDOWN_REGISTERED = False


def get_pool(workers: int) -> WorkerPool:
    """The persistent pool for ``workers`` workers (one per count)."""
    global _SHUTDOWN_REGISTERED
    pool = _POOLS.get(workers)
    if pool is None:
        pool = _POOLS[workers] = WorkerPool(workers)
        if not _SHUTDOWN_REGISTERED:
            _SHUTDOWN_REGISTERED = True
            atexit.register(shutdown_pools)
    return pool


def shutdown_pools() -> None:
    """Shut down every registry pool (tests and interpreter exit)."""
    for workers in list(_POOLS):
        pool = _POOLS.pop(workers, None)
        if pool is not None:
            pool.shutdown()


# -- the fleet executor --------------------------------------------------


def run_specs_pooled(
    specs: Sequence[object],
    workers: int,
    slot_bytes: int = DEFAULT_SLOT_BYTES,
    pool: Optional[WorkerPool] = None,
) -> List[Dict[str, object]]:
    """Execute fleet specs across the persistent warm pool.

    Returns the same ``{"spec", "result", "seconds"}`` rows (plus the
    ``"faults"`` block for faulted specs), in spec order, that the
    serial executor produces -- payloads are JSON round-trips of the
    worker's rows, which is lossless for the all-int/string RunReport
    schema, so reports stay bit-identical across executors and worker
    counts.
    """
    if pool is None:
        pool = get_pool(workers)
    pool.warm()
    spec_docs = [spec.to_dict() for spec in specs]
    payload, bounds = pack_blobs([
        json.dumps(doc, separators=(",", ":")).encode("utf-8")
        for doc in spec_docs
    ])
    count = len(spec_docs)
    layout: Layout = (
        ("specs", "bytes", len(payload)),
        ("spec_bounds", "i64", len(bounds)),
        ("results", "bytes", count * slot_bytes),
        ("result_len", "i64", count),
    )
    rows: List[Dict[str, object]] = [None] * count  # type: ignore[list-item]
    with ShmArena.create(layout) as arena:
        arena.raw("specs")[:len(payload)] = payload
        arena.write_ints("spec_bounds", bounds)
        futures = [
            pool.submit(_fleet_job, arena.name, layout, i, slot_bytes)
            for i in range(count)
        ]
        inline: Dict[int, str] = {}
        seconds: Dict[int, float] = {}
        for future in futures:
            index, elapsed, overflow = future.result()
            seconds[index] = elapsed
            if overflow is not None:
                inline[index] = overflow
        lengths = arena.read_ints("result_len")
        results_view = arena.raw("results")
        try:
            for i in range(count):
                text = inline.get(i)
                if text is None:
                    lo = i * slot_bytes
                    text = bytes(
                        results_view[lo:lo + lengths[i]]
                    ).decode("utf-8")
                envelope = json.loads(text)
                row: Dict[str, object] = {
                    "spec": spec_docs[i],
                    "result": envelope["result"],
                }
                if "faults" in envelope:
                    row["faults"] = envelope["faults"]
                row["seconds"] = round(seconds[i], 6)
                rows[i] = row
        finally:
            # The arena closes at with-exit; every view must be gone.
            results_view.release()
    return rows

