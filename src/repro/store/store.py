"""The two-tier RunReport store: in-process LRU over on-disk entries.

Layout (``~/.cache/repro`` by default; ``REPRO_CACHE_DIR`` or
``--cache-dir`` override)::

    <cache_dir>/v1/<digest[:2]>/<digest>.json   one schema-v1 envelope
    <cache_dir>/events.jsonl                    per-process counter lines

An envelope records the digest it is filed under, the canonical key
document, the producing spec and backend, the repro version, and the
result payload.  Writes are write-then-``os.replace`` into the final
path, so concurrent writers racing the same key each land a complete
envelope and readers never observe a half-written file.  On read,
*anything* unexpected -- unreadable file, malformed JSON, schema or
digest mismatch, missing result -- is a miss, never an error: the
caller recomputes, exactly as if the entry did not exist.  A store
whose directory cannot be written (read-only filesystem, permissions)
degrades to its memory tier alone.

Counters (hits / misses / stores / store failures) are in-process and
appended to ``events.jsonl`` as one JSON line per process at exit, so
``python -m repro cache stats`` can report activity across the many
short-lived processes of a test suite or CI job.  One module-level exit
hook flushes every store still alive; the hook holds stores weakly, so
a dropped store (and its memory tier) is freed -- call
:meth:`RunStore.flush_events` first to keep its unflushed counters.
"""

from __future__ import annotations

import atexit
import copy
import json
import os
import weakref
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Iterator, Optional

#: Schema version of the on-disk envelope; mismatches are misses.
STORE_SCHEMA = 1

#: In-process LRU capacity (entries, not bytes).
DEFAULT_MEMORY_SLOTS = 256

_COUNTER_FIELDS = ("hits", "misses", "stores", "store_failures")

#: Every live store, flushed once at process exit.
_LIVE_STORES: "weakref.WeakSet[RunStore]" = weakref.WeakSet()


@atexit.register
def _flush_live_stores() -> None:
    for store in list(_LIVE_STORES):
        store.flush_events()


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


class RunStore:
    """Content-addressed RunReport store with an in-process LRU tier.

    Attributes:
        cache_dir: Root directory of the on-disk tier.
        memory_slots: LRU capacity of the in-process tier.
        hits / misses / stores / store_failures: In-process counters
            since the last event flush (flushed to ``events.jsonl`` at
            process exit).
    """

    def __init__(
        self,
        cache_dir: Optional[object] = None,
        memory_slots: int = DEFAULT_MEMORY_SLOTS,
    ) -> None:
        self.cache_dir = (
            Path(str(cache_dir)) if cache_dir is not None
            else default_cache_dir()
        )
        self.memory_slots = max(0, memory_slots)
        self._memory: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.store_failures = 0
        _LIVE_STORES.add(self)

    # -- paths -----------------------------------------------------------

    @property
    def entries_dir(self) -> Path:
        return self.cache_dir / f"v{STORE_SCHEMA}"

    @property
    def events_path(self) -> Path:
        return self.cache_dir / "events.jsonl"

    def entry_path(self, digest: str) -> Path:
        return self.entries_dir / digest[:2] / f"{digest}.json"

    # -- the two tiers ---------------------------------------------------

    def _remember(self, digest: str, envelope: Dict[str, object]) -> None:
        if self.memory_slots == 0:
            return
        self._memory[digest] = envelope
        self._memory.move_to_end(digest)
        while len(self._memory) > self.memory_slots:
            self._memory.popitem(last=False)

    def load_entry(self, digest: str) -> Optional[Dict[str, object]]:
        """Read and validate the on-disk envelope (no counters, no
        memory promotion) -- the raw primitive ``get`` and ``verify``
        build on.  Returns ``None`` for anything less than a complete,
        schema-matching, digest-matching envelope.
        """
        try:
            text = self.entry_path(digest).read_text()
        except OSError:
            return None
        try:
            envelope = json.loads(text)
        except ValueError:
            return None  # corrupt or truncated: a miss, not an error
        if not isinstance(envelope, dict):
            return None
        if envelope.get("store_schema") != STORE_SCHEMA:
            return None  # version mismatch: a miss, not an error
        if envelope.get("digest") != digest:
            return None  # misfiled entry: never serve it
        if "result" not in envelope:
            return None
        return envelope

    def get(self, digest: str) -> Optional[Dict[str, object]]:
        """The envelope stored under ``digest``, or ``None`` (a miss).

        Memory tier first, then disk (promoting into memory).  The
        returned envelope is a private copy -- callers can mutate it
        without poisoning the cache.
        """
        cached = self._memory.get(digest)
        if cached is not None:
            self._memory.move_to_end(digest)
            self.hits += 1
            return copy.deepcopy(cached)
        envelope = self.load_entry(digest)
        if envelope is None:
            self.misses += 1
            return None
        self._remember(digest, envelope)
        self.hits += 1
        return copy.deepcopy(envelope)

    def put(
        self,
        digest: str,
        result: Dict[str, object],
        *,
        key: Dict[str, object],
        spec: Dict[str, object],
        backend: Optional[str],
    ) -> bool:
        """File ``result`` under ``digest``; returns whether the disk
        tier accepted it.  ``backend`` is the producing spec's backend
        (``None``: the size-resolved default).

        The memory tier always takes the entry; the disk write is
        atomic (unique temp file, then ``os.replace``) and any
        ``OSError`` -- read-only directory, full disk, racing cleanup
        -- degrades to memory-only silently.
        """
        from repro import __version__

        envelope: Dict[str, object] = {
            "store_schema": STORE_SCHEMA,
            "digest": digest,
            "key": key,
            "spec": spec,
            "backend": backend,
            "repro_version": __version__,
            "result": result,
        }
        self._remember(digest, copy.deepcopy(envelope))
        path = self.entry_path(digest)
        tmp = path.parent / f".{digest}.{os.getpid()}.tmp"
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(
                json.dumps(envelope, sort_keys=True, indent=None) + "\n"
            )
            os.replace(tmp, path)
        except OSError:
            self.store_failures += 1
            try:
                tmp.unlink()
            except OSError:
                pass
            return False
        self.stores += 1
        return True

    # -- maintenance -----------------------------------------------------

    def iter_digests(self) -> Iterator[str]:
        """All on-disk digests, sorted (deterministic verify order)."""
        if not self.entries_dir.is_dir():
            return
        for path in sorted(self.entries_dir.glob("*/*.json")):
            yield path.stem

    def stats(self) -> Dict[str, object]:
        """Entry count and bytes on disk plus cross-process counters."""
        entries = 0
        total = 0
        if self.entries_dir.is_dir():
            for path in self.entries_dir.glob("*/*.json"):
                try:
                    total += path.stat().st_size
                except OSError:
                    continue
                entries += 1
        return {
            "cache_dir": str(self.cache_dir),
            "entries": entries,
            "bytes": total,
            "memory_entries": len(self._memory),
            "events": self.event_totals(),
        }

    def clear(self) -> int:
        """Drop both tiers; returns how many disk entries were removed."""
        self._memory.clear()
        removed = 0
        if self.entries_dir.is_dir():
            for path in sorted(
                self.entries_dir.rglob("*"), reverse=True
            ):
                try:
                    if path.is_dir():
                        path.rmdir()
                    else:
                        path.unlink()
                        if path.suffix == ".json":
                            removed += 1
                except OSError:
                    continue
            try:
                self.entries_dir.rmdir()
            except OSError:
                pass
        try:
            self.events_path.unlink()
        except OSError:
            pass
        return removed

    # -- cross-process counters ------------------------------------------

    def flush_events(self) -> None:
        """Append this process's counters to ``events.jsonl`` and reset.

        One line per process with activity; idempotent when idle.  Any
        write failure is swallowed -- counters are observability, not
        correctness.
        """
        counters = {name: getattr(self, name) for name in _COUNTER_FIELDS}
        if not any(counters.values()):
            return
        counters["pid"] = os.getpid()
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            with open(self.events_path, "a") as fh:
                fh.write(json.dumps(counters, sort_keys=True) + "\n")
        except OSError:
            return
        for name in _COUNTER_FIELDS:
            setattr(self, name, 0)

    def event_totals(self) -> Dict[str, int]:
        """Counters summed over ``events.jsonl`` plus this process's
        unflushed activity (malformed lines are skipped)."""
        totals = {name: getattr(self, name) for name in _COUNTER_FIELDS}
        try:
            lines = self.events_path.read_text().splitlines()
        except OSError:
            return totals
        for line in lines:
            try:
                event = json.loads(line)
            except ValueError:
                continue
            if not isinstance(event, dict):
                continue
            for name in _COUNTER_FIELDS:
                value = event.get(name)
                if isinstance(value, int):
                    totals[name] += value
        return totals
