"""Per-layer spans recorded from the benchmark's own files.

:class:`Tracer` wraps the public functions of each layer of
:mod:`repro` in place (class attributes and module attributes, patched
everywhere a caller looks them up) and restores them on
:meth:`Tracer.uninstall`; the program's source is not edited.  Each
wrapped call records one span ``(name, start, end, parent)`` in
memory; :meth:`Tracer.write` dumps them when the run ends and
:meth:`Tracer.layer_metrics` reduces them to per-layer self times
(span time minus the time of its child spans) and counts.

Wrappers run in the parent process only: a process forked from it
(a pool worker) switches its copy of the tracer off, so worker-side
time is taken from the rows' ``seconds`` instead.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pkgutil
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Phases a solo session can run, in plan order (span ``phase.<name>``).
PHASES = (
    "nontrivial_move", "direction_agreement", "leader_election",
    "neighbor_discovery", "ring_distances", "ring_size_broadcast",
    "discovery",
)

#: metric name -> (span names whose self time it sums).
SELF_MS = {
    "api.session_init_ms": ("api.session_init",),
    "api.plan_ms": ("api.plan",),
    "api.collect_ms": ("api.collect",),
    "api.fleet_self_ms": ("api.fleet",),
    **{f"phase.{p}_ms": (f"phase.{p}",) for p in PHASES},
    "policies.decide_ms": ("policies.decide",),
    "policies.observe_ms": ("policies.observe",),
    "policies.harvest_ms": ("policies.harvest",),
    "scheduler.self_ms": ("scheduler.run_round", "scheduler.run_stretch",
                          "scheduler.other"),
    "population.record_ms": ("population.record",),
    "ring.execute_ms": ("ring.execute",),
    "ring.stretch_ms": ("ring.stretch",),
    "analysis.fraction_ms": ("analysis.fraction",),
    "analysis.int_ms": ("analysis.int",),
    "store.key_ms": ("store.key",),
    "store.get_ms": ("store.get",),
    "store.put_ms": ("store.put",),
    "pool.execute_ms": ("pool.execute",),
}

#: metric name -> span name whose outermost calls it counts.
CALLS = {
    "policies.decide_calls": "policies.decide",
    "scheduler.run_round_calls": "scheduler.run_round",
    "scheduler.run_stretch_calls": "scheduler.run_stretch",
    "analysis.fraction_calls": "analysis.fraction",
    "analysis.int_calls": "analysis.int",
}

#: Counters bumped by wrapper hooks or by the benchmark loop.
COUNTS = (
    "ring.scalar_rounds", "ring.fused_rounds",
    "ring.spec_rounds_computed", "ring.spec_rounds_kept",
    "store.hits", "store.misses", "store.deduped",
)

#: Every per-layer metric, with its unit; the traced pass reports all
#: of them on every workload (0 where a layer is not used).
UNITS: Dict[str, str] = {
    **{name: "ms" for name in SELF_MS},
    **{name: "count" for name in CALLS},
    "ring.scalar_rounds": "rounds",
    "ring.fused_rounds": "rounds",
    "ring.spec_rounds_computed": "rounds",
    "ring.spec_rounds_kept": "rounds",
    "store.hits": "count",
    "store.misses": "count",
    "store.deduped": "count",
    "ring.fused_frac": "ratio",
    "ring.spec_useful_frac": "ratio",
    "analysis.int_frac": "ratio",
    "store.hit_frac": "ratio",
    "pool.warm_ms": "ms",
    "pool.worker_busy_ms": "ms",
    "pool.idle_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

# Modules whose functions are wrapped; imported before patching so
# that every module-level alias is found.
_MODULES = (
    "repro.api.session", "repro.api.fleet", "repro.api.policy",
    "repro.core.scheduler", "repro.core.population",
    "repro.ring.simulator", "repro.ring.backends",
    "repro.analysis.equations", "repro.analysis.int_equations",
    "repro.analysis.linear_system",
    "repro.protocols.policies", "repro.protocols.location_discovery",
    "repro.protocols.distances", "repro.protocols.ring_distance",
    "repro.store.keys", "repro.store.store", "repro.store.service",
    "repro.parallel.pool",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """In-memory span recorder plus the layer wrappers that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.counts: Counter = Counter()
        self.active = True
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.active = False

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- wrapping -------------------------------------------------------

    def _wrapper(
        self,
        fn: Callable,
        name: Optional[str],
        name_of: Optional[Callable] = None,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording one span per call.

        ``name_of(args)`` names the span at call time (when ``name`` is
        None); ``before(args)`` returns a token handed to
        ``after(token, args, result)``, which bumps counters.
        """
        stack = self._stack
        name_ids, starts, ends, parents = (
            self.name_ids, self.starts, self.ends, self.parents
        )
        fixed = None if name is None else self._name_id(name)
        name_id = self._name_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            nid = fixed if name_of is None else name_id(name_of(args))
            token = before(args) if before is not None else None
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(token, args, result)
            return result

        return traced

    def _patch(self, owner: object, attr: str, name: Optional[str],
               **hooks) -> None:
        original = owner.__dict__[attr]  # type: ignore[attr-defined]
        setattr(owner, attr, self._wrapper(original, name, **hooks))
        self._patches.append((owner, attr, original))

    def _patch_function(self, module: str, attr: str, name: str,
                        **hooks) -> None:
        """Wrap a module-level function in its defining module and in
        every loaded ``repro`` module that imported it by name."""
        original = getattr(sys.modules[module], attr)
        wrapped = self._wrapper(original, name, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "repro" or mod is None:
                continue
            if mod.__dict__.get(attr) is original:
                setattr(mod, attr, wrapped)
                self._patches.append((mod, attr, original))

    def _patch_methods(self, cls: type, attrs, name: str) -> None:
        for attr in attrs:
            fn = cls.__dict__.get(attr)
            if callable(fn) and not getattr(fn, "__isabstractmethod__", 0):
                self._patch(cls, attr, name)

    def install(self) -> None:
        """Wrap every traced layer; call once, undo with
        :meth:`uninstall`."""
        for module in _MODULES:
            importlib.import_module(module)
        import repro.protocols.policies as policies_pkg

        for info in pkgutil.iter_modules(policies_pkg.__path__):
            importlib.import_module(f"{policies_pkg.__name__}.{info.name}")

        from repro.analysis.equations import EquationSystem
        from repro.analysis.int_equations import IntEquationSystem
        from repro.api.fleet import Fleet
        from repro.api.policy import Policy
        from repro.api.session import RingSession
        from repro.core.population import Population
        from repro.core.scheduler import Scheduler
        from repro.ring.backends import ArrayBackend
        from repro.ring.simulator import RingSimulator
        from repro.store.store import RunStore

        counts = self.counts

        # api
        self._patch(RingSession, "__init__", "api.session_init")
        self._patch(RingSession, "start", "api.plan")
        self._patch(RingSession, "resume", "api.collect")

        def phase_name(args) -> str:
            pending = args[0].pending_phases
            return "phase." + (pending[0].name if pending else "none")

        self._patch(RingSession, "step", None, name_of=phase_name)
        self._patch(Fleet, "run", "api.fleet")

        # protocols: every Policy subclass's own hooks, and the harvest
        pending, seen = [Policy], set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            self._patch_methods(cls, ("decide",), "policies.decide")
            self._patch_methods(
                cls, ("observe", "observe_stretch"), "policies.observe"
            )
        self._patch_function(
            "repro.protocols.policies.base", "common_dists",
            "policies.harvest",
        )

        # core
        self._patch(Scheduler, "run_round", "scheduler.run_round")
        self._patch(Scheduler, "run_stretch", "scheduler.run_stretch")
        self._patch_methods(
            Scheduler, ("run_rounds", "run_fixed", "skip_restoring"),
            "scheduler.other",
        )
        self._patch_methods(
            Population, ("record_round", "record_stretch", "observe"),
            "population.record",
        )

        # ring
        def add_scalar_round(_token, _args, _result) -> None:
            counts["ring.scalar_rounds"] += 1

        def add_scalar_batch(_token, _args, result) -> None:
            counts["ring.scalar_rounds"] += len(result)

        def stretch_start(args):
            return args[0].rounds_executed, counts["ring.scalar_rounds"]

        def add_fused(token, args, _result) -> None:
            rounds0, scalar0 = token
            scalar = counts["ring.scalar_rounds"] - scalar0
            counts["ring.fused_rounds"] += (
                args[0].rounds_executed - rounds0 - scalar
            )

        def add_speculative(_token, args, result) -> None:
            if result is not None:
                counts["ring.spec_rounds_computed"] += sum(
                    count for _row, count in args[1]
                )
                counts["ring.spec_rounds_kept"] += result.k

        self._patch(RingSimulator, "execute", "ring.execute",
                    after=add_scalar_round)
        self._patch(RingSimulator, "execute_batch", "ring.execute",
                    after=add_scalar_batch)
        self._patch(RingSimulator, "execute_objective", "ring.execute")
        self._patch(RingSimulator, "execute_stretch", "ring.stretch",
                    before=stretch_start, after=add_fused)
        self._patch(RingSimulator, "apply_restoring_span", "ring.stretch")
        self._patch(ArrayBackend, "execute_speculative", "ring.stretch",
                    after=add_speculative)

        # analysis
        engine_methods = ("__init__", "add", "solve", "solve_if_ready")
        self._patch_methods(EquationSystem, engine_methods,
                            "analysis.fraction")
        self._patch_methods(IntEquationSystem, engine_methods,
                            "analysis.int")
        for attr in ("solve_cyclic_pair_sums", "solve_linear_system"):
            self._patch_function(
                "repro.analysis.linear_system", attr, "analysis.fraction"
            )
        self._patch_function(
            "repro.analysis.linear_system", "solve_cyclic_pair_sums_ints",
            "analysis.int",
        )

        # store and pool
        self._patch_function("repro.store.keys", "safe_key", "store.key")
        self._patch(RunStore, "get", "store.get")
        self._patch(RunStore, "put", "store.put")

        def add_busy(_token, _args, rows) -> None:
            counts["pool.worker_busy_s"] += sum(
                float(row["seconds"]) for row in rows
            )

        self._patch_function(
            "repro.parallel.pool", "run_specs_pooled", "pool.execute",
            after=add_busy,
        )

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reduction ------------------------------------------------------

    def self_times(self) -> Tuple[Dict[str, float], Counter]:
        """Per span name: total self seconds, and outermost call count
        (a span nested in one of the same name is not a new call)."""
        n = len(self.starts)
        starts, ends, parents, nids = (
            self.starts, self.ends, self.parents, self.name_ids
        )
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        self_s: Dict[str, float] = {}
        calls: Counter = Counter()
        names = self.names
        for i in range(n):
            name = names[nids[i]]
            self_s[name] = self_s.get(name, 0.0) + (
                ends[i] - starts[i] - child[i]
            )
            p = parents[i]
            if p < 0 or nids[p] != nids[i]:
                calls[name] += 1
        return self_s, calls

    def layer_metrics(
        self, workers: int, warm_s: float, overhead_frac: float
    ) -> Dict[str, float]:
        """Every per-layer metric of :data:`UNITS`, from the spans and
        counters recorded so far."""
        self_s, calls = self.self_times()
        counts = self.counts
        out: Dict[str, float] = {}
        for metric, spans in SELF_MS.items():
            out[metric] = 1000.0 * sum(self_s.get(s, 0.0) for s in spans)
        for metric, span in CALLS.items():
            out[metric] = calls.get(span, 0)
        for name in COUNTS:
            out[name] = counts.get(name, 0)
        total_rounds = out["ring.scalar_rounds"] + out["ring.fused_rounds"]
        out["ring.fused_frac"] = _ratio(out["ring.fused_rounds"], total_rounds)
        out["ring.spec_useful_frac"] = _ratio(
            out["ring.spec_rounds_kept"], out["ring.spec_rounds_computed"]
        )
        out["analysis.int_frac"] = _ratio(
            out["analysis.int_calls"],
            out["analysis.int_calls"] + out["analysis.fraction_calls"],
        )
        out["store.hit_frac"] = _ratio(
            out["store.hits"], out["store.hits"] + out["store.misses"]
        )
        busy_ms = 1000.0 * counts.get("pool.worker_busy_s", 0.0)
        out["pool.warm_ms"] = 1000.0 * warm_s
        out["pool.worker_busy_ms"] = busy_ms
        execute_ms = out["pool.execute_ms"]
        out["pool.idle_frac"] = (
            1.0 - busy_ms / (workers * execute_ms) if execute_ms else 0.0
        )
        out["trace.overhead_frac"] = overhead_frac
        return out

    def write(self, path: Path) -> None:
        """Dump the spans: a JSON header line, then the four columns
        (name index, start, end, parent index) as raw native arrays."""
        header = {
            "names": self.names,
            "count": len(self.starts),
            "columns": [["name", "i"], ["start", "d"], ["end", "d"],
                        ["parent", "i"]],
            "byteorder": sys.byteorder,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("ascii") + b"\n")
            for column in (self.name_ids, self.starts, self.ends,
                           self.parents):
                column.tofile(fh)


def read_spans(path: Path) -> List[Tuple[str, float, float, int]]:
    """The spans :meth:`Tracer.write` dumped, as (name, start, end,
    parent) tuples."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        count = header["count"]
        columns = []
        for _name, code in header["columns"]:
            column = array(code)
            column.fromfile(fh, count)
            columns.append(column)
    names = header["names"]
    return [
        (names[nid], start, end, parent)
        for nid, start, end, parent in zip(*columns)
    ]
