#!/usr/bin/env python3
"""Default-settings end-to-end benchmark of the ring simulator.

Run from the repository root::

    python3 perfbench/run.py --workload ld-mixed --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload ld-mixed --seed 1 --seconds 30 --trace 1

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs one block of operations with every layer wrapped and reports the
per-layer metrics.  Both check every result against the simulator's ground
truth.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
(``report: {...}``) adds the host metadata, the inputs digest, the
tail percentile and its sample count, and ``failed_frac``.
``--numpy hidden`` runs with numpy made unimportable (the package's
supported no-numpy axis).  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

#: Set-up is repeated this many times per run (all but one in fresh
#: child processes) and its median reported, so one slow start does
#: not decide ``setup_s``.
SETUP_SAMPLES = 5
#: Whole blocks every untraced run times; ``sim_rounds`` is their
#: total, so it is exact for a seed.
MIN_BLOCKS = 3
#: Timed operations a run needs at least, so the tail percentile has
#: ten samples beyond it.
MIN_OPS = 20
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "sessions_per_s": "1/s",
    "sim_rounds_per_s": "1/s",
    "sim_rounds": "rounds",
    "failed_frac": "ratio",
    "peak_rss_mb": "MB",
}
#: ``failed_frac`` is 0 on correct runs, so it is reported (and carried
#: by the ``failed`` count) but not listed among the metrics compared
#: against a bound.
REPORT_ONLY = ("failed_frac",)


@dataclass
class Outcome:
    """One timed operation: its latency and what its check found."""

    latency: float
    attempted: int
    failed: int
    rounds: int


def _prepare_environment(numpy_axis: str) -> None:
    """Keep the environment from changing what is measured."""
    for name in ("REPRO_CACHE", "REPRO_CACHE_DIR"):
        os.environ.pop(name, None)
    prefix = str(WORK / "pycache")
    os.environ["PYTHONPYCACHEPREFIX"] = prefix
    sys.pycache_prefix = prefix
    if numpy_axis == "hidden":
        sys.modules["numpy"] = None  # type: ignore[assignment]
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))


class Runner:
    """Runs one workload's operations through the public API and checks
    every result outside the timed region."""

    def __init__(self, workload: str, work_dir: Path) -> None:
        self.workload = workload
        self.fleet = workload == "fleet-incremental"
        self.work_dir = work_dir
        # The client process that drives the loop keeps one CPU; the
        # pool gets the rest.  With a worker on every CPU the client and
        # the workers contend, and on a small shared host the batch
        # times then follow the scheduler more than the program.
        self.workers = max(1, (os.cpu_count() or 1) - 1)
        self.store_dir: Optional[Path] = None
        self.tracer = None

    def set_up(self, ops: list) -> float:
        """Import, the untimed first sessions, and for the fleet the
        pool spawn and warm plus one untimed batch against a throwaway
        store.  Returns the pool warm time in seconds (0 when solo)."""
        from workloads import warmup_ops

        warm = warmup_ops(ops)
        if not self.fleet:
            from repro import RingSession

            for op in warm:
                RingSession(n=op.n, model=op.model, seed=op.seed).run(
                    op.protocol
                )
            return 0.0
        from repro import Fleet

        fleet = Fleet(self._specs(warm), workers=self.workers, cache=True,
                      cache_dir=str(self.work_dir / "warm-store"))
        start = perf_counter()
        fleet.warm()
        warm_s = perf_counter() - start
        fleet.run()
        return warm_s

    def _specs(self, ops) -> list:
        from repro import SessionSpec

        return [
            SessionSpec(n=op.n, protocol=op.protocol, model=op.model,
                        seed=op.seed)
            for op in ops
        ]

    def start_block(self) -> None:
        """A fleet block starts from an empty private store."""
        if self.fleet:
            from repro.store.service import get_store

            self.store_dir = self.work_dir / "store"
            get_store(str(self.store_dir)).clear()

    def run_op(self, op) -> Outcome:
        if self.fleet:
            return self._run_batch(op)
        from groundtruth import check_session
        from repro import RingSession

        start = perf_counter()
        try:
            session = RingSession(n=op.n, model=op.model, seed=op.seed)
            result = session.run(op.protocol)
        except Exception:  # a failed session is counted, never retried
            latency = perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            return Outcome(latency, 1, 1, 0)
        latency = perf_counter() - start
        error = check_session(session, op.protocol, result)
        if error is not None:
            print(f"check failed: {op}: {error}", file=sys.stderr)
        return Outcome(latency, 1, int(error is not None), result.rounds)

    def _run_batch(self, batch) -> Outcome:
        from groundtruth import check_row
        from repro import Fleet

        specs = self._specs(batch)
        start = perf_counter()
        try:
            report = Fleet(specs, workers=self.workers, cache=True,
                           cache_dir=str(self.store_dir)).run()
        except Exception:
            latency = perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            return Outcome(latency, len(specs), len(specs), 0)
        latency = perf_counter() - start
        failed = len(specs) - len(report.results)
        rounds = 0
        for row in report.results:
            error = check_row(row)
            if error is not None:
                failed += 1
                print(f"check failed: {row['spec']}: {error}",
                      file=sys.stderr)
            else:
                rounds += int(row["result"]["rounds"])
        if self.tracer is not None and self.tracer.active:
            for key in ("hits", "misses", "deduped"):
                self.tracer.counts[f"store.{key}"] += int(report.cache[key])
        return Outcome(latency, len(specs), failed, rounds)

    def run_block(self, ops: list) -> List[Outcome]:
        self.start_block()
        return [self.run_op(op) for op in ops]

    def _pids(self) -> List[str]:
        """This process and its live pool workers, as /proc names."""
        import multiprocessing

        return ["self"] + [
            str(child.pid) for child in multiprocessing.active_children()
        ]

    def reset_peak_rss(self) -> None:
        """Restart the resident-memory high-water mark of this process
        and of its pool workers (Linux ``clear_refs``), so the next
        reading covers only what runs after this call."""
        for pid in self._pids():
            try:
                Path(f"/proc/{pid}/clear_refs").write_text("5")
            except OSError:
                pass

    def peak_rss_mb(self) -> float:
        """Resident-memory high-water mark of this process plus that of
        each live pool worker, since the last ``reset_peak_rss`` (for
        this process on a host without /proc: its lifetime peak)."""
        kib = 0
        for pid in self._pids():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                if pid == "self":
                    kib += resource.getrusage(
                        resource.RUSAGE_SELF
                    ).ru_maxrss
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    kib += int(line.split()[1])
        return kib / 1024.0

    def close(self) -> None:
        """Stop every process this run started and remove its stores."""
        if "repro.parallel.pool" in sys.modules:
            sys.modules["repro.parallel.pool"].shutdown_pools()
        if "repro.store.service" in sys.modules:
            sys.modules["repro.store.service"].reset_stores()
        from multiprocessing import resource_tracker

        tracker = resource_tracker._resource_tracker
        if getattr(tracker, "_pid", None) is not None and hasattr(
            tracker, "_stop"
        ):
            tracker._stop()
        shutil.rmtree(self.work_dir, ignore_errors=True)


def _setup_samples(args, runner: Runner, ops: list, probes: int):
    """Set-up times: ``probes`` fresh child processes, then this
    process's own.  Returns (median seconds, pool warm seconds, all
    samples)."""
    samples = []
    for _ in range(probes):
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--numpy", args.numpy, "--scale", args.scale]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError("set-up probe failed")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])[
            "setup_s"])
    start = perf_counter()
    warm_s = runner.set_up(ops)
    samples.append(perf_counter() - start)
    return statistics.median(samples), warm_s, samples


def _tail(latencies: List[float]):
    """(value, percentile): the highest percentile that still has
    ``TAIL_BEYOND`` samples beyond it."""
    ordered = sorted(latencies)
    count = len(ordered)
    rank = max(count - TAIL_BEYOND, 1)
    return ordered[rank - 1], 100.0 * rank / count


def _git_sha() -> str:
    """The checkout's commit, read from ``.git`` (``unknown`` when the
    tree is not a git checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _host(args, runner: Runner, digest: str) -> Dict[str, object]:
    from repro import RingSession, SessionSpec

    if args.numpy == "hidden":
        numpy_version = "hidden"
    else:
        try:
            import numpy

            numpy_version = numpy.__version__
        except ImportError:
            numpy_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "workers": runner.workers if runner.fleet else None,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numpy_axis": args.numpy,
        "default_backend": RingSession(n=8, seed=0).backend_name,
        "fleet_spec_backend": SessionSpec(n=8).backend,
        "git_sha": _git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "inputs_digest": digest,
    }


def measure(args, runner: Runner) -> Dict[str, object]:
    """The untraced run: blocks until ``--seconds`` are used, and at
    least ``MIN_BLOCKS`` whole blocks (``sim_rounds`` counts those)."""
    from workloads import make_block

    outcomes: List[Outcome] = []
    sim_rounds = 0
    block = 0
    peaks: List[float] = []
    start = perf_counter()

    def done() -> bool:
        return (
            block >= MIN_BLOCKS and len(outcomes) >= MIN_OPS
            and perf_counter() - start >= args.seconds
        )

    while not done():
        runner.start_block()
        for op in make_block(args.workload, args.seed, args.scale, block):
            runner.reset_peak_rss()
            out = runner.run_op(op)
            peaks.append(runner.peak_rss_mb())
            outcomes.append(out)
            if block < MIN_BLOCKS:
                sim_rounds += out.rounds
            elif done():
                break
        block += 1
    latencies = [o.latency for o in outcomes]
    timed = sum(latencies)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    tail, percentile = _tail(latencies)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "latency_p50_ms": 1000.0 * statistics.median(latencies),
            "latency_tail_ms": 1000.0 * tail,
            "sessions_per_s": (attempted - failed) / timed,
            "sim_rounds_per_s": sum(o.rounds for o in outcomes) / timed,
            "sim_rounds": sim_rounds,
            "failed_frac": failed / attempted,
            "peak_rss_mb": statistics.fmean(peaks),
        },
        "extra": {
            "tail_percentile": round(percentile, 2),
            "samples": len(latencies),
            "blocks": block,
            "max_peak_rss_mb": max(peaks),
            "timed_s": timed,
        },
    }


def measure_traced(args, runner: Runner, warm_s: float):
    """The traced run: block 0 untraced, then block 0 again traced.
    Per-layer totals come from that one traced block, so counts repeat
    exactly for a seed; further pairs, while time remains, only refine
    the overhead ratio.  A traced round count that differs from the
    untraced one counts as a failure."""
    from layertrace import UNITS, Tracer
    from workloads import make_block

    ops = make_block(args.workload, args.seed, args.scale, 0)
    outcomes: List[Outcome] = []
    ratios = []
    kept: Optional[Tracer] = None
    start = perf_counter()
    while kept is None or perf_counter() - start < args.seconds:
        reference = runner.run_block(ops)
        tracer = Tracer()
        runner.tracer = tracer
        tracer.install()
        try:
            traced = runner.run_block(ops)
        finally:
            tracer.uninstall()
            runner.tracer = None
        for ref, out in zip(reference, traced):
            if out.failed == 0 and out.rounds != ref.rounds:
                print("traced round count differs", file=sys.stderr)
                out.failed = out.attempted
        outcomes.extend(reference + traced)
        ratios.append(
            sum(o.latency for o in traced)
            / sum(o.latency for o in reference)
        )
        if kept is None:
            kept = tracer
    overhead = statistics.median(ratios) - 1.0
    metrics = kept.layer_metrics(runner.workers, warm_s, overhead)
    spans_path = WORK / "spans" / f"{args.workload}-seed{args.seed}.spans"
    kept.write(spans_path)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: metrics[name] for name in UNITS},
        "units": UNITS,
        "extra": {
            "spans": len(kept.starts),
            "spans_file": str(spans_path.relative_to(ROOT)),
            "overhead_pairs": len(ratios),
        },
    }


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    from workloads import SCALES, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--numpy", choices=("auto", "hidden"),
                        default="auto")
    parser.add_argument("--scale", choices=SCALES, default="full",
                        help="tiny: the self-test sizes")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    started = perf_counter()
    sys.path.insert(0, str(HERE))
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _prepare_environment(args.numpy)
    from workloads import inputs_digest, make_block

    first = [
        make_block(args.workload, args.seed, args.scale, b)
        for b in range(MIN_BLOCKS)
    ]
    runner = Runner(args.workload, WORK / f"run-{os.getpid()}")
    try:
        if args.setup_probe:
            runner.set_up(sum(first, []))
            print(json.dumps({"setup_s": perf_counter() - started}))
            return 0
        probes = 0 if args.trace else SETUP_SAMPLES - 1
        setup_s, warm_s, setup_samples = _setup_samples(
            args, runner, sum(first, []), probes
        )
        host = _host(args, runner, inputs_digest(first))
        if args.trace:
            result = measure_traced(args, runner, warm_s)
            units = result.pop("units")
        else:
            result = measure(args, runner)
            result["metrics"]["setup_s"] = setup_s
            units = END_TO_END_UNITS
    finally:
        runner.close()
    metrics = result["metrics"]
    result["extra"]["setup_samples_s"] = setup_samples
    for name, value in metrics.items():
        print(f"{args.workload:18s} {name:28s} {value:14.6g} {units[name]}")
    print("report: " + json.dumps({
        "host": host, **result["extra"],
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
    }, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items() if n not in REPORT_ONLY},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
