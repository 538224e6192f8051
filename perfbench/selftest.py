"""Self-tests of the benchmark (not part of the package's test suite).

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q

Every workload runs at its tiny scale in a child process, exactly as
the benchmark is invoked, so the tests also cover argument handling,
the output contract and process clean-up.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import groundtruth  # noqa: E402
import layertrace  # noqa: E402
import run as bench  # noqa: E402
from workloads import WORKLOADS, inputs_digest, make_block  # noqa: E402

#: Per-layer metrics that are exact counts (no time in them).
EXACT_COUNTS = (
    "policies.decide_calls", "scheduler.run_round_calls",
    "scheduler.run_stretch_calls", "ring.scalar_rounds",
    "ring.fused_rounds", "ring.spec_rounds_computed",
    "ring.spec_rounds_kept", "analysis.fraction_calls",
    "analysis.int_calls", "store.hits", "store.misses", "store.deduped",
)


def _bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )
    return proc


def _result(workload: str, seed: int, trace: int) -> dict:
    proc = _bench(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-2][len("report: "):])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return {"report": report, **result}


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload_is_correct_with_every_metric(workload):
    doc = _benchmark_json()
    out = _result(workload, 3, 0)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert out["report"]["metrics"]["failed_frac"]["value"] == 0
    expected = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())
    host = out["report"]["host"]
    for key in ("nproc", "python", "numpy", "default_backend", "git_sha",
                "inputs_digest"):
        assert host[key]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_for_a_seed(workload):
    first, second = (_result(workload, 5, 1) for _ in range(2))
    doc = _benchmark_json()
    names = {m["name"] for m in doc["per_layer"]}
    assert set(first["metrics"]) == names == set(layertrace.UNITS)
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    rounds = [_result(workload, 5, 0)["metrics"]["sim_rounds"]["value"]
              for _ in range(2)]
    assert rounds[0] == rounds[1]


def test_traced_layers_touch_only_their_workloads():
    solo, fleet = (
        {name: m["value"] for name, m in _result(w, 2, 1)["metrics"].items()}
        for w in ("coord-large", "fleet-incremental")
    )
    for name, value in solo.items():
        if name.startswith(("store.", "pool.", "analysis.")):
            assert value == 0, name
    assert fleet["store.misses"] > 0 and fleet["store.hits"] > 0
    assert fleet["store.deduped"] > 0 and fleet["pool.execute_ms"] > 0


def test_seeds_and_blocks_give_different_inputs():
    for workload in WORKLOADS:
        assert make_block(workload, 1) == make_block(workload, 1)
        digests = {
            inputs_digest([make_block(workload, seed, block=block)])
            for seed in (1, 2) for block in (0, 1)
        }
        assert len(digests) == 4


def _session(protocol: str, model: str, n: int):
    from repro import RingSession

    session = RingSession(n=n, model=model, seed=4)
    return session, session.run(protocol)


def test_corrupted_gap_is_caught():
    session, result = _session("location-discovery", "lazy", 9)
    assert groundtruth.check_session(
        session, "location-discovery", result
    ) is None
    result.gaps_by_agent = [list(g) for g in result.gaps_by_agent]
    result.gaps_by_agent[4][2] += Fraction(1, 1 << 40)
    assert groundtruth.check_session(session, "location-discovery", result)


def test_wrong_leader_is_caught():
    session, result = _session("coordination", "basic", 9)
    assert groundtruth.check_session(session, "coordination", result) is None
    others = [i for i in session.state.ids if i != result.leader_id]
    result.leader_id = others[0]
    assert groundtruth.check_session(session, "coordination", result)


def test_corrupted_fleet_rows_are_caught():
    from repro import SessionSpec
    from repro.api.fleet import run_session_spec

    ld = run_session_spec(SessionSpec(n=9, model="lazy", seed=2))
    coord = run_session_spec(
        SessionSpec(n=9, protocol="coordination", seed=2)
    )
    assert groundtruth.check_row(ld) is None
    assert groundtruth.check_row(coord) is None
    gaps = ld["result"]["gaps_by_agent"]
    gaps[0][0] = str(Fraction(gaps[0][0]) + Fraction(1, 1 << 40))
    assert groundtruth.check_row(ld)
    coord["result"]["leader_id"] = -1
    assert groundtruth.check_row(coord)
    assert groundtruth.check_row({"spec": coord["spec"], "result": None})


def test_spans_round_trip(tmp_path):
    tracer = layertrace.Tracer()
    outer = tracer._wrapper(lambda: inner(), "outer")
    inner = tracer._wrapper(lambda: 7, "inner")
    assert outer() == 7
    path = tmp_path / "t.spans"
    tracer.write(path)
    spans = layertrace.read_spans(path)
    assert [(name, parent) for name, _s, _e, parent in spans] == [
        ("outer", -1), ("inner", 0)
    ]
    self_s, calls = tracer.self_times()
    assert calls == {"outer": 1, "inner": 1}
    assert self_s["outer"] <= spans[0][2] - spans[0][1]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("ld-mixed", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_has_ten_samples_beyond():
    value, percentile = bench._tail([float(i) for i in range(40)])
    assert value == 29.0 and percentile == 75.0
