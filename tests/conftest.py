"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.ring.configs import random_configuration
from repro.ring.state import RingState


@pytest.fixture
def small_ring() -> RingState:
    """A 7-agent ring with mixed chiralities, fixed seed."""
    return random_configuration(n=7, seed=42, common_sense=False)


@pytest.fixture
def even_ring() -> RingState:
    """An 8-agent ring with mixed chiralities, fixed seed."""
    return random_configuration(n=8, seed=7, common_sense=False)


@pytest.fixture
def run_python():
    """Run ``python -c code *args`` in a fresh interpreter with this
    checkout's ``src`` first on the path; returns the CompletedProcess."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )

    def run(code: str, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", code, *args], capture_output=True,
            text=True, timeout=120, env=env,
        )

    return run
