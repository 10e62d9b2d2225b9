"""Shared fixtures and the acceptance-criteria summary plugin."""

from __future__ import annotations

import os
import subprocess
import sys

# let the suite use both cores unless the caller pinned a value
os.environ.setdefault("ENVDIAG_THREADS", "2")

import numpy as np
import pytest

import envdiag
from envdiag import EnvelopeSpectrum

_ACCEPTANCE_RESULTS: list[tuple[str, str, bool]] = []


def record_criterion(tag: str, description: str, passed: bool) -> None:
    """Register one acceptance-criterion outcome for the terminal summary."""
    _ACCEPTANCE_RESULTS.append((tag, description, passed))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for tag, description, passed in sorted(_ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"{tag}: {status} - {description}")


@pytest.fixture
def make_spectrum():
    """Build a synthetic EnvelopeSpectrum from a dict of {freq: amplitude}."""

    def _make(peaks: dict, df: float = 0.5, f_max: float = 200.0, floor: float = 0.0):
        n = int(round(f_max / df)) + 1
        freqs = np.arange(n) * df
        amps = np.full(n, floor, dtype=float)
        for f, a in peaks.items():
            idx = int(round(f / df))
            if abs(idx * df - f) > 1e-9:
                raise ValueError(f"peak frequency {f} is off the {df} Hz grid")
            amps[idx] = a
        return EnvelopeSpectrum(freqs, amps, df)

    return _make


@pytest.fixture
def run_python():
    """Run Python source with arguments in a fresh interpreter that imports this
    envdiag; return its stdout."""
    path = [os.path.dirname(os.path.dirname(envdiag.__file__)), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}

    def _run(code: str, *args: str) -> str:
        return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                              text=True, check=True, env=env).stdout

    return _run
