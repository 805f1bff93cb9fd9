"""Fixtures for the benchmark's own tests.

Run from the repository root with ``python -m pytest e2ebench/tests``;
the program's ``src/`` is put on the path here if it is not already.
"""

from __future__ import annotations

import sys

import pytest

from e2ebench.spec import ROOT

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


@pytest.fixture
def store_dir(tmp_path, monkeypatch):
    """A private result store and clean process-wide execution state."""
    from repro.exec import context as exec_context
    from repro.sim.runner import clear_alone_memo

    for name in ("REPRO_ENGINE", "REPRO_JOBS", "REPRO_STORE", "REPRO_FAULTS",
                 "REPRO_CHECK", "REPRO_TRACE_DIR", "REPRO_SCALE"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    exec_context.reset()
    clear_alone_memo()
    yield tmp_path / "store"
    exec_context.reset()
    clear_alone_memo()
