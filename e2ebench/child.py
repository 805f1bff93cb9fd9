"""Code that runs inside a traced workload process (``run.py child ...``).

It imports the program (``src/`` is on ``PYTHONPATH``); the runner
process itself never does, so its own footprint stays out of what it
measures.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Sequence


def traced(experiments: Sequence[str], spans_path: Path) -> int:
    """``nucache-repro run <experiments> --jobs 1`` in-process under the layer tracer."""
    from e2ebench.layers import ROOT_SPAN, LayerTracer
    from repro.cli import main

    tracer = LayerTracer()
    with tracer.installed():
        code = tracer.call(ROOT_SPAN, main, None, (["run", *experiments, "--jobs", "1"],), {})
    sys.stdout.flush()
    tracer.write(spans_path)
    return code
