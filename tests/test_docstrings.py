"""Docstring coverage gate over the exec and obs public APIs.

These layers carry the repo's execution and observability contracts —
content-addressed caching, resume semantics, zero-cost tracing — so
their public surface must stay documented.  The checker is the local
stdlib-only tool (``tools/check_docstrings.py``); CI runs ``interrogate``
on top for coverage percentages.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docstrings  # noqa: E402
from check_docstrings import iter_python_files, missing_docstrings  # noqa: E402


def test_exec_and_obs_public_apis_are_documented():
    offenders = []
    for path in iter_python_files(
        [str(REPO_ROOT / "src/repro/exec"), str(REPO_ROOT / "src/repro/obs")]
    ):
        offenders.extend(
            f"{path.relative_to(REPO_ROOT)}:{lineno}: {description}"
            for lineno, description in missing_docstrings(path)
        )
    assert not offenders, (
        "public definitions lack docstrings:\n" + "\n".join(offenders)
    )


def test_checker_flags_missing_docstrings(tmp_path):
    bare = tmp_path / "bare.py"
    bare.write_text(
        "def public():\n    pass\n\n"
        "def _private():\n    pass\n\n"
        "class Thing:\n"
        '    """Documented."""\n'
        "    def method(self):\n        pass\n"
        "    def __repr__(self):\n        return ''\n",
        encoding="utf-8",
    )
    found = missing_docstrings(bare)
    descriptions = {description for _lineno, description in found}
    # Module, the public def, and the public method — not the private
    # def and not the dunder.
    assert descriptions == {"module", "def public", "def Thing.method"}


def test_gate_fails_on_a_missing_path(tmp_path, capsys):
    documented = tmp_path / "documented.py"
    documented.write_text('"""Documented."""\n', encoding="utf-8")
    gone = tmp_path / "gone"
    assert check_docstrings.main([str(documented)]) == 0
    assert check_docstrings.main([str(documented), str(gone)]) == 1
    assert f"{gone}: no such file or directory" in capsys.readouterr().out


def test_default_paths_exist():
    missing = [
        raw for raw in check_docstrings.DEFAULT_PATHS
        if not (REPO_ROOT / raw).exists()
    ]
    assert not missing, f"stale DEFAULT_PATHS entries: {missing}"
