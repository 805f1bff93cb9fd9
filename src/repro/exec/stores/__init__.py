"""The content-addressed result store.

One store, :class:`~repro.exec.stores.fs.FileResultStore`: one packed
entry file per job, fsync-durable atomic writes, validated reads.
:mod:`~repro.exec.stores.base` holds the entry codec and the stats
record it uses.

Point it somewhere other than the default directory with
``$REPRO_STORE``, the ``--store`` CLI flag, or programmatically via
:func:`make_store`.  See ``docs/store.md``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional

from repro.common.errors import StoreError
from repro.exec.stores.base import (
    STORE_BACKEND_ENV_VAR,
    STORE_ENV_VAR,
    StoreStats,
    decode_entry,
    default_store_dir,
    encode_entry,
)
from repro.exec.stores.fs import (
    FileResultStore,
    QUARANTINE_DIR_NAME,
    TMP_LEAK_AGE_SECONDS,
)

#: The one sentence every bad-spec error ends with, so a typo in any of
#: the selection paths (env var, CLI flag) teaches the right shape.
ACCEPTED_STORE_FORMS = "accepted forms: fs, fs://, or fs://PATH"


def make_store(spec: Optional[str] = None) -> FileResultStore:
    """Build the configured result store.

    ``spec`` is ``fs`` or ``fs://`` (the default store directory,
    ``$REPRO_CACHE_DIR`` or ``~/.cache/nucache-repro``) or ``fs://PATH``
    (a store rooted at ``PATH``); when ``None``, ``$REPRO_STORE``
    decides, defaulting to ``fs``.  Any other spec raises
    :class:`StoreError` naming the accepted forms.
    """
    chosen = spec or os.environ.get(STORE_BACKEND_ENV_VAR) or "fs"
    backend, _, path = chosen.partition("://")
    if backend != "fs":
        raise StoreError(
            f"unknown store backend {backend!r}; {ACCEPTED_STORE_FORMS}"
        )
    return FileResultStore(Path(path) if path else None)


__all__ = [
    "ACCEPTED_STORE_FORMS",
    "FileResultStore",
    "QUARANTINE_DIR_NAME",
    "STORE_BACKEND_ENV_VAR",
    "STORE_ENV_VAR",
    "StoreError",
    "StoreStats",
    "TMP_LEAK_AGE_SECONDS",
    "decode_entry",
    "default_store_dir",
    "encode_entry",
    "make_store",
]
