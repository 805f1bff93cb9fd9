"""Deterministic random-number helpers.

Everything in this library that needs randomness (workload generation,
random replacement, PIPP's probabilistic promotion) draws from a
``numpy.random.Generator`` seeded through :func:`make_rng`.  Seeds are
derived from a root seed plus a *stream label* so that, e.g., core 3's
trace generator and the LLC's random-replacement stream never share state,
and adding a new consumer of randomness never perturbs existing ones.
"""

from __future__ import annotations

import hashlib

import numpy as np

#: Root seed used by all experiments unless overridden.  Fixed so every
#: table and figure is reproducible run to run.
DEFAULT_SEED = 20110212  # HPCA 2011 publication date


def derive_seed(root_seed: int, label: str) -> int:
    """Derive a 63-bit child seed from ``root_seed`` and a stream label.

    The derivation hashes the pair, so distinct labels give statistically
    independent streams and the mapping is stable across runs and machines.
    """
    digest = hashlib.sha256(f"{root_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & 0x7FFF_FFFF_FFFF_FFFF


def make_rng(root_seed: int = DEFAULT_SEED, label: str = "") -> np.random.Generator:
    """Create a deterministic generator for the given stream label."""
    return np.random.default_rng(derive_seed(root_seed, label))


def backoff_delay(
    round_no: int,
    label: str,
    base: float,
    cap: float,
    seed: int = DEFAULT_SEED,
) -> float:
    """Deterministic exponential backoff with seeded jitter.

    Returns the delay before attempt round ``round_no`` (1-based):
    ``min(cap, base * 2**(round_no-1))`` scaled by a jitter in
    ``[0.5, 1.0]`` drawn from the ``(seed, label)`` stream — so a given
    retry site backs off identically on every run and machine, while
    distinct sites (different labels) never synchronize.  A
    non-positive ``base`` disables backoff entirely.  Shared by the
    scheduler's retry rounds, the single-flight lease polling, and the
    net store client's request retries.
    """
    if base <= 0:
        return 0.0
    jitter = 0.5 + 0.5 * float(make_rng(seed, label).random())
    return min(cap, base * (2 ** (round_no - 1))) * jitter
