"""Cache model selection: reference oracle vs fast hash-resident twins.

The simulator's memory hierarchy has two interchangeable
implementations:

* :mod:`repro.gpu.refmodel` — the original dict-based models, kept
  deliberately transparent.  They are the *golden oracle* for the
  differential harness in ``tests/differential/``.
* :mod:`repro.gpu.fastpath` — hash-resident reimplementations (one
  line-to-ready-time dict per cache beside per-set recency lists)
  plus the fused wave executor over precompiled access streams.  Bit-identical to the reference (fuzzed on every CI
  run) and the default for all sweeps.

This module keeps the long-standing import site stable: the reference
classes, :class:`CacheStats` and the :func:`make_l1`/:func:`make_l2`
builders all still live at ``repro.gpu.cache``; the builders grew a
``fast`` flag that selects the implementation.
"""

from __future__ import annotations

import os

from repro.gpu.config import WritePolicy
from repro.gpu.fastpath import FastSectoredCache, FastSetAssociativeCache
from repro.gpu.refmodel import CacheStats, SectoredCache, SetAssociativeCache

__all__ = [
    "CacheStats", "SetAssociativeCache", "SectoredCache",
    "FastSetAssociativeCache", "FastSectoredCache",
    "make_l1", "make_l2", "default_fast",
]

#: Environment kill switch: ``REPRO_FAST_MODEL=0`` forces the reference
#: models everywhere (the CLI's ``--ref-model`` flag sets it so worker
#: processes inherit the choice).
FAST_MODEL_ENV = "REPRO_FAST_MODEL"


def default_fast() -> bool:
    """Whether the fast path is the process-wide default (it is)."""
    return os.environ.get(FAST_MODEL_ENV, "1") != "0"


def make_l1(config, assoc: int = 4, fast: bool = None):
    """Build the per-SM L1 (or L1/Tex unified) cache for a platform."""
    if fast is None:
        fast = default_fast()
    cls = FastSectoredCache if fast else SectoredCache
    sectors = config.l1_sectors if config.l1_sectors > 1 else 1
    return cls(config.l1_size, config.l1_line, assoc, sectors,
               WritePolicy.WRITE_EVICT)


def make_l2(config, assoc: int = 8, fast: bool = None):
    """Build the shared L2 cache for a platform (random replacement)."""
    if fast is None:
        fast = default_fast()
    cls = FastSetAssociativeCache if fast else SetAssociativeCache
    return cls(config.l2_size, config.l2_line, assoc,
               WritePolicy.WRITE_BACK_ALLOCATE, random_replacement=True)
