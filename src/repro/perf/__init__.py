"""Cross-layer performance subsystem: artifact cache + sweep parallelism.

Two tools that make the stack fast *about itself*, plus the knob parser
they share:

* :mod:`repro.perf.cache` — a content-addressed artifact cache memoizing
  Translations, AcceleratorPlans, and CompiledPrograms across stack and
  system instances, with optional on-disk persistence.
* :mod:`repro.perf.parallel` — an in-process sweep executor (a thread
  pool, with a deterministic serial fallback) that fans out independent
  sweep points in the experiment harness and the Planner's design-space
  exploration.
* :mod:`repro.perf.env` — centralized, validated parsing of every
  ``REPRO_*`` environment flag.

The perf-regression harness that times the stack against a committed
baseline lives in :mod:`repro.bench.perf` (``python -m repro perf``).
"""

from .cache import (
    ArtifactCache,
    CacheStats,
    DiskEntry,
    cache_disabled,
    cached_translate,
    configure_cache,
    dfg_fingerprint,
    fingerprint,
    get_cache,
    plan_from_dict,
    plan_to_dict,
)
from .env import EnvError
from .parallel import (
    SweepExecutor,
    default_executor,
    set_default_executor,
)

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "DiskEntry",
    "EnvError",
    "SweepExecutor",
    "cache_disabled",
    "cached_translate",
    "configure_cache",
    "default_executor",
    "dfg_fingerprint",
    "fingerprint",
    "get_cache",
    "plan_from_dict",
    "plan_to_dict",
    "set_default_executor",
]
