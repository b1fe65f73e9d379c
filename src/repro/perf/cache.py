"""Content-addressed artifact cache for the CoSMIC toolchain.

Every expensive artifact the stack produces — a :class:`Translation`, an
:class:`AcceleratorPlan`, a :class:`CompiledProgram` — is a pure function
of its inputs: the DSL source text, the dimension bindings, the chip
specification, the mini-batch size, and the cost-model parameters. This
module keys artifacts by a SHA-256 fingerprint of exactly those inputs
and memoizes them across :class:`CosmicStack`/:class:`CosmicSystem`
instances, so a figure sweep that touches the same (benchmark, chip,
minibatch) point twice pays for it once.

Two tiers:

* **in-memory** — a process-wide dict, always available, shared by every
  caller (the figure harness fans sweep points out over threads, so all
  workers hit one cache).
* **on-disk** (optional) — plans and compiled programs persist under a
  cache directory keyed by fingerprint. Payloads are pickled for exact
  reconstruction; compiled programs additionally get a diff-able JSON
  sidecar rendered by :mod:`repro.compiler.serialize` (the same artifact
  format a deployment ships), and plans get one via :func:`plan_to_dict`.

Enable persistence with :func:`configure_cache` or the ``REPRO_CACHE_DIR``
environment variable; disable caching entirely with ``REPRO_CACHE_DISABLE=1``
or the :func:`cache_disabled` context manager (the perf harness uses it to
measure the uncached path).
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from . import env as _env

#: Artifact kinds that persist to disk when a cache directory is set.
#: Translations stay memory-only: they are cheap to recompute and carry
#: the whole AST/symbol table, which is not a deployment artifact.
_DISK_KINDS = ("plan", "compile")


# ---------------------------------------------------------------------------
# Fingerprinting
# ---------------------------------------------------------------------------


def _canonical(part: Any) -> Any:
    """Reduce ``part`` to a deterministic, hash-stable structure."""
    if part is None or isinstance(part, (bool, int, str)):
        return part
    if isinstance(part, float):
        return repr(part)  # repr round-trips doubles exactly
    if dataclasses.is_dataclass(part) and not isinstance(part, type):
        return (
            type(part).__name__,
            tuple(
                (f.name, _canonical(getattr(part, f.name)))
                for f in dataclasses.fields(part)
            ),
        )
    if isinstance(part, Mapping):
        return tuple(
            (str(k), _canonical(v)) for k, v in sorted(part.items())
        )
    if isinstance(part, (tuple, list, set, frozenset)):
        items = sorted(part) if isinstance(part, (set, frozenset)) else part
        return tuple(_canonical(v) for v in items)
    raise TypeError(f"cannot fingerprint {type(part).__name__!r}")


def fingerprint(*parts: Any) -> str:
    """SHA-256 hex digest of the canonical form of ``parts``.

    Accepts strings, numbers, mappings, sequences, and (nested)
    dataclasses — enough to address any artifact by (DSL program, chip
    spec, minibatch, CostParams) as the cache requires.
    """
    digest = hashlib.sha256(repr(_canonical(parts)).encode("utf-8"))
    return digest.hexdigest()


def dfg_fingerprint(dfg) -> str:
    """Content fingerprint of a dataflow graph.

    Covers values (ids, names, categories, axes, producers, constants,
    gradient flags), nodes (ops, operands, reduce axes), axis extents,
    and named outputs — everything the Planner and Compiler read. The
    digest is memoized on the graph object; graphs are append-only during
    construction and treated as immutable afterwards, so the memo is safe.
    """
    cached = getattr(dfg, "_perf_fingerprint", None)
    if cached is not None:
        return cached
    payload = (
        tuple(
            (
                v.vid, v.name, v.category, v.axes, v.producer,
                repr(v.const_value), v.is_gradient,
            )
            for v in dfg.values.values()
        ),
        tuple(
            (n.nid, n.op, n.inputs, n.output, n.reduce_axes)
            for n in dfg.nodes.values()
        ),
        tuple(sorted(dfg.extents.items())),
        tuple(sorted(dfg.outputs.items())),
    )
    digest = fingerprint(payload)
    dfg._perf_fingerprint = digest
    return digest


# ---------------------------------------------------------------------------
# The cache
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class CacheStats:
    """Hit/miss accounting, split by tier."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    stores: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.disk_hits

    def hit_rate(self) -> float:
        total = self.lookups
        return (self.hits + self.disk_hits) / total if total else 0.0


@dataclasses.dataclass(frozen=True)
class DiskEntry:
    """One persisted artifact: the pickle plus its optional sidecar."""

    kind: str
    key: str
    path: Path
    bytes: int
    mtime: float


class ArtifactCache:
    """Two-tier (memory + optional disk) content-addressed artifact store.

    The disk tier is LRU-bounded when ``max_disk_bytes`` is set (or the
    ``REPRO_CACHE_MAX_BYTES`` environment variable): every store evicts
    least-recently-used entries (pickle + sidecar together) until the
    tier fits, and every disk hit refreshes the entry's recency.
    """

    def __init__(
        self,
        disk_dir: Optional[Path] = None,
        enabled: bool = True,
        max_disk_bytes: Optional[int] = None,
    ):
        self._memory: Dict[Tuple[str, str], Any] = {}
        self._lock = threading.RLock()
        self.disk_dir = Path(disk_dir) if disk_dir else None
        self.enabled = enabled
        self.max_disk_bytes = max_disk_bytes
        self.stats = CacheStats()

    # -- generic interface ------------------------------------------------
    def get_or_compute(
        self,
        kind: str,
        key: str,
        compute: Callable[[], Any],
        sidecar: Optional[Callable[[Any], Dict]] = None,
    ) -> Any:
        """Return the ``kind`` artifact for ``key``, computing on miss.

        Args:
            kind: artifact family (``"translate"``, ``"plan"``,
                ``"compile"``); disk persistence applies per family.
            key: content fingerprint of every input (see :func:`fingerprint`).
            compute: thunk producing the artifact on a miss.
            sidecar: optional renderer producing a JSON-able dict written
                next to the pickled payload (diff-able artifact record).
        """
        if not self.enabled:
            return compute()
        slot = (kind, key)
        with self._lock:
            if slot in self._memory:
                self.stats.hits += 1
                return self._memory[slot]
        artifact = self._disk_load(kind, key)
        if artifact is not None:
            with self._lock:
                self.stats.disk_hits += 1
                self._memory[slot] = artifact
            return artifact
        artifact = compute()
        with self._lock:
            self.stats.misses += 1
            self.stats.stores += 1
            self._memory[slot] = artifact
        self._disk_store(kind, key, artifact, sidecar)
        return artifact

    def clear(self, memory: bool = True, disk: bool = False):
        """Drop cached artifacts (stats reset with the memory tier)."""
        with self._lock:
            if memory:
                self._memory.clear()
                self.stats = CacheStats()
        if disk and self.disk_dir is not None:
            for kind in _DISK_KINDS:
                folder = self.disk_dir / kind
                if folder.is_dir():
                    for path in folder.iterdir():
                        path.unlink()

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    # -- disk tier ---------------------------------------------------------
    def _disk_path(self, kind: str, key: str) -> Optional[Path]:
        if self.disk_dir is None or kind not in _DISK_KINDS:
            return None
        return self.disk_dir / kind / f"{key}.pkl"

    def _disk_load(self, kind: str, key: str) -> Optional[Any]:
        path = self._disk_path(kind, key)
        if path is None or not path.is_file():
            return None
        try:
            with path.open("rb") as fh:
                artifact = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            return None  # treat a corrupt entry as a miss
        try:
            os.utime(path, None)  # refresh LRU recency
        except OSError:
            pass
        return artifact

    def _disk_store(
        self,
        kind: str,
        key: str,
        artifact: Any,
        sidecar: Optional[Callable[[Any], Dict]],
    ):
        path = self._disk_path(kind, key)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".pkl.tmp")
        with tmp.open("wb") as fh:
            pickle.dump(artifact, fh, protocol=pickle.HIGHEST_PROTOCOL)
        tmp.replace(path)  # atomic within one filesystem
        if sidecar is not None:
            import json

            side = path.with_suffix(".json")
            side.write_text(json.dumps(sidecar(artifact), indent=2))
        if self.max_disk_bytes is not None:
            self.prune_disk(self.max_disk_bytes, keep_latest=True)

    # -- disk-tier accounting / eviction ------------------------------------
    def disk_entries(self) -> list:
        """Every persisted artifact, as :class:`DiskEntry` records."""
        entries = []
        if self.disk_dir is None:
            return entries
        for kind in _DISK_KINDS:
            folder = self.disk_dir / kind
            if not folder.is_dir():
                continue
            for path in sorted(folder.glob("*.pkl")):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                nbytes = stat.st_size
                side = path.with_suffix(".json")
                if side.is_file():
                    try:
                        nbytes += side.stat().st_size
                    except OSError:
                        pass
                entries.append(
                    DiskEntry(
                        kind=kind,
                        key=path.stem,
                        path=path,
                        bytes=nbytes,
                        mtime=stat.st_mtime,
                    )
                )
        return entries

    def disk_usage(self) -> Dict[str, Tuple[int, int]]:
        """Per-kind ``(entry_count, bytes)`` of the disk tier."""
        usage: Dict[str, Tuple[int, int]] = {}
        for entry in self.disk_entries():
            count, nbytes = usage.get(entry.kind, (0, 0))
            usage[entry.kind] = (count + 1, nbytes + entry.bytes)
        return usage

    def prune_disk(
        self, max_bytes: Optional[int] = None, keep_latest: bool = False
    ) -> list:
        """Evict least-recently-used disk entries until the tier fits.

        ``max_bytes`` defaults to the cache's configured cap; with no cap
        at all this is a no-op unless ``max_bytes=0`` is passed to clear
        everything. ``keep_latest`` protects the most recently touched
        entry (the store that triggered the eviction must survive it).
        Returns the evicted :class:`DiskEntry` records.
        """
        cap = self.max_disk_bytes if max_bytes is None else max_bytes
        if cap is None:
            return []
        entries = sorted(self.disk_entries(), key=lambda e: e.mtime)
        total = sum(e.bytes for e in entries)
        if keep_latest and entries:
            entries = entries[:-1]
        evicted = []
        for entry in entries:
            if total <= cap:
                break
            for path in (entry.path, entry.path.with_suffix(".json")):
                try:
                    path.unlink()
                except FileNotFoundError:
                    pass
            total -= entry.bytes
            evicted.append(entry)
        with self._lock:
            self.stats.evictions += len(evicted)
        return evicted


# ---------------------------------------------------------------------------
# Process-wide cache
# ---------------------------------------------------------------------------

_GLOBAL = ArtifactCache(
    disk_dir=_env.cache_dir(),
    enabled=_env.cache_enabled(),
    max_disk_bytes=_env.cache_max_bytes(),
)


def get_cache() -> ArtifactCache:
    """The process-wide artifact cache every layer shares."""
    return _GLOBAL


def configure_cache(
    disk_dir: Optional[Path] = None,
    enabled: Optional[bool] = None,
    max_disk_bytes: Optional[int] = None,
) -> ArtifactCache:
    """Adjust the global cache (persistence directory, on-off, size cap)."""
    if disk_dir is not None:
        _GLOBAL.disk_dir = Path(disk_dir)
    if enabled is not None:
        _GLOBAL.enabled = enabled
    if max_disk_bytes is not None:
        _GLOBAL.max_disk_bytes = max_disk_bytes
    return _GLOBAL


@contextmanager
def cache_disabled():
    """Temporarily bypass the global cache (uncached measurements)."""
    was = _GLOBAL.enabled
    _GLOBAL.enabled = False
    try:
        yield
    finally:
        _GLOBAL.enabled = was


# ---------------------------------------------------------------------------
# Memoized entry points
# ---------------------------------------------------------------------------


def cached_translate(source: str, bindings: Optional[Mapping[str, int]]):
    """Parse + translate ``source`` under ``bindings``, memoized.

    The hot path of every figure sweep: ``Benchmark.model_bytes``,
    ``bytes_per_sample``, the Spark baseline, and the platform factories
    all re-translate the same five DSL programs; one global cache entry
    per (program, bindings) collapses them.
    """
    from ..dfg.translate import translate
    from ..dsl import parse

    bindings = dict(bindings or {})
    key = fingerprint("translate", source, bindings)
    return get_cache().get_or_compute(
        "translate", key, lambda: translate(parse(source), bindings)
    )


def plan_cache_key(
    chip,
    params,
    dfg,
    minibatch: int,
    density: Optional[Mapping[str, float]],
    stream_words: Optional[float],
) -> str:
    """Fingerprint of every input :meth:`Planner.plan` reads."""
    return fingerprint(
        "plan",
        chip,
        params,
        dfg_fingerprint(dfg),
        minibatch,
        dict(density or {}),
        stream_words,
    )


def compile_cache_key(
    dfg, rows: int, columns: int, max_nodes: int, optimize_graph: bool
) -> str:
    """Fingerprint of every input :meth:`CosmicStack.compile` reads."""
    return fingerprint(
        "compile", dfg_fingerprint(dfg), rows, columns, max_nodes,
        optimize_graph,
    )


# ---------------------------------------------------------------------------
# Plan (de)serialization — the disk sidecar format
# ---------------------------------------------------------------------------


def plan_to_dict(plan) -> Dict:
    """Render an :class:`AcceleratorPlan` as a JSON-able dict."""
    return {
        "chip": dataclasses.asdict(plan.chip),
        "design": dataclasses.asdict(plan.design),
        "thread_estimate": {
            "work_cycles": plan.thread_estimate.work_cycles,
            "comm_cycles": plan.thread_estimate.comm_cycles,
            "critical_path": plan.thread_estimate.critical_path,
            "per_node": {
                str(nid): cycles
                for nid, cycles in plan.thread_estimate.per_node.items()
            },
        },
        "data_words_per_sample": plan.data_words_per_sample,
        "model_words": plan.model_words,
        "gradient_words": plan.gradient_words,
        "minibatch": plan.minibatch,
        "storage_per_thread_bytes": plan.storage_per_thread_bytes,
        "params": dataclasses.asdict(plan.params),
    }


def plan_from_dict(payload: Mapping):
    """Reconstruct an :class:`AcceleratorPlan` from :func:`plan_to_dict`."""
    from ..hw.spec import ChipSpec
    from ..planner.estimator import CostParams, ThreadEstimate
    from ..planner.plan import AcceleratorPlan, DesignPoint

    estimate = payload["thread_estimate"]
    return AcceleratorPlan(
        chip=ChipSpec(**payload["chip"]),
        design=DesignPoint(**payload["design"]),
        thread_estimate=ThreadEstimate(
            work_cycles=estimate["work_cycles"],
            comm_cycles=estimate["comm_cycles"],
            critical_path=estimate["critical_path"],
            per_node={
                int(nid): cycles
                for nid, cycles in estimate["per_node"].items()
            },
        ),
        data_words_per_sample=payload["data_words_per_sample"],
        model_words=payload["model_words"],
        gradient_words=payload["gradient_words"],
        minibatch=payload["minibatch"],
        storage_per_thread_bytes=payload["storage_per_thread_bytes"],
        params=CostParams(**payload["params"]),
    )
