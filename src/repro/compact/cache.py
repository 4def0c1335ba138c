"""Content-addressed memoisation of compaction results (compact once).

The paper's central economy is hierarchical reuse: a generator builds
large arrays out of a handful of distinct leaf cells, so the expensive
work — constraint generation plus longest-path/LP solving — should be
paid once per *cell type*, not once per *instance* (and ideally once per
*content*, across runs).  :class:`CompactionCache` memoizes
flat passes (a record of the pass's widths, constraint counts and
solver counters, plus its solved columns, which the next pass reads),
hierarchical leaf compactions (the leaf's solved columns and its last
pass record) and leaf-cell solves (the integer pitches and the solved
edge values) under a stable content hash of everything that determines
the outcome:

* the input geometry (box lists in insertion order, hierarchy included),
* the :class:`~repro.compact.rules.DesignRules` content (widths,
  spacings, contact expansion, gate rule — the ``name`` is deliberately
  excluded so renamed-but-identical rule sets share entries),
* for a flat pass: the axis, the width mode and the rubber band,
* for leaf-cell compaction: the registered interfaces (pitch
  constraints) and the pitch cost function.

Entries live in an in-process dict and, when a ``directory`` is given,
as pickle files named by their key — the on-disk form survives the
process, so a re-generation run pays only fingerprinting.

Entries are immutable, so the cache never copies one:
:meth:`CompactionCache.put` stores the tuple it is given and
:meth:`CompactionCache.get` returns it, its numpy columns read-only
(numpy unpickles arrays writeable, so a disk hit is frozen again).
Readers build their own results from an entry.

``cache=None`` everywhere reproduces the uncached behaviour exactly and
is the equivalence oracle for the cached paths.

Every key also carries :data:`FORMAT_VERSION`, the shape of the cached
values: an on-disk entry pickled by a build whose results had another
shape is never found, so it can never be unpickled into this one.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional

import numpy as np

from ..core.cell import CellDefinition
from .rules import DesignRules

__all__ = [
    "FORMAT_VERSION",
    "CacheStats",
    "CompactionCache",
    "cache_key",
    "fingerprint_cell",
    "fingerprint_geometry",
    "fingerprint_rules",
]

#: shape of the cached result values; part of every compaction key.
#: Bump it whenever a cached class changes what it stores.
FORMAT_VERSION = "columns-5"


def cache_key(*parts: Any) -> str:
    """SHA-256 over the ``repr`` of the given parts (order-sensitive)."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\x1f")
    return digest.hexdigest()


def fingerprint_rules(rules: DesignRules) -> str:
    """Stable content hash of a rule set (the ``name`` is excluded).

    Two rule sets with identical widths, spacings, contact expansion and
    gate rule fingerprint identically; any table change produces a new
    key and therefore a cache miss.
    """
    contact = rules.contact
    return cache_key(
        sorted(rules.min_width.items()),
        sorted(rules.min_spacing.items()),
        sorted(
            (tuple(sorted(pair)), value)
            for pair, value in rules.inter_spacing.items()
        ),
        (
            contact.cut_size,
            contact.cut_spacing,
            contact.metal_overlap,
            contact.poly_overlap,
        ),
        rules.gate_width,
    )


def _cell_parts(cell: CellDefinition, memo: Dict[int, str]) -> str:
    known = memo.get(id(cell))
    if known is not None:
        return known
    parts: list = ["boxes"]
    for layer_box in cell.boxes:
        box = layer_box.box
        parts.append((layer_box.layer, box.xmin, box.ymin, box.xmax, box.ymax))
    parts.append("ports")
    for port in cell.ports:
        parts.append((port.name, port.position.x, port.position.y, port.layer))
    parts.append("labels")
    for label in cell.labels:
        parts.append((label.text, label.position.x, label.position.y))
    parts.append("instances")
    for instance in cell.instances:
        child = _cell_parts(instance.definition, memo)
        if instance.is_placed:
            parts.append(
                (
                    child,
                    instance.location.x,
                    instance.location.y,
                    instance.orientation.r,
                    instance.orientation.k,
                )
            )
        else:
            parts.append(("unplaced", child))
    fingerprint = cache_key(*parts)
    memo[id(cell)] = fingerprint
    return fingerprint


def fingerprint_cell(cell: CellDefinition) -> str:
    """Content hash of a cell: geometry, ports, labels, placed subtree.

    The cell *name* is excluded — two cells with identical content
    fingerprint identically, which is what lets a library re-add of the
    same geometry hit the cache.  Box order is part of the content (the
    conservative choice: reordered boxes re-compact rather than risk a
    solver-order-dependent reuse).
    """
    return _cell_parts(cell, {})


def fingerprint_geometry(geometry) -> str:
    """Content hash of a flat layout held as columns.

    ``geometry`` is layout-frame :class:`~repro.compact.scanline.EdgeBoxes`
    (layer names, a layer code and four coordinates per box).  SHA-256
    over the layer names in code order, then the codes and the four
    coordinate columns as contiguous little-endian int64 bytes, so no
    per-box object is built and equal content hashes equally whatever
    the arrays' strides.  Box order is part of the content; ports and
    labels are not, because flat compaction ignores them.
    """
    arrays = geometry.arrays
    digest = hashlib.sha256(repr((tuple(geometry.layers), geometry.count)).encode("utf-8"))
    for column in (geometry.codes, arrays.xmin, arrays.ymin, arrays.xmax, arrays.ymax):
        digest.update(np.ascontiguousarray(column, dtype="<i8").data)
    return digest.hexdigest()


@dataclass
class CacheStats:
    """Counters for one :class:`CompactionCache` instance.

    ``hits`` counts every successful lookup (``disk_hits`` of which were
    promoted from the on-disk store), ``misses`` every lookup that found
    nothing, and the byte counters measure on-disk traffic — what the
    service ``/stats`` endpoint aggregates fleet-wide.
    """

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    locks_broken: int = 0
    write_errors: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups seen (hits plus misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def merge(self, other: "CacheStats") -> None:
        """Accumulate another instance's counters into this one."""
        for name, value in asdict(other).items():
            setattr(self, name, getattr(self, name) + value)

    def diff(self, earlier: "CacheStats") -> "CacheStats":
        """The counter deltas since ``earlier`` (a snapshot of self).

        What a service worker reports fleet-wide after each job: the
        traffic *that job* caused, not the process lifetime totals.
        """
        return CacheStats(
            **{
                name: value - getattr(earlier, name)
                for name, value in asdict(self).items()
            }
        )

    def to_dict(self) -> Dict[str, int]:
        """Plain-dict form for JSON reports (counters only)."""
        return asdict(self)


def _frozen(value: Any) -> Any:
    """``value`` with every numpy array among its items (when it is a
    tuple) made read-only."""
    if isinstance(value, tuple):
        for item in value:
            if isinstance(item, np.ndarray):
                item.flags.writeable = False
    return value


#: a lock file untouched for this long belongs to a dead writer
#: (default; per-instance override via ``stale_lock_seconds`` or the
#: ``REPRO_CACHE_STALE_LOCK_S`` environment variable)
_STALE_LOCK_SECONDS = 30.0

#: chaos seam — when not ``None``, called as ``chaos_hook(site, **ctx)``
#: before every disk read/write so the fault-injection harness
#: (:mod:`repro.service.chaos`) can inject I/O errors without this
#: module importing the service layer
chaos_hook: Optional[Callable[..., Any]] = None


class CompactionCache:
    """In-memory (and optionally on-disk) store of compaction results.

    ``directory`` enables cross-run reuse: every entry is additionally
    pickled to ``<directory>/<key>.pkl`` and lookups fall back to disk
    on an in-memory miss, so a fresh process warm-starts from a previous
    run's results.  The on-disk store is safe for concurrent
    multi-process use (the layout service shares one directory across
    its whole worker fleet): writes are guarded by a per-entry
    ``O_EXCL`` lock file on top of the atomic rename, and a torn or
    unreadable entry reads as a miss, never an error.  A
    :class:`CacheStats` instance (``cache_stats``) makes the reuse
    observable; the legacy ``hits``/``misses``/``disk_hits`` attributes
    remain as read-only views of it.
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        stale_lock_seconds: Optional[float] = None,
    ) -> None:
        """``stale_lock_seconds`` overrides the lock-break window (how
        long an untouched lock file is trusted before it is judged to
        belong to a dead writer); falls back to the
        ``REPRO_CACHE_STALE_LOCK_S`` environment variable, then to the
        30 s default — chaos runs shrink it to exercise the break path
        deterministically."""
        self.directory: Optional[Path] = Path(directory) if directory else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        if stale_lock_seconds is None:
            env = os.environ.get("REPRO_CACHE_STALE_LOCK_S")
            stale_lock_seconds = float(env) if env else _STALE_LOCK_SECONDS
        self.stale_lock_seconds = stale_lock_seconds
        self._memory: Dict[str, Any] = {}
        self.cache_stats = CacheStats()

    def __len__(self) -> int:
        return len(self._memory)

    @property
    def hits(self) -> int:
        """Successful lookups so far (see :attr:`cache_stats`)."""
        return self.cache_stats.hits

    @property
    def misses(self) -> int:
        """Empty lookups so far (see :attr:`cache_stats`)."""
        return self.cache_stats.misses

    @property
    def disk_hits(self) -> int:
        """Hits promoted from the on-disk store (see :attr:`cache_stats`)."""
        return self.cache_stats.disk_hits

    def _path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{key}.pkl"

    def get(self, key: str) -> Optional[Any]:
        """Return the stored entry for ``key``, or ``None``.

        Checks memory first, then the on-disk store; a disk hit is
        promoted into memory with its columns made read-only.
        Unreadable disk entries (partial writes, version skew, a
        concurrent delete) count as misses rather than errors.
        """
        if key in self._memory:
            self.cache_stats.hits += 1
            return self._memory[key]
        if self.directory is not None:
            value, size = self._read_disk(key)
            if value is not None:
                self._memory[key] = _frozen(value)
                self.cache_stats.hits += 1
                self.cache_stats.disk_hits += 1
                self.cache_stats.bytes_read += size
                return value
        self.cache_stats.misses += 1
        return None

    def _read_disk(self, key: str) -> tuple:
        """Load ``key`` from disk; ``(None, 0)`` on any defect.

        Every failure mode of a shared store — the file vanishing
        between the existence check and the read, a torn write from a
        killed process, pickle version skew — degrades to a miss so one
        bad entry can never take a worker down.
        """
        path = self._path(key)
        try:
            if chaos_hook is not None:
                chaos_hook("cache.read_disk", path=str(path))
            payload = path.read_bytes()
            value = pickle.loads(payload)
        except Exception:
            return None, 0
        return value, len(payload)

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key``, its columns made read-only.

        On-disk writes go through a temporary file and ``os.replace`` so
        a concurrent reader never sees a torn entry, and are guarded by
        a per-entry ``O_EXCL`` lock file so two processes never write
        the same entry at once — the loser skips the disk write (the
        key is a content hash, so both hold the same result).  A lock
        left behind by a crashed writer is broken after
        :attr:`stale_lock_seconds` (and counted in
        ``cache_stats.locks_broken``).  Disk-write failures (a full
        disk, a dying device) degrade to a memory-only entry and a
        ``write_errors`` count — the cache is an optimisation, so I/O
        trouble must never fail the job that was being cached.
        """
        self._memory[key] = _frozen(value)
        if self.directory is None:
            return
        path = self._path(key)
        lock = path.with_suffix(".lock")
        if not self._acquire_lock(lock):
            return
        temporary = path.with_suffix(f".tmp{os.getpid()}")
        try:
            if chaos_hook is not None:
                chaos_hook("cache.write_disk", path=str(path))
            payload = pickle.dumps(value)
            temporary.write_bytes(payload)
            os.replace(temporary, path)
            self.cache_stats.bytes_written += len(payload)
        except OSError:
            self.cache_stats.write_errors += 1
            try:
                temporary.unlink()
            except OSError:
                pass
        finally:
            try:
                lock.unlink()
            except OSError:
                pass

    def _acquire_lock(self, lock: Path) -> bool:
        """Try to create ``lock`` exclusively; break it when stale."""
        for _ in range(2):
            try:
                os.close(os.open(str(lock), os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                return True
            except FileExistsError:
                try:
                    age = time.time() - lock.stat().st_mtime
                except OSError:
                    continue  # holder just released it: retry
                if age < self.stale_lock_seconds:
                    return False
                try:
                    lock.unlink()
                    self.cache_stats.locks_broken += 1
                except OSError:
                    return False
            except OSError:
                return False
        return False

    def evict(self, max_bytes: int) -> Dict[str, int]:
        """Shrink the on-disk store below ``max_bytes``, LRU by atime.

        Oldest-used entries (access time, falling back to modification
        time on ``noatime`` mounts) are deleted until the remaining
        pickles fit the budget; leftover temporaries and stale lock
        files from crashed writers are removed unconditionally.  The
        in-memory map is untouched — eviction is a disk-space policy,
        not an invalidation.  Returns ``{"evicted", "freed_bytes",
        "kept_bytes"}``.
        """
        report = {"evicted": 0, "freed_bytes": 0, "kept_bytes": 0}
        if self.directory is None:
            return report
        entries = []
        for path in self.directory.iterdir():
            try:
                stat = path.stat()
            except OSError:
                continue
            if path.suffix == ".pkl":
                entries.append((max(stat.st_atime, stat.st_mtime), stat.st_size, path))
            elif ".tmp" in path.suffix or (
                path.suffix == ".lock"
                and time.time() - stat.st_mtime > self.stale_lock_seconds
            ):
                try:
                    path.unlink()
                except OSError:
                    pass
        entries.sort()
        total = sum(size for _, size, _ in entries)
        for _, size, path in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            report["evicted"] += 1
            report["freed_bytes"] += size
        report["kept_bytes"] = total
        return report

    def stats(self) -> str:
        """One printable line: entries, hits (disk share), misses."""
        return (
            f"cache: {len(self._memory)} entries, {self.hits} hits"
            f" ({self.disk_hits} from disk), {self.misses} misses"
        )
