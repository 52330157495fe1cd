"""On-disk content-addressed artifact store (the warm-start substrate).

Every generated-code cache in the tree (record-mode blocks/suffixes,
memfast handlers, lockstep column engines, batch recordings and stream
skeletons) and every finished :class:`~repro.sim.results.RunResult` is
process-global and dies with the process. This store gives each of them
a durable twin: artifacts live under a *content key* - the full tuple
of inputs that determine the artifact, plus a generator fingerprint
(hash of the generator modules' sources) so any code change silently
invalidates - and a new process loads instead of regenerating.

Layout (versioned, interpreter-stamped)::

    <root>/v<FORMAT>/<interp tag>/<class>/<digest[:2]>/<digest>.bin

where ``<class>`` is one of :data:`CLASSES` and ``digest`` is the
sha256 of the key tuple's repr. Entries are pickles of
``(FORMAT, digest, payload)``; the embedded format and digest are
re-checked on load, so a truncated, corrupt, or misfiled entry is never
an error - it reads as a counted miss and is regenerated. Writes go
through a temp file + :func:`os.replace`, so concurrent writers racing
on one key are safe (last atomic rename wins, readers never see a torn
file) and a crashed writer leaves only a stale ``*.tmp.*`` file for the
next GC.

Enablement: ``REPRO_CACHE_DIR`` names the root (default
``$XDG_CACHE_HOME/repro`` or ``~/.cache/repro``); the values ``0``,
``off``, ``none``, ``disabled`` (or empty) disable the store entirely.
PR 9's ``REPRO_STREAM_CACHE`` survives as a legacy alias: when set, the
whole store roots there (it takes precedence, so existing campaign
shard setups keep working unchanged).

Counters: flat ints (``<class>_hits`` / ``_misses`` / ``_writes`` /
``_corrupt`` plus ``bytes_read`` / ``bytes_written``), shipped home
from pool workers inside the same trailing ``("stats", delta)`` chunk
record the batch engine already uses (:func:`absorb_store_stats`).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import platform
import sys

# the store root override / off switch (see module docs), and the
# legacy recording-cache directory, honoured as a root alias
from repro.sim.policy import LEGACY_STORE_ENV as LEGACY_STREAM_ENV
from repro.sim.policy import STORE_ENV as ENV_VAR

#: On-disk layout version; bumping it orphans (never corrupts) old trees.
FORMAT = 1

#: Artifact classes: generated source text, pickled stream skeletons,
#: raw guest-stream recordings, memoized RunResult payloads.
CLASSES = ("src", "skel", "stream", "result")

_OFF_VALUES = ("0", "off", "none", "disabled")

#: flat event counters (never gauges), absorbable across processes
_STATS: dict[str, int] = {}

#: resolved root -> ArtifactStore (env changes take effect per call)
_ACTIVE: dict[str, "ArtifactStore"] = {}


def _count(key: str, n: int = 1) -> None:
    _STATS[key] = _STATS.get(key, 0) + n


def interp_tag() -> str:
    """``cpython311``-style stamp baked into the layout: artifacts are
    never shared across implementations or minor versions (compiled
    source text is, e.g., bytecode-version-sensitive downstream)."""
    return (f"{platform.python_implementation().lower()}"
            f"{sys.version_info.major}{sys.version_info.minor}")


def store_root() -> str | None:
    """The resolved store root, or None when the store is disabled."""
    legacy = os.environ.get(LEGACY_STREAM_ENV, "").strip()
    if legacy:
        return os.path.expanduser(legacy)
    raw = os.environ.get(ENV_VAR)
    if raw is not None:
        raw = raw.strip()
        if not raw or raw.lower() in _OFF_VALUES:
            return None
        return os.path.expanduser(raw)
    base = os.environ.get("XDG_CACHE_HOME", "").strip() or "~/.cache"
    return os.path.expanduser(os.path.join(base, "repro"))


def key_digest(key_parts: tuple) -> str:
    """sha256 over the key tuple's repr (every part must have a
    deterministic, content-complete repr - ints, strs, floats, tuples,
    frozen dataclasses)."""
    return hashlib.sha256(repr(key_parts).encode()).hexdigest()


class ArtifactStore:
    """One rooted store instance (cheap; holds only paths)."""

    def __init__(self, root: str):
        self.root = root
        self.base = os.path.join(root, f"v{FORMAT}", interp_tag())

    def _path(self, cls: str, digest: str) -> str:
        return os.path.join(self.base, cls, digest[:2], f"{digest}.bin")

    def contains(self, cls: str, key_parts: tuple) -> bool:
        """Existence probe (no stats, no payload read)."""
        return os.path.exists(self._path(cls, key_digest(key_parts)))

    def load(self, cls: str, key_parts: tuple):
        """The stored payload, or None (counted miss). Corruption of any
        kind - truncation, garbage, a mismatched embedded stamp - is a
        counted ``<cls>_corrupt`` miss, never an exception."""
        digest = key_digest(key_parts)
        path = self._path(cls, digest)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError:
            _count(f"{cls}_misses")
            return None
        try:
            rec = pickle.loads(blob)
            ok = (isinstance(rec, tuple) and len(rec) == 3
                  and rec[0] == FORMAT and rec[1] == digest)
        except Exception:
            ok = False
        if not ok:
            _count(f"{cls}_corrupt")
            _count(f"{cls}_misses")
            return None
        _count(f"{cls}_hits")
        _count("bytes_read", len(blob))
        try:
            os.utime(path)  # touch: the GC evicts least-recently-used
        except OSError:
            pass
        return rec[2]

    def save(self, cls: str, key_parts: tuple, payload) -> bool:
        """Atomically persist ``payload``; False (never an error) when
        the artifact cannot be written or pickled."""
        digest = key_digest(key_parts)
        path = self._path(cls, digest)
        try:
            blob = pickle.dumps((FORMAT, digest, payload),
                                protocol=pickle.HIGHEST_PROTOCOL)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            tmp = f"{path}.tmp.{os.getpid()}"
            with open(tmp, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)  # atomic: racing writers never tear
        except Exception:
            return False
        _count(f"{cls}_writes")
        _count("bytes_written", len(blob))
        return True


def get_store() -> ArtifactStore | None:
    """The active store for the current environment, or None (disabled)."""
    root = store_root()
    if root is None:
        return None
    store = _ACTIVE.get(root)
    if store is None:
        store = _ACTIVE[root] = ArtifactStore(root)
    return store


# ---------------------------------------------------------------------------
# stats plumbing (one struct, shipped home like the stream-cache stats)
# ---------------------------------------------------------------------------

def store_stats() -> dict[str, int]:
    """This process's store event counters (flat ints)."""
    return dict(_STATS)


def absorb_store_stats(delta: dict) -> None:
    """Fold a pool worker's counter deltas into this process (rides in
    the same trailing ``("stats", ...)`` chunk record as the batch
    engine's counters; see :func:`repro.sim.parallel._run_chunk`)."""
    for key, value in delta.items():
        if isinstance(value, int) and value:
            _count(key, value)


def reset_store_stats() -> None:
    """Zero the counters (tests/benchmarks)."""
    _STATS.clear()


# ---------------------------------------------------------------------------
# maintenance: usage, GC, clear (the `repro cache` CLI)
# ---------------------------------------------------------------------------

def _iter_entries(root: str):
    """Yield ``(path, size, stamp)`` for every entry (and stray tmp)
    file under every version/interpreter tree of ``root``."""
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            try:
                st = os.stat(path)
            except OSError:
                continue
            yield path, st.st_size, max(st.st_atime, st.st_mtime)


def disk_usage(root: str) -> dict:
    """``{class: {"files": n, "bytes": b}}`` plus totals, across every
    version/interpreter tree under ``root``."""
    per_class: dict[str, dict[str, int]] = {}
    total_files = 0
    total_bytes = 0
    for path, size, _stamp in _iter_entries(root):
        cls = os.path.basename(os.path.dirname(os.path.dirname(path)))
        if cls not in CLASSES:
            cls = "other"
        d = per_class.setdefault(cls, {"files": 0, "bytes": 0})
        d["files"] += 1
        d["bytes"] += size
        total_files += 1
        total_bytes += size
    return {"classes": per_class, "files": total_files,
            "bytes": total_bytes}


def gc_store(root: str, max_bytes: int) -> dict:
    """Evict least-recently-used entries until the tree fits
    ``max_bytes``. Uses ``max(atime, mtime)`` (loads touch their entry,
    so hits count as recency even on noatime mounts). Returns a report:
    removed/kept file and byte counts."""
    entries = sorted(_iter_entries(root), key=lambda e: e[2])
    total = sum(size for _p, size, _s in entries)
    removed_files = 0
    removed_bytes = 0
    for path, size, _stamp in entries:
        if total <= max_bytes:
            break
        try:
            os.remove(path)
        except OSError:
            continue
        total -= size
        removed_files += 1
        removed_bytes += size
    _count("gc_evictions", removed_files)
    return {"removed_files": removed_files, "removed_bytes": removed_bytes,
            "kept_bytes": total, "max_bytes": max_bytes}


def clear_store(root: str) -> int:
    """Remove every entry under ``root`` (the directory skeleton stays);
    returns the number of files removed."""
    removed = 0
    for path, _size, _stamp in list(_iter_entries(root)):
        try:
            os.remove(path)
            removed += 1
        except OSError:
            continue
    return removed
