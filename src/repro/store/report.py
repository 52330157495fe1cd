"""Unified cache reporting: one struct over disk + process caches.

``repro cache stats`` and the warm-cache CI check read everything
through :func:`cache_report`: the store's on-disk usage per artifact
class, this process's store event counters, and the sizes/counters of
every in-memory process-global cache (record-mode code cache, memfast handler
sources, lockstep engines, batch streams, stream expansion metadata,
the shared decode memo, the A009 loaded-source ledger, and the serial
sweep's shared live results).
"""

from __future__ import annotations

from repro.store.core import disk_usage, store_root, store_stats
from repro.store.sources import loaded_source_stats


def cache_report(include_disk: bool = True) -> dict:
    """The whole caching picture as one JSON-able dict."""
    from repro.batch.engine import batch_stats
    from repro.batch.stream import stream_meta_stats
    from repro.cpu.core import decode_cache_stats
    from repro.jit import code_cache_stats
    from repro.lockstep.codegen import engine_cache_stats
    from repro.memfast.handlers import codegen_cache_stats
    from repro.sim.parallel import shared_result_stats

    root = store_root()
    report: dict = {
        "root": root,
        "enabled": root is not None,
        "events": store_stats(),
        "process_caches": {
            "jit": code_cache_stats(),
            "memfast": codegen_cache_stats(),
            "lockstep": engine_cache_stats(),
            "batch": batch_stats(),
            "stream_meta": stream_meta_stats(),
            "decode": decode_cache_stats(),
            "store_loads": loaded_source_stats(),
            "sweep": shared_result_stats(),
        },
    }
    if include_disk and root is not None:
        report["disk"] = disk_usage(root)
    return report
