"""Memoized simulation results: program hash x design x config -> RunResult.

The simulator is deterministic per ``(program content, design, trace,
SimConfig, scale)`` point - the differential tests enforce it across
every execution tier - so a finished :class:`~repro.sim.results.
RunResult` is itself a content-addressed artifact. This module memoizes
results through the store: :func:`lookup_task` is consulted by every
single-task funnel (:func:`repro.sim.parallel.run_task`, the batch
engine's :func:`~repro.batch.engine.iter_outcomes` pre-pass, and via
those the sweep/campaign engines), and :func:`store_task` persists
fresh results on the way out.

Memoization is **opt-in** (``SimConfig(result_cache=True)`` or
``REPRO_RESULT_CACHE=1``), like the other tiers, because a memoized
result is *stats-only*: the payload rides the existing
:mod:`repro.analysis.stats_io` serialization plus ``final_regs``, and
deliberately drops ``final_memory`` (megabytes of ground truth per
point). Crash-consistency instead rides a ``verified`` flag: an entry
written by a ``verify=True`` run satisfies a later ``verify=True``
lookup without re-simulating, while a ``verify=True`` lookup *ignores*
unverified entries. Trace-recorder and invariant-checker runs are never
memoized (their side channels - metrics, check counts - are the point
of the run), mirroring the memfast/batch stand-down rules.

Keys embed :func:`repro.store.keys.package_fingerprint` - the content
hash of the whole ``repro`` package - so *any* code change invalidates
every memoized result; only the ``result_cache`` flag itself is
normalized out of the config (an env-enabled and a flag-enabled run
share entries).
"""

from __future__ import annotations

from repro.sim.parallel import task_config
from repro.sim.policy import resolve
from repro.store.core import get_store
from repro.store.keys import package_fingerprint

_CLS = "result"
_PAYLOAD_VERSION = 1


def result_cache_enabled(config=None) -> bool:
    """True when this run opts into result memoization."""
    return resolve(config).result_memo


def _task_key(task, config) -> tuple:
    from repro.cpu.core import program_content_key
    from repro.workloads import build_workload

    program = build_workload(task.workload, task.scale)
    if getattr(config, "result_cache", False):
        config = config.with_(result_cache=False)
    return ("result", _PAYLOAD_VERSION, package_fingerprint(),
            program_content_key(program), task.design, task.trace,
            task.scale, config)


def result_to_payload(result, verified: bool) -> dict:
    """The stored form: stats_io dict + final_regs + the verified flag."""
    from repro.analysis.stats_io import result_to_dict

    return {"stats": result_to_dict(result, include_periods=True),
            "final_regs": list(result.final_regs),
            "verified": bool(verified)}


def result_from_payload(payload: dict):
    """Rebuild a stats-only RunResult (``final_memory`` stays None)."""
    from repro.analysis.stats_io import result_from_dict

    result = result_from_dict(payload["stats"])
    result.final_regs = list(payload.get("final_regs", []))
    return result


def lookup_task(task):
    """A memoized RunResult for this task, or None.

    None whenever the store is disabled, the task does not opt in, the
    task is ineligible (trace/checker), the entry is absent or corrupt,
    or the task wants verification the entry cannot vouch for.
    """
    store = get_store()
    if store is None:
        return None
    try:
        config = task_config(task)
    except Exception:
        return None  # invalid overrides: the run path raises the error
    if not resolve(config).memoizes:
        return None
    payload = store.load(_CLS, _task_key(task, config))
    if not isinstance(payload, dict) or "stats" not in payload:
        return None
    if task.verify and not payload.get("verified"):
        return None
    try:
        return result_from_payload(payload)
    except Exception:
        return None


def store_task(task, result) -> bool:
    """Persist a fresh result (no-op unless enabled and eligible).

    An existing entry is left alone unless this run verified and the
    entry might not have (verified runs may upgrade, unverified runs
    never downgrade).
    """
    store = get_store()
    if store is None:
        return False
    try:
        config = task_config(task)
    except Exception:
        return False
    if not resolve(config).memoizes:
        return False
    key = _task_key(task, config)
    if not task.verify and store.contains(_CLS, key):
        return False
    return store.save(_CLS, key, result_to_payload(result, task.verify))
