"""Execution policy: every opt-in tier switch, resolved in one place.

Six switches select how a run executes. Each is a :class:`~repro.sim.
config.SimConfig` field plus a ``REPRO_*`` environment variable, and a
switch is on when either is:

===============  ====================  ======================
policy name      ``SimConfig`` field   environment variable
===============  ====================  ======================
``memfast``      ``memfast``           ``REPRO_MEMFAST``
``batch``        ``batch``             ``REPRO_BATCH``
``lockstep``     ``lockstep``          ``REPRO_LOCKSTEP``
``trace``        ``trace``             ``REPRO_TRACE``
``check``        ``check_invariants``  ``REPRO_CHECK``
``result_memo``  ``result_cache``      ``REPRO_RESULT_CACHE``
===============  ====================  ======================

One parse rule covers every variable (:func:`env_flag`): unset, or a
value that strips to ``""`` or ``"0"``, is off; anything else is on.

This module depends on nothing else in ``repro``, so the simulator can
decide which tier packages to load before loading any of them:
:func:`repro.sim.factory.build_system` resolves one policy per call and
:func:`repro.sim.parallel.run_tasks` one environment read per call, and
each imports a tier package only inside the branch that selects it.
"""

from __future__ import annotations

import os
from typing import NamedTuple

MEMFAST_ENV = "REPRO_MEMFAST"
BATCH_ENV = "REPRO_BATCH"
LOCKSTEP_ENV = "REPRO_LOCKSTEP"
TRACE_ENV = "REPRO_TRACE"
CHECK_ENV = "REPRO_CHECK"
RESULT_MEMO_ENV = "REPRO_RESULT_CACHE"

#: The persistent store's root and its legacy alias
#: (:func:`repro.store.store_root`). Not switches, but pool workers
#: inherit them with the switches.
STORE_ENV = "REPRO_CACHE_DIR"
LEGACY_STORE_ENV = "REPRO_STREAM_CACHE"

#: policy name -> (``SimConfig`` field, environment variable)
SWITCHES: dict[str, tuple[str, str]] = {
    "memfast": ("memfast", MEMFAST_ENV),
    "batch": ("batch", BATCH_ENV),
    "lockstep": ("lockstep", LOCKSTEP_ENV),
    "trace": ("trace", TRACE_ENV),
    "check": ("check_invariants", CHECK_ENV),
    "result_memo": ("result_cache", RESULT_MEMO_ENV),
}


def env_flag(var: str) -> bool:
    """The one parse rule: off when unset or stripping to "" or "0"."""
    return os.environ.get(var, "").strip() not in ("", "0")


class ExecutionPolicy(NamedTuple):
    """Which opt-in tiers one run (or one sweep's environment) selects.

    A named tuple rather than a frozen dataclass: every ``repro``
    process imports this module, and a tuple class is several times
    cheaper to create."""

    memfast: bool = False
    batch: bool = False
    lockstep: bool = False
    trace: bool = False
    check: bool = False
    result_memo: bool = False

    @property
    def observed(self) -> bool:
        """The trace recorder or the invariant checker is on. Both must
        see every memory call and chunk, so batch replay, lockstep and
        the result memo stand down (memfast stands down by itself when
        it finds the wrapped methods)."""
        return self.trace or self.check

    @property
    def batches(self) -> bool:
        """The batch engine serves this run."""
        return self.batch and not self.observed

    @property
    def memoizes(self) -> bool:
        """The result memo serves this run."""
        return self.result_memo and not self.observed

    def with_config(self, config) -> ExecutionPolicy:
        """This policy plus every switch ``config``'s own field turns on."""
        if config is None:
            return self
        return ExecutionPolicy(*(
            on or bool(getattr(config, SWITCHES[name][0], False))
            for name, on in zip(self._fields, self)))


def resolve(config=None) -> ExecutionPolicy:
    """The policy for a run under ``config`` (None: the environment's)."""
    env = ExecutionPolicy(**{name: env_flag(var)
                             for name, (_, var) in SWITCHES.items()})
    return env.with_config(config)
