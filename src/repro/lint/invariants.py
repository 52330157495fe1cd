"""Runtime protocol invariant checker for WL-Cache (the paper's §5).

The linter in :mod:`repro.lint.rules` checks guest *programs*; this module
checks the *simulator* - it turns the WL-Cache correctness argument into
assertions evaluated at every protocol step:

==== =================== =================================================
ID   name                invariant
==== =================== =================================================
I001 dirty-bound         dirty-line count <= maxline after every store
I002 queue-bound         DirtyQueue occupancy <= maxline after every store
I003 dirty-coverage      every dirty line is named by a *non-in-flight*
                         DirtyQueue entry (a line re-dirtied between the
                         §5.3 clean-mark and the write-back ACK must have
                         inserted a fresh entry)
I004 pending-coherence   every in-flight write-back's queue entry is
                         flagged in-flight and still resident in the queue
I005 threshold-order     0 <= waterline <= maxline <= |DirtyQueue| at all
                         times, including every reconfiguration (boot-time
                         adaptive and run-time dynamic raises alike)
I006 flush-complete      a JIT checkpoint leaves no dirty line, no queue
                         entry, and no un-ACKed write-back behind
==== =================== =================================================

The checker attaches by *shadowing instance attributes* with wrapper
closures (``store_masked``, ``set_thresholds``, ``flush_for_checkpoint``).
The interpreter and the system loop resolve these methods through the
instance, so the wrappers are picked up automatically - and a design
without a checker attached pays nothing: no flag tests, no indirection,
not one extra bytecode on the hot store path.

Enable via ``SimConfig(check_invariants=True)`` or ``REPRO_CHECK=1`` in
the environment (the latter reaches parallel sweep workers too).
"""

from __future__ import annotations

from repro.core.wl_cache import WLCache
from repro.errors import InvariantViolation
from repro.sim.policy import CHECK_ENV, env_flag


def invariants_enabled() -> bool:
    """True when ``REPRO_CHECK`` requests invariant checking."""
    return env_flag(CHECK_ENV)


class InvariantChecker:
    """Asserts the WL-Cache protocol invariants on a live cache instance.

    Attributes:
        checks: Number of invariant evaluations performed (each wrapped
            protocol call counts once; surfaced as
            ``RunResult.invariant_checks``).
    """

    def __init__(self, cache: WLCache):
        self.cache = cache
        self.checks = 0

    # ------------------------------------------------------------------
    def attach(self) -> "InvariantChecker":
        """Shadow the protocol methods with checking wrappers."""
        cache = self.cache
        orig_store = cache.store_masked
        orig_set = cache.set_thresholds
        orig_flush = cache.flush_for_checkpoint

        def store_masked(addr, bits, mask, now):
            cycles = orig_store(addr, bits, mask, now)
            self.check_store_state()
            return cycles

        def set_thresholds(maxline, waterline=None):
            orig_set(maxline, waterline)
            self.checks += 1
            self._check_thresholds("after set_thresholds")
            return None

        def flush_for_checkpoint(now):
            report = orig_flush(now)
            self.check_flushed_state()
            return report

        cache.store_masked = store_masked
        cache.set_thresholds = set_thresholds
        cache.flush_for_checkpoint = flush_for_checkpoint
        cache._invariant_checker = self
        return self

    # ------------------------------------------------------------------
    def _fail(self, rule: str, name: str, message: str) -> None:
        raise InvariantViolation(
            f"[{rule} {name}] {self.cache.name}: {message}")

    def _check_thresholds(self, when: str) -> None:
        cache = self.cache
        if not (0 <= cache.waterline <= cache.maxline <= cache.dq.capacity):
            self._fail("I005", "threshold-order",
                       f"{when}: need 0 <= waterline <= maxline <= "
                       f"|DirtyQueue|, got waterline={cache.waterline}, "
                       f"maxline={cache.maxline}, "
                       f"capacity={cache.dq.capacity}")

    def check_store_state(self) -> None:
        """I001-I005, evaluated after every store retires."""
        self.checks += 1
        cache = self.cache
        dq = cache.dq
        maxline = cache.maxline
        if dq.occupancy > maxline:
            self._fail("I002", "queue-bound",
                       f"DirtyQueue holds {dq.occupancy} entries after a "
                       f"store, exceeding maxline={maxline}")
        dirty = cache.array.dirty_lines()
        if len(dirty) > maxline:
            self._fail("I001", "dirty-bound",
                       f"{len(dirty)} dirty lines after a store, exceeding "
                       f"maxline={maxline} - the JIT checkpoint reserve "
                       f"no longer covers the cache")
        covered = {e.lineno for e in dq.entries if not e.in_flight}
        for line in dirty:
            if line.tag not in covered:
                self._fail("I003", "dirty-coverage",
                           f"line {line.tag} is dirty but has no "
                           f"non-in-flight DirtyQueue entry (re-dirtied "
                           f"after the §5.3 clean-mark without a fresh "
                           f"insert?)")
        entries = dq.entries
        for p in cache.pending:
            if not p.entry.in_flight:
                self._fail("I004", "pending-coherence",
                           f"write-back of line {p.lineno} is pending but "
                           f"its queue entry is not flagged in-flight")
            if p.entry not in entries:
                self._fail("I004", "pending-coherence",
                           f"write-back of line {p.lineno} is pending but "
                           f"its queue entry left the DirtyQueue before "
                           f"the ACK (§5.3 step 4 violated)")
        self._check_thresholds("after a store")

    def check_flushed_state(self) -> None:
        """I006, evaluated after every JIT checkpoint flush."""
        self.checks += 1
        cache = self.cache
        dirty = cache.array.dirty_lines()
        if dirty:
            self._fail("I006", "flush-complete",
                       f"{len(dirty)} lines still dirty after the JIT "
                       f"checkpoint flush (first: line {dirty[0].tag})")
        if cache.dq.occupancy:
            self._fail("I006", "flush-complete",
                       f"DirtyQueue still holds {cache.dq.occupancy} "
                       f"entries after the JIT checkpoint flush")
        if cache.pending:
            self._fail("I006", "flush-complete",
                       f"{len(cache.pending)} write-backs still un-ACKed "
                       f"after the JIT checkpoint flush")


def attach_invariants(design) -> InvariantChecker | None:
    """Attach an :class:`InvariantChecker` if ``design`` is a WL-Cache
    (variants included); returns it, or None for other designs."""
    if not isinstance(design, WLCache):
        return None
    return InvariantChecker(design).attach()
