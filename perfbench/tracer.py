"""Layer spans for the traced benchmark run.

:class:`Tracer` keeps, per span name, the self time (the span's duration
minus the time its child spans cover) and the number of spans closed.
Spans live only in memory; the child writes the totals out when its pass
ends. :func:`install` wraps the public entry points of each simulator
layer from the outside, and returns a function that puts the originals
back. Nothing in ``repro`` is edited, and an untraced process never calls
:func:`install`, so it runs the original functions.
"""

from __future__ import annotations

import builtins
import sys
import time
from collections.abc import Callable
from contextlib import contextmanager

#: Layer span names. Their self times plus the self time of the ``root``
#: span the child opens around its pass add up to the root span.
LAYER_SPANS = (
    "workloads.build",
    "sim.sweep",
    "sim.build_system",
    "energy.make_trace",
    "sim.loop",
    "cpu",
    "caches.access",
    "core.wl_access",
    "caches.checkpoint",
    "energy.trace",
    "verify.checks",
    "verify.oracle",
    "codegen.compile",
)

class Tracer:
    """Stack of open spans plus per-name ``[self ns, closed spans]`` totals."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.totals: dict[str, list[int]] = {}
        #: open spans, innermost last: ``[group, start ns, child ns]``
        self._stack: list[list] = []
        self._muted = False
        #: distinct keys seen per name (e.g. workload builds)
        self.distinct: dict[str, set] = {}

    def _close(self, name: str, frame: list) -> None:
        duration = self.clock() - frame[1]
        acc = self.totals.setdefault(name, [0, 0])
        acc[0] += duration - frame[2]
        acc[1] += 1
        if self._stack:
            self._stack[-1][2] += duration

    @contextmanager
    def span(self, name: str):
        frame = [name, self.clock(), 0]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            self._close(name, frame)

    def wrap(self, fn: Callable, name, group: str | None = None, opaque: bool = False):
        """Return ``fn`` timed as a span.

        ``name`` is a span name, or a function of the first argument that
        returns one. A call made directly inside an open span of the same
        ``group`` (default: ``name``) is not a new span, so a method that
        calls its own layer (``store`` -> ``store_masked``, ``super()``)
        counts once. Inside an ``opaque`` span no other span opens.
        """
        group = group or name
        stack = self._stack

        def traced(*args, **kwargs):
            if self._muted or (stack and stack[-1][0] == group):
                return fn(*args, **kwargs)
            span_name = name if isinstance(name, str) else name(args[0])
            frame = [group, self.clock(), 0]
            stack.append(frame)
            self._muted = opaque
            try:
                return fn(*args, **kwargs)
            finally:
                self._muted = False
                stack.pop()
                self._close(span_name, frame)

        traced.__wrapped__ = fn
        return traced

    def snapshot(self) -> dict:
        """JSON-able totals: ``{name: [self s, spans]}`` and distinct counts."""
        return {
            "spans": {k: [v[0] / 1e9, v[1]] for k, v in self.totals.items()},
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }


def _subclasses(cls: type) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out += [c for c in _subclasses(sub) if c not in out]
    return out


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer entry point; returns the function that undoes it."""
    import repro.sim.factory as factory
    import repro.sim.parallel as parallel
    import repro.sim.sweep as sweep
    from repro.caches.base import CachedMemorySystem
    from repro.core.wl_cache import WLCache
    from repro.cpu.core import InOrderCore
    from repro.energy.traces import PowerTrace
    from repro.mem.memsys import NoCacheNVP
    from repro.sim.system import System
    from repro.workloads.suite import Workload

    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, name, **kw) -> None:
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, name, **kw))

    builds = tracer.distinct.setdefault("workloads.build", set())
    original_build = Workload.build

    def build(self, scale: float = 1.0):
        builds.add((self.name, scale))
        return original_build(self, scale)

    saved.append((Workload, "build", original_build))
    Workload.build = tracer.wrap(build, "workloads.build")

    patch(sweep, "run_grid", "sim.sweep")
    patch(factory, "make_trace", "energy.make_trace")
    patch(System, "run", "sim.loop")
    patch(InOrderCore, "run_chunk", "cpu")
    patch(parallel, "verify_checks", "verify.checks")
    patch(builtins, "compile", "codegen.compile")
    build_system = tracer.wrap(factory.build_system, "sim.build_system")
    # ``repro.cli`` imported ``build_system`` by name; patch it only if loaded
    cli = sys.modules.get("repro.cli")
    for owner in [factory] + ([cli] if cli is not None else []):
        saved.append((owner, "build_system", owner.build_system))
        owner.build_system = build_system
    if cli is not None:
        patch(cli, "check_crash_consistency", "verify.oracle", opaque=True)

    def access_name(design) -> str:
        return "core.wl_access" if isinstance(design, WLCache) else "caches.access"

    for cls in _subclasses(CachedMemorySystem) + [NoCacheNVP]:
        for attr in ("load", "store", "store_masked"):
            if attr in vars(cls):
                patch(cls, attr, access_name, group="caches.access")
        for attr in ("flush_for_checkpoint", "on_power_loss", "on_boot"):
            if attr in vars(cls):
                patch(cls, attr, "caches.checkpoint")
    for cls in _subclasses(PowerTrace):
        for attr in ("energy_nj", "charge_until"):
            if attr in vars(cls):
                patch(cls, attr, "energy.trace")

    def uninstall() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        saved.clear()

    return uninstall
