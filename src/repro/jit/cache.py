"""Process-global record-mode code cache, keyed by program *content*.

A sweep builds one recording per (kernel, cost model) group, and pool
workers rebuild workload programs from scratch, so caching compiled code
on a ``Program`` instance alone would recompile per group. Instead
compiled modules are cached process-globally under a content key -
``(name, mem_bytes, instruction tuple)`` plus the frozen
:class:`CycleCosts` - so a sweep compiles each kernel once per cost model
per process. A per-program ``meta`` shortcut skips even the key lookup
after the first use.

What is cached is the compiled *module code object* (whose ``_bind``
builds the dispatch table); binding executes it in a fresh namespace per
recording, producing cheap function objects closed over that recording's
memory system and exit-code list. Suffix blocks (an indirect ``jalr``
landing on a non-leader pc) are compiled lazily and cached alongside.

When the persistent artifact store is enabled (:mod:`repro.store`),
every rendered source is persisted under its content key + the jit
generator fingerprint, and a cold process *loads* the source text
instead of re-rendering it ("loads"/"suffix_loads" in the stats; the
Python ``compile`` still runs, rendering is what is saved). Loaded
sources land in the A009 audit ledger so ``repro audit`` can prove they
re-render byte-identical.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.cpu.core import program_content_key
from repro.cpu.costs import CycleCosts
from repro.isa.program import Program
from repro.jit.blocks import (block_spans, compile_blocks_source,
                              compile_suffix_source)
from repro.store.sources import jit_fingerprint, load_source, save_source

_COMPILED_KEY = "_jit_compiled"

#: content-key -> CompiledProgram; bounded only by distinct (kernel, cost
#: model) pairs per process, which a sweep keeps small. The cap is a
#: backstop for program-fuzzing tests.
_CODE_CACHE: dict[tuple, "CompiledProgram"] = {}
_CACHE_CAP = 512

_STATS = {"compiles": 0, "hits": 0, "suffix_compiles": 0,
          "loads": 0, "suffix_loads": 0}


class CompiledProgram:
    """Compiled record-mode form of one (program content, cost model)."""

    __slots__ = ("program", "costs", "n", "source", "module_code",
                 "_starts", "_suffix_codes", "suffix_sources")

    def __init__(self, program: Program, costs: CycleCosts,
                 source: str | None = None):
        self.program = program
        self.costs = costs
        self.n = len(program.instructions)
        # a warm start passes the persisted source text
        self.source = (compile_blocks_source(program, costs)
                       if source is None else source)
        self.module_code = compile(
            self.source, f"<jit:{program.name}>", "exec")
        self._starts = sorted(s for s, _e in block_spans(program))
        self._suffix_codes: dict[int, object] = {}
        # lazily-compiled sources, retained so the static codegen
        # auditor (repro audit) can verify exactly what a run executed
        self.suffix_sources: dict[int, str] = {}

    def bind(self, args: tuple) -> list:
        """Instantiate the dispatch table: ``table[leader] = (fn,
        length)``, ``None`` at non-leader indices."""
        ns: dict = {}
        exec(self.module_code, ns)
        return ns["_bind"](*args)

    def suffix_entry(self, pc: int, args: tuple) -> tuple:
        """Bind the suffix block resuming at mid-block ``pc`` (compiling
        it on first demand, then reusing the cached code object)."""
        code = self._suffix_codes.get(pc)
        if code is None:
            j = bisect_right(self._starts, pc)
            end = self._starts[j] if j < len(self._starts) else self.n

            def render() -> str:
                return compile_suffix_source(self.program, self.costs, pc,
                                             end)

            key = ("jit-suffix", jit_fingerprint(),
                   program_content_key(self.program), self.costs, pc, end)
            src = load_source(key, f"jit:{self.program.name}+{pc}", render)
            if src is None:
                src = render()
                _STATS["suffix_compiles"] += 1
                save_source(key, src)
            else:
                _STATS["suffix_loads"] += 1
            code = compile(src, f"<jit:{self.program.name}+{pc}>", "exec")
            self._suffix_codes[pc] = code
            self.suffix_sources[pc] = src
        ns: dict = {}
        exec(code, ns)
        return ns["_bind"](*args)


def get_compiled(program: Program, costs: CycleCosts) -> CompiledProgram:
    """The compiled form for ``(program, costs)``, via the per-program
    shortcut, then the process-global content-keyed cache."""
    per_program = program.meta.setdefault(_COMPILED_KEY, {})
    compiled = per_program.get(costs)
    if compiled is None:
        key = (program_content_key(program), costs)
        compiled = _CODE_CACHE.get(key)
        if compiled is None:
            if len(_CODE_CACHE) >= _CACHE_CAP:
                _CODE_CACHE.clear()
            store_key = ("jit-blocks", jit_fingerprint(), *key)
            src = load_source(
                store_key, f"jit:{program.name}",
                lambda: compile_blocks_source(program, costs))
            if src is None:
                compiled = CompiledProgram(program, costs)
                _STATS["compiles"] += 1
                save_source(store_key, compiled.source)
            else:
                compiled = CompiledProgram(program, costs, source=src)
                _STATS["loads"] += 1
            _CODE_CACHE[key] = compiled
        else:
            _STATS["hits"] += 1
        per_program[costs] = compiled
    else:
        _STATS["hits"] += 1
    return compiled


def code_cache_stats() -> dict:
    """Cache counters (for benchmarks and tests)."""
    return {"programs": len(_CODE_CACHE), **_STATS}


def clear_code_cache() -> None:
    """Drop all compiled code (tests)."""
    _CODE_CACHE.clear()
    for k in _STATS:
        _STATS[k] = 0
