"""Record-mode guest codegen for the batch recorder.

Compiles each :class:`~repro.isa.program.Program` into specialized Python
functions (generated source + ``exec``), one per basic block, whose exits
append the block's exit code to a list. :func:`repro.batch.record.
record_run` runs a kernel once on this code to capture its guest stream;
the compiled modules live in a process-global cache shared by every
recording of the same kernel and cost model. See ``docs/batch.md`` for
the code shape and the cache lifetime.
"""

from repro.jit.cache import (CompiledProgram, clear_code_cache,
                             code_cache_stats, get_compiled)

__all__ = [
    "CompiledProgram",
    "clear_code_cache",
    "code_cache_stats",
    "get_compiled",
]
