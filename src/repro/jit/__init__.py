"""Basic-block + trace JIT for the guest interpreter.

Compiles each :class:`~repro.isa.program.Program` into specialized Python
functions (generated source + ``exec``) at two granularities - one
function per basic block, plus superblock *traces* for budget-rich chunks
- and installs a two-tier dispatch ``run_chunk`` on the core, with a
process-global code cache shared across every sweep point that runs the
same kernel. Enable with ``SimConfig(jit=True)``, ``--jit`` on the CLI,
or ``REPRO_JIT=1`` in the environment. See ``docs/jit.md`` for the
compilation model, cache lifetime, and fallback rules.
"""

from repro.jit.cache import (TRACE_CAP, CompiledProgram, clear_code_cache,
                             code_cache_stats, get_compiled,
                             program_content_key)
from repro.jit.dispatch import JITState, attach_jit, detach_jit, jit_enabled

__all__ = [
    "TRACE_CAP",
    "CompiledProgram",
    "JITState",
    "attach_jit",
    "clear_code_cache",
    "code_cache_stats",
    "detach_jit",
    "get_compiled",
    "jit_enabled",
    "program_content_key",
]
