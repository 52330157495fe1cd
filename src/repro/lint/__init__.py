"""repro.lint - static analysis and protocol invariant checking.

Three layers:

* **Program linter** (:func:`lint_program`): a CFG + dataflow analysis over
  assembled :class:`~repro.isa.program.Program` objects that catches kernel
  bugs before a single cycle is simulated - reads of never-written
  registers, dead stores, unreachable blocks, bad branch/jump targets, and
  statically-resolvable misaligned or out-of-bounds memory accesses.
  The opt-in intermittency rules L009-L014
  (:mod:`repro.lint.intermittent`) add checkpoint-region dataflow: WAR
  and read-modify-write idempotency hazards on non-volatile state,
  region length vs. the capacitor budget, torn subword stores, and
  dead/unreachable checkpoints.
* **Codegen auditor** (:mod:`repro.lint.codegen_audit`): an ``ast``-based
  static pass over the *generated* Python the record/memfast/batch layers
  emit, verifying the structural contracts (A001-A009) that the
  differential tests only sample dynamically.
* **Protocol invariant checker** (:func:`attach_invariants`): a runtime
  assertion layer over WL-Cache that turns the paper's correctness
  argument (dirty-count <= maxline, DirtyQueue <-> dirty-bit coherence,
  clean-before-ACK ordering) into machine-checked assertions. Enabled via
  ``SimConfig.check_invariants`` or ``REPRO_CHECK=1``; zero-cost when off.
"""

from __future__ import annotations

from repro.lint.findings import (AUDIT_RULES, RULES, Finding, Rule,
                                 count_by_severity, format_findings_sarif)
from repro.lint.intermittent import run_intermittent_rules
from repro.lint.invariants import (InvariantChecker, attach_invariants,
                                   invariants_enabled)
from repro.lint.runner import (format_findings_json, format_findings_text,
                               lint_program, lint_workloads)

__all__ = [
    "AUDIT_RULES",
    "RULES",
    "Finding",
    "InvariantChecker",
    "Rule",
    "attach_invariants",
    "count_by_severity",
    "format_findings_json",
    "format_findings_sarif",
    "format_findings_text",
    "invariants_enabled",
    "lint_program",
    "lint_workloads",
    "run_intermittent_rules",
]
