"""Static auditor for the generated Python of the record/memfast/batch tiers.

Three subsystems in this codebase *generate* Python source and ``exec``
it: the batch recorder's record-mode block codegen
(:mod:`repro.jit.blocks`), the memory-hierarchy fast path
(:mod:`repro.memfast.handlers`), and the lockstep tier's column engine
(:mod:`repro.lockstep.codegen`); the batch tier's hand-written stream
walker (:mod:`repro.batch.replay`) is audited alongside them. Their
correctness contracts are exercised dynamically by differential tests,
but dynamic tests only sample: a fault exit that forgets to flush one
``st`` slot is invisible until a random program happens to fault in
that exact block. This module
re-states the contracts *structurally* and verifies them over the
``ast`` of the actual generated source - every exit path, every bail
edge, every baked constant - so a codegen regression is caught by shape,
not by luck.

The contracts (registered as ``A0xx`` in :mod:`repro.lint.findings`):

* **A001 exit-state-incomplete** - every exit path of a generated
  function (each ``return`` and each fault ``raise _EE``) is dominated
  by assignments to ``st[0]`` (cycle) and ``st[1]`` (retired count);
  every constant ``st`` index is in 0..2. The recorder sums ``st[1]``
  into its retired count and reads ``st[0]`` as the static cycle
  total.
* **A002 retire-count-mismatch** - the ``st[1]`` constant each exit
  flushes is consistent with the block length the dispatch table
  declares: block/suffix returns retire exactly the declared length,
  fault paths retire ``1..length``.
* **A003 record-exit-codes** - every return is dominated by *exactly
  one* ``_q.append(code)`` with ``code`` in ``{2*start, 2*start + 1}``;
  fault paths append nothing. The batch engine replays streams
  positionally, so a missing, doubled, or mislabeled exit code silently
  corrupts every replay of the recording.
* **A004 bail-before-mutate** - a handler's bail to the bracketed slow
  path (``return _slow(...)``) must happen before any state mutation,
  because the slow path replays the access from scratch. The only
  mutation allowed before a bail is the MRU-hint update ``_mru[si] =
  line`` (a probe cache, semantically invisible).
* **A005 baked-key-mismatch** - regenerating the source from the keying
  inputs (program content and frozen costs; for handlers, the live
  geometry/energy fields) reproduces the audited source byte for
  byte. This pins the code cache's keying tuple to the
  baked constants: if codegen starts baking a value the key does not
  cover, the first sweep that varies it gets stale code - and this
  check fails loudly instead.
* **A006 ambient-state** - generated modules import nothing, declare
  nothing global/nonlocal, and resolve every free name to a bound
  parameter, a local, or an allowlisted builtin (``len``/``hex``). No
  wall-clock, no RNG, no module-global mutable state: a compiled module
  may be shared across cores and sweep points, and determinism (and
  record/replay bit-equality) depends on it.
* **A007 replay-now-formula** - ``ReplayCore.run_chunk`` passes every
  memory call the interpreter-equivalent timestamp, literally the
  expression ``cum[i] - c_mem + dyn + offset``, and the replay module
  imports only stdlib-pure ``bisect`` and ``repro.*``. This is the one
  hand-written (not generated) piece of the batch fast path, and its
  bit-exactness argument hangs on that formula.
* **A008 lockstep-engine-protocol** - a generated column engine
  (:mod:`repro.lockstep.codegen`) is a single generator
  ``_make_engine``; every episode it appends is a well-formed tuple
  whose tag the scheduler knows (``halt``/``outage``/``err``/``fault``
  /``bail``, with the right arity); the column cursor cell is
  published (``cell[0]``/``cell[2]`` assigned) and *every* instance's
  mutable-mirror slice is written back before the yield. The scheduler
  dispatches episodes positionally and resumes instances from their
  slot lists, so a missing writeback silently forks an instance's
  state from its solo-replay twin. Engines are also held to A005 (the
  retained source must match a fresh render of the same column
  signature) and A006 (free names resolve only to the engine's exec
  namespace: the error types and the few helpers ``make_engine``
  binds).
* **A009 store-load-mismatch** - every generated source this process
  served from the *persistent* artifact store (:mod:`repro.store`)
  re-renders byte-identical from its recorded inputs. A005 pins what
  this process rendered; A009 pins what it *loaded* - a stale,
  tampered, or mis-keyed entry in a shared cache directory is caught
  here rather than silently executed again next run.

Drivers: :func:`audit_compiled` (one
:class:`~repro.jit.cache.CompiledProgram`, including any suffix modules
it has materialized), :func:`audit_memfast_design` (one live memory
system's installed handlers), :func:`audit_replay_module` (the batch
walker), :func:`audit_lockstep_engines` (every retained column-engine
source), :func:`audit_store_loads` (the A009 ledger), and
:func:`audit_suite` (the CLI's ``repro audit``: runs every requested
kernel on every requested design with memfast on and audits the
installed handlers, records each kernel and audits its record modules
with the suffixes the recording materialized, plus the column engines
a small lockstep sweep materializes).
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding, make_finding

#: builtins generated code may reference (A006)
_ALLOWED_BUILTINS = frozenset({"len", "hex"})

#: mutating method calls recognized by the A004 mutation scan
_MUTATING_METHODS = frozenset({"append", "add", "clear", "insert", "pop",
                               "popleft", "extend", "remove", "update"})

#: the exact timestamp expression A007 requires (see replay.py docstring)
_NOW_FORMULA = "cum[i] - c_mem + dyn + offset"

#: module imports the replay walker may use (A007)
_REPLAY_IMPORT_OK = ("__future__", "bisect", "repro")

#: names a lockstep engine may resolve beyond its locals: the exec
#: namespace :func:`repro.lockstep.codegen.make_engine` binds, plus the
#: builtins the rendered source uses. Pinned here on purpose - a new
#: bind in codegen must be reviewed against this list, not silently
#: allowed.
_ENGINE_BINDS = frozenset({"EnergyError", "ExecutionError", "_ILS",
                           "_INF", "_DQE", "_bis",
                           "Exception", "int", "min"})

#: episode tag -> required tuple arity (the scheduler's dispatch
#: contract; see repro.lockstep.scheduler._handle)
_EPISODE_ARITY = {"halt": 2, "outage": 2, "err": 3, "fault": 3,
                  "bail": 1}


# ---------------------------------------------------------------------------
# AST helpers
# ---------------------------------------------------------------------------

def _exit_paths(fn: ast.FunctionDef):
    """Every ``return``/``raise`` in ``fn`` with its *dominating*
    statements: the statements guaranteed to have executed on any path
    reaching the exit (the prefixes along its nesting chain). Nested
    suites contribute their containing compound statement, never their
    inner statements."""
    out: list[tuple[ast.stmt, list[ast.stmt]]] = []

    def walk(suite, prefix):
        for idx, stmt in enumerate(suite):
            here = prefix + suite[:idx]
            if isinstance(stmt, (ast.Return, ast.Raise)):
                out.append((stmt, here))
            elif isinstance(stmt, (ast.If, ast.For, ast.While)):
                walk(stmt.body, here)
                walk(stmt.orelse, here)

    walk(fn.body, [])
    return out


def _st_const_assigns(stmts) -> dict[int, object]:
    """``{slot: value node}`` for plain ``st[<const>] = ...`` assignments
    among ``stmts`` (last assignment wins, like execution would)."""
    slots: dict[int, object] = {}
    for stmt in stmts:
        if not isinstance(stmt, ast.Assign):
            continue
        for tgt in stmt.targets:
            idx = _st_subscript_index(tgt)
            if idx is not None:
                slots[idx] = stmt.value
    return slots


def _st_subscript_index(node) -> int | None:
    if (isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == "st"
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, int)):
        return node.slice.value
    return None


def _q_appends(stmts) -> list[object]:
    """The argument nodes of top-level ``_q.append(...)`` calls."""
    out = []
    for stmt in stmts:
        if (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)
                and isinstance(stmt.value.func, ast.Attribute)
                and stmt.value.func.attr == "append"
                and isinstance(stmt.value.func.value, ast.Name)
                and stmt.value.func.value.id == "_q"):
            out.append(stmt.value.args[0] if stmt.value.args else None)
    return out


def _target_root(node) -> str | None:
    """The base name a store target ultimately mutates (``_acc[0]`` ->
    ``_acc``, ``line.dirty`` -> ``line``, plain ``x`` -> None: locals
    are not mutations of shared state)."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _mutations_of(stmt) -> set[str]:
    """Names of shared objects ``stmt`` may mutate (A004's currency)."""
    out: set[str] = set()
    if isinstance(stmt, ast.Assign):
        for tgt in stmt.targets:
            targets = tgt.elts if isinstance(tgt, ast.Tuple) else [tgt]
            for t in targets:
                if isinstance(t, (ast.Subscript, ast.Attribute)):
                    root = _target_root(t)
                    if root:
                        out.add(root)
    elif isinstance(stmt, ast.AugAssign):
        if isinstance(stmt.target, (ast.Subscript, ast.Attribute)):
            root = _target_root(stmt.target)
            if root:
                out.add(root)
    elif (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
          and isinstance(stmt.value.func, ast.Attribute)
          and stmt.value.func.attr in _MUTATING_METHODS):
        root = _target_root(stmt.value.func.value)
        if root:
            out.add(root)
    return out


# ---------------------------------------------------------------------------
# per-function contracts (A001/A002/A003)
# ---------------------------------------------------------------------------

def _fn_kind(name: str) -> str | None:
    """'block' / 'suffix' from the generated naming scheme."""
    if name.startswith("_b"):
        return "block"
    if name.startswith("_s") and name != "_state_flush":
        return "suffix"
    return None


def _audit_generated_fn(fn: ast.FunctionDef, declared: int | None,
                        loc: str) -> list[Finding]:
    findings: list[Finding] = []
    kind = _fn_kind(fn.name)
    start = int(fn.name[2:]) if kind else None

    # A001 (range half): every constant st index the function touches
    for node in ast.walk(fn):
        idx = _st_subscript_index(node)
        if idx is not None and not 0 <= idx <= 2:
            findings.append(make_finding(
                "A001", loc,
                f"st[{idx}] is outside the 3-slot state list"))

    for exit_node, doms in _exit_paths(fn):
        is_raise = isinstance(exit_node, ast.Raise)
        line = getattr(exit_node, "lineno", 0)
        where = f"{loc} line {line}"
        slots = _st_const_assigns(doms)

        # A001: the cycle/retired slots flush on every exit
        missing = [k for k in (0, 1) if k not in slots]
        if missing:
            kind_s = "fault path" if is_raise else "exit"
            findings.append(make_finding(
                "A001", where,
                f"{kind_s} leaves st{missing} unwritten (every exit "
                f"must flush st[0]/st[1])"))

        # A002: the retired count is consistent with the declared length
        retired = slots.get(1)
        if (declared is not None and retired is not None
                and isinstance(retired, ast.Constant)
                and isinstance(retired.value, int)):
            k = retired.value
            if is_raise:
                ok = 1 <= k <= declared
                want = f"1..{declared}"
            else:
                ok = k == declared
                want = str(declared)
            if not ok:
                findings.append(make_finding(
                    "A002", where,
                    f"exit flushes st[1] = {k}, but the dispatch table "
                    f"declares length {declared} (expected {want})"))

        # A003: exit codes
        appends = _q_appends(doms)
        if is_raise:
            if appends:
                findings.append(make_finding(
                    "A003", where,
                    "fault path appends an exit code (faults retire "
                    "no block; the replay stream must not see one)"))
        elif len(appends) != 1:
            findings.append(make_finding(
                "A003", where,
                f"exit appends {len(appends)} exit codes (exactly "
                f"one per return)"))
        elif start is not None:
            arg = appends[0]
            ok = (isinstance(arg, ast.Constant)
                  and arg.value in (2 * start, 2 * start + 1))
            if not ok:
                got = ast.unparse(arg) if arg is not None else "<none>"
                findings.append(make_finding(
                    "A003", where,
                    f"exit code {got} is not 2*{start} or "
                    f"2*{start}+1"))
    return findings


def _declared_lengths(bind: ast.FunctionDef) -> dict[str, int]:
    """``{fn name: length}`` from ``_table[N] = (_bN, L)`` assignments
    and the suffix ``return (_sN, L)`` form."""
    out: dict[str, int] = {}

    def from_tuple(node):
        if (isinstance(node, ast.Tuple) and len(node.elts) == 2
                and isinstance(node.elts[0], ast.Name)
                and isinstance(node.elts[1], ast.Constant)
                and isinstance(node.elts[1].value, int)):
            out[node.elts[0].id] = node.elts[1].value

    for stmt in bind.body:
        if isinstance(stmt, ast.Assign):
            for tgt in stmt.targets:
                if (isinstance(tgt, ast.Subscript)
                        and isinstance(tgt.value, ast.Name)
                        and tgt.value.id == "_table"):
                    from_tuple(stmt.value)
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            from_tuple(stmt.value)
    return out


# ---------------------------------------------------------------------------
# A006: ambient-state / free-variable purity
# ---------------------------------------------------------------------------

def _scope_findings(tree: ast.Module, loc: str,
                    extra: frozenset = frozenset()) -> list[Finding]:
    allowed = _ALLOWED_BUILTINS | extra
    findings: list[Finding] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            findings.append(make_finding(
                "A006", f"{loc} line {node.lineno}",
                "generated code must not import anything"))
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            findings.append(make_finding(
                "A006", f"{loc} line {node.lineno}",
                "generated code must not declare global/nonlocal"))

    def shallow_nodes(fn: ast.FunctionDef):
        """Nodes of ``fn``'s own scope: nested FunctionDefs are yielded
        (their name binds here) but never entered."""
        stack = list(fn.body)
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, ast.FunctionDef):
                continue
            stack.extend(ast.iter_child_nodes(node))

    def local_names(fn: ast.FunctionDef) -> set[str]:
        args = fn.args
        names = {a.arg for a in (args.posonlyargs + args.args
                                 + args.kwonlyargs)}
        if args.vararg:
            names.add(args.vararg.arg)
        if args.kwarg:
            names.add(args.kwarg.arg)
        for stmt in shallow_nodes(fn):
            if isinstance(stmt, ast.FunctionDef):
                names.add(stmt.name)
            elif isinstance(stmt, ast.ExceptHandler) and stmt.name:
                names.add(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AugAssign, ast.For)):
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                for t in targets:
                    for n in ast.walk(t):
                        if isinstance(n, ast.Name):
                            names.add(n.id)
        return names

    def check(fn: ast.FunctionDef, env: set[str]) -> None:
        # default expressions evaluate in the *enclosing* scope
        for d in fn.args.defaults + [d for d in fn.args.kw_defaults if d]:
            for n in ast.walk(d):
                if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                        and n.id not in env
                        and n.id not in allowed):
                    findings.append(make_finding(
                        "A006", f"{loc} line {n.lineno}",
                        f"default for {fn.name} references unbound "
                        f"name {n.id!r}"))
        inner_env = env | local_names(fn)
        nested = []
        for node in shallow_nodes(fn):
            if isinstance(node, ast.FunctionDef):
                nested.append(node)
            elif (isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id not in inner_env
                    and node.id not in allowed):
                findings.append(make_finding(
                    "A006", f"{loc} line {node.lineno}",
                    f"{fn.name} reaches outside its bindings for "
                    f"{node.id!r}"))
        for sub in nested:
            check(sub, inner_env)

    module_env = {n.name for n in tree.body
                  if isinstance(n, ast.FunctionDef)}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            check(node, module_env)
    return findings


# ---------------------------------------------------------------------------
# module-level audits
# ---------------------------------------------------------------------------

def audit_module_source(source: str, unit: str) -> list[Finding]:
    """A001-A003 + A006 over one generated record module's source."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:  # pragma: no cover - compile() ran first
        return [make_finding("A006", unit,
                             f"generated module does not parse: {exc}")]
    findings: list[Finding] = []
    bind = next((n for n in tree.body
                 if isinstance(n, ast.FunctionDef) and n.name == "_bind"),
                None)
    if bind is None:
        return [make_finding("A006", unit,
                             "generated module defines no _bind")]
    declared = _declared_lengths(bind)
    for fn in bind.body:
        if not isinstance(fn, ast.FunctionDef) or _fn_kind(fn.name) is None:
            continue
        findings.extend(_audit_generated_fn(
            fn, declared.get(fn.name), f"{unit}:{fn.name}"))
    findings.extend(_scope_findings(tree, unit))
    return findings


def audit_compiled(compiled) -> list[Finding]:
    """Audit one :class:`~repro.jit.cache.CompiledProgram`: the block
    module, every materialized suffix module, and the A005 recompile
    check that ties the source to the cache keying tuple."""
    from repro.jit.blocks import compile_blocks_source, compile_suffix_source

    program, costs = compiled.program, compiled.costs
    unit = f"jit:{program.name}[record]"
    findings = audit_module_source(compiled.source, unit)

    if compile_blocks_source(program, costs) != compiled.source:
        findings.append(make_finding(
            "A005", unit,
            "recompiling from the cache key (program content, costs) "
            "does not reproduce the cached source - a baked constant "
            "escapes the keying tuple"))

    starts = compiled._starts
    n = compiled.n
    for pc, src in sorted(compiled.suffix_sources.items()):
        sunit = f"{unit}+{pc}"
        findings.extend(audit_module_source(src, sunit))
        end = next((s for s in starts if s > pc), n)
        if src != compile_suffix_source(program, costs, pc, end):
            findings.append(make_finding(
                "A005", sunit,
                f"suffix module @{pc} diverges from a fresh compile of "
                f"the same key"))
    return findings


def _audit_handler_source(source: str, unit: str) -> list[Finding]:
    """A004 + A006 over one memfast handler module."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:  # pragma: no cover
        return [make_finding("A006", unit,
                             f"handler source does not parse: {exc}")]
    findings = _scope_findings(tree, unit)

    def is_slow_bail(node) -> bool:
        return (isinstance(node, ast.Return)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
                and node.value.func.id == "_slow")

    def check_bail(seen: set[str], node) -> None:
        bad = sorted(seen - {"_mru"})
        if bad:
            findings.append(make_finding(
                "A004", f"{unit} line {node.lineno}",
                f"bail to the slow path after mutating {bad} (the slow "
                f"replay would double-apply; only the _mru hint may "
                f"precede a bail)"))

    def walk(suite, seen: set[str]):
        """May-mutate-set walk; returns the set at suite exit, or None
        when every path through the suite terminates."""
        for stmt in suite:
            if isinstance(stmt, ast.Return):
                if is_slow_bail(stmt):
                    check_bail(seen, stmt)
                return None
            if isinstance(stmt, ast.Raise):
                return None
            if isinstance(stmt, ast.If):
                b = walk(stmt.body, set(seen))
                o = walk(stmt.orelse, set(seen))
                live = [x for x in (b, o) if x is not None]
                if not live:
                    return None
                seen = set().union(*live)
            elif isinstance(stmt, (ast.For, ast.While)):
                b = walk(stmt.body, set(seen))
                after = seen | (b or set())
                o = walk(stmt.orelse, set(after))
                seen = after if o is None else after | o
            else:
                seen |= _mutations_of(stmt)
        return seen

    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name != "_make":
            walk(fn.body, set())
    return findings


def audit_memfast_design(m) -> list[Finding]:
    """Audit the fast handlers installed on a live memory system:
    handler-shape contracts plus the A005 re-render check against the
    live geometry/energy fields the literals were baked from."""
    from repro.memfast.handlers import (load_source, wb_store_sources,
                                        wl_store_sources)

    state = getattr(m, "_memfast_state", None)
    if state is None:
        return []
    design = type(m).__name__
    expected: dict[str, str] = {"load": load_source(m)}
    if state.store_shape == "wl":
        expected.update(wl_store_sources(m))
    elif state.store_shape == "wb":
        expected.update(wb_store_sources(m))
    findings: list[Finding] = []
    for name, want in expected.items():
        fn = getattr(m, name, None)
        got = getattr(fn, "_memfast_source", None)
        unit = f"memfast:{design}:{name}"
        if got is None:
            findings.append(make_finding(
                "A005", unit,
                f"installed {name} handler carries no generated source "
                f"to audit"))
            continue
        findings.extend(_audit_handler_source(got, unit))
        if got != want:
            findings.append(make_finding(
                "A005", unit,
                f"installed {name} handler does not match a fresh "
                f"render from the live geometry/energy fields - a "
                f"baked literal went stale"))
    return findings


def audit_replay_module() -> list[Finding]:
    """A007 over the hand-written batch stream walker."""
    import repro.batch.replay as replay_mod

    unit = "batch:replay"
    path = replay_mod.__file__
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    findings: list[Finding] = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            mods = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            mods = [node.module or ""]
        else:
            continue
        for mod in mods:
            root = mod.split(".", 1)[0]
            if root not in _REPLAY_IMPORT_OK:
                findings.append(make_finding(
                    "A007", f"{unit} line {node.lineno}",
                    f"replay module imports {mod!r} (only bisect and "
                    f"repro.* keep the walker deterministic)"))

    run_chunk = None
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "ReplayCore":
            run_chunk = next(
                (f for f in node.body if isinstance(f, ast.FunctionDef)
                 and f.name == "run_chunk"), None)
    if run_chunk is None:
        findings.append(make_finding(
            "A007", unit, "ReplayCore.run_chunk not found"))
        return findings

    counts = dict.fromkeys(("load", "store", "store_masked"), 0)
    for node in ast.walk(run_chunk):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in counts):
            counts[node.func.id] += 1
            now = ast.unparse(node.args[-1]) if node.args else ""
            if now != _NOW_FORMULA:
                findings.append(make_finding(
                    "A007", f"{unit} line {node.lineno}",
                    f"{node.func.id} call passes now={now!r}, expected "
                    f"the interpreter-equivalent {_NOW_FORMULA!r}"))
    for name, c in counts.items():
        if not c:
            findings.append(make_finding(
                "A007", unit,
                f"run_chunk makes no {name} call - the stream walk "
                f"contract cannot be verified"))
    return findings


def audit_lockstep_engine(sig: tuple, source: str,
                          unit: str) -> list[Finding]:
    """A005/A006/A008 over one generated column engine's source."""
    from repro.lockstep.codegen import render_engine_source

    try:
        tree = ast.parse(source)
    except SyntaxError as exc:  # pragma: no cover - compile() ran first
        return [make_finding("A006", unit,
                             f"engine source does not parse: {exc}")]
    findings: list[Finding] = []

    # A008: single generator _make_engine
    defs = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    if [d.name for d in defs] != ["_make_engine"]:
        findings.append(make_finding(
            "A008", unit,
            f"engine module defines {[d.name for d in defs]} (expected "
            f"exactly one _make_engine)"))
        return findings
    engine = defs[0]
    if not any(isinstance(n, (ast.Yield, ast.YieldFrom))
               for n in ast.walk(engine)):
        findings.append(make_finding(
            "A008", unit, "_make_engine is not a generator"))

    # A008: every episode append is a well-formed, known tuple
    cell_slots: set[int] = set()
    written_back: set[int] = set()
    for node in ast.walk(engine):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "append"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "_ep"):
            arg = node.args[0] if node.args else None
            tag = (arg.elts[0].value
                   if isinstance(arg, ast.Tuple) and arg.elts
                   and isinstance(arg.elts[0], ast.Constant) else None)
            want = _EPISODE_ARITY.get(tag)
            if want is None:
                got = ast.unparse(arg) if arg is not None else "<none>"
                findings.append(make_finding(
                    "A008", f"{unit} line {node.lineno}",
                    f"episode {got} has a tag the scheduler does not "
                    f"dispatch"))
            elif len(arg.elts) != want:
                findings.append(make_finding(
                    "A008", f"{unit} line {node.lineno}",
                    f"episode {tag!r} has arity {len(arg.elts)} "
                    f"(scheduler unpacks {want})"))
        elif isinstance(node, ast.Assign):
            for tgt in node.targets:
                if (isinstance(tgt, ast.Subscript)
                        and isinstance(tgt.value, ast.Name)):
                    base = tgt.value.id
                    if (base == "cell"
                            and isinstance(tgt.slice, ast.Constant)):
                        cell_slots.add(tgt.slice.value)
                    elif (base.startswith("_s") and base[2:].isdigit()
                            and isinstance(tgt.slice, ast.Slice)):
                        written_back.add(int(base[2:]))

    # A008: cursor publication and per-instance mirror writeback
    for slot, what in ((0, "event index"), (2, "stream cursor")):
        if slot not in cell_slots:
            findings.append(make_finding(
                "A008", unit,
                f"engine never publishes cell[{slot}] (the column "
                f"{what}); eviction would resume solos at a stale "
                f"position"))
    missing = sorted(set(range(len(sig))) - written_back)
    if missing:
        findings.append(make_finding(
            "A008", unit,
            f"instances {missing} get no mutable-mirror slice "
            f"writeback before the yield (their slot lists would go "
            f"stale on eviction/halt)"))

    # A006 with the engine's exec-namespace allowlist
    findings.extend(_scope_findings(tree, unit, extra=_ENGINE_BINDS))

    # A005: the retained source matches a fresh render of the signature
    if source != render_engine_source(sig):
        findings.append(make_finding(
            "A005", unit,
            "retained engine source diverges from a fresh render of "
            "the same column signature - a baked constant escapes the "
            "signature"))
    return findings


def audit_lockstep_engines() -> list[Finding]:
    """Audit every column-engine source the lockstep tier has retained
    (run a lockstep sweep first to materialize them)."""
    from repro.lockstep.codegen import engine_sources

    findings: list[Finding] = []
    for i, (sig, src) in enumerate(sorted(engine_sources().items())):
        counts: dict[str, int] = {}
        for el in sig:
            counts[el[0]] = counts.get(el[0], 0) + 1
        modes = "+".join(f"{m}x{c}" for m, c in sorted(counts.items()))
        unit = f"lockstep:engine#{i}[{len(sig)} inst: {modes}]"
        findings.extend(audit_lockstep_engine(sig, src, unit))
    return findings


def audit_store_loads() -> list[Finding]:
    """A009: every generated source this process served from the
    persistent artifact store must re-render byte-identical from its
    recorded inputs (the ledger in :mod:`repro.store.sources` keeps a
    pure re-render closure per load). A mismatch means the store entry
    is stale, tampered with, or mis-keyed - exactly the cross-process
    failure A005 cannot see, because A005 compares sources retained by
    *this* process's renders."""
    from repro.store.sources import loaded_source_stats, loaded_sources

    findings: list[Finding] = []
    for unit, source, render in loaded_sources():
        try:
            fresh = render()
        except Exception as exc:
            findings.append(make_finding(
                "A009", unit,
                f"re-render of a store-loaded source raised "
                f"{type(exc).__name__}: {exc}"))
            continue
        if fresh != source:
            findings.append(make_finding(
                "A009", unit,
                "store-loaded source differs from a fresh render of "
                "its recorded inputs (stale or tampered cache entry: "
                "clear the store root or bump the generator)"))
    dropped = loaded_source_stats()["audit_dropped"]
    if dropped:
        findings.append(make_finding(
            "A009", "store:loads",
            f"{dropped} store loads overflowed the audit ledger and "
            f"were not checked (raise the cap or audit in smaller "
            f"runs)"))
    return findings


# ---------------------------------------------------------------------------
# suite driver (the repro audit CLI)
# ---------------------------------------------------------------------------

def audit_suite(apps=None, designs=None,
                scale: float = 1.0) -> dict[str, list[Finding]]:
    """Run the requested kernel x design grid with memfast on and audit
    the installed handlers; record each kernel once per cost model and
    audit its record modules, including the suffixes the recording
    materialized; then audit the replay walker and the column engines a
    small lockstep sweep (first kernel, every requested design, traced
    and untraced) materializes. Returns ``{unit: findings}``."""
    from repro.batch.record import RecordingBail, record_run, recording_costs
    from repro.jit.cache import get_compiled
    from repro.sim.config import DESIGNS, SimConfig
    from repro.sim.factory import build_system
    from repro.sim.sweep import run_grid
    from repro.workloads import ALL_WORKLOADS, build_workload

    apps = list(apps) if apps else list(ALL_WORKLOADS)
    designs = list(designs) if designs else list(DESIGNS)
    config = SimConfig(memfast=True)
    results: dict[str, list[Finding]] = {
        "batch:replay": audit_replay_module()}
    for app in apps:
        program = build_workload(app, scale)
        findings: list[Finding] = []
        record_costs_seen = set()
        for design in designs:
            system = build_system(program, design, None, config)
            system.run()
            findings.extend(audit_memfast_design(system.design))
            rcosts = recording_costs(system.core.costs)
            if rcosts not in record_costs_seen:
                record_costs_seen.add(rcosts)
                try:
                    record_run(program, system.core.costs,
                               config.max_instructions)
                except RecordingBail:
                    pass  # a bail still leaves the modules it ran on
                findings.extend(audit_compiled(get_compiled(program,
                                                            rcosts)))
        results[app] = findings

    # materialize column engines for every requested design shape, in
    # both traced and untraced epilogue variants, then audit them
    for trace in (None, "trace1"):
        run_grid(apps[:1], designs, trace, jobs=1, scale=scale,
                 verify=False, memfast=True, batch=True, lockstep=True)
    results["lockstep:engines"] = audit_lockstep_engines()
    results["store:loads"] = audit_store_loads()
    return results
