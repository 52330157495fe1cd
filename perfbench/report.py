"""Per-layer metrics of a traced pass, and the table that prints them.

:data:`PER_LAYER` names, for every layer metric, its unit, which direction
is better, and the end-to-end metric (and workload) it should move.
"""

from __future__ import annotations

#: name -> (unit, better, end-to-end metric and workload it should move)
PER_LAYER = {
    "cli.startup_s": ("s", "lower", "wall_s on oneshot_cli; setup_s on all"),
    "workloads.build_s": ("s", "lower", "setup_s on all"),
    "workloads.builds": ("count", "lower", "setup_s on all"),
    "sim.points_issued": ("count", "lower", "none: fixed by the workload"),
    "sim.points_unique": ("count", "lower", "none: fixed by the workload"),
    "sim.points_simulated": ("count", "lower", "wall_s on sensitivity_sweep; grids unchanged"),
    "sim.useful_ratio": ("ratio", "higher", "wall_s on sensitivity_sweep; grids unchanged"),
    "sim.sweep_self_s": ("s", "lower", "wall_s on sensitivity_sweep"),
    "sim.build_system_s": ("s", "lower", "wall_s on sensitivity_sweep and the grids"),
    "sim.loop_self_s": ("s", "lower", "wall_s on outage_grid; nofail_grid unchanged"),
    "sim.chunks": ("count", "lower", "wall_s on outage_grid; nofail_grid unchanged"),
    "sim.instr_per_chunk": ("instr/chunk", "higher", "wall_s on outage_grid"),
    "cpu.self_s": ("s", "lower", "wall_s, guest_mips on nofail_grid"),
    "cpu.instructions": ("count", "lower", "none: fixed by the workload"),
    "cpu.ns_per_instr": ("ns/instr", "lower", "wall_s, guest_mips on nofail_grid"),
    "caches.accesses": ("count", "lower", "none: fixed by the workload"),
    "caches.access_s": ("s", "lower", "wall_s on nofail_grid and sensitivity_sweep"),
    "caches.ns_per_access": ("ns/access", "lower", "wall_s on nofail_grid, sensitivity_sweep"),
    "caches.checkpoint_s": ("s", "lower", "wall_s on outage_grid only"),
    "caches.checkpoints": ("count", "lower", "wall_s on outage_grid only"),
    "core.wl_access_s": ("s", "lower", "wall_s on sensitivity_sweep"),
    "energy.make_trace_s": ("s", "lower", "wall_s on outage_grid"),
    "energy.trace_calls": ("count", "lower", "wall_s on outage_grid; ~0 on nofail_grid"),
    "energy.trace_s": ("s", "lower", "wall_s on outage_grid; ~0 on nofail_grid"),
    "verify.checks_s": ("s", "lower", "wall_s on all"),
    "verify.oracle_s": ("s", "lower", "wall_s on oneshot_cli only"),
    "codegen.compiles": ("count", "lower", "0 on the default policy"),
    "codegen.compile_s": ("s", "lower", "0 on the default policy"),
    "batch.recordings": ("count", "lower", "0 on the default policy"),
    "batch.replays": ("count", "higher", "0 on the default policy"),
    "lockstep.builds": ("count", "lower", "0 on the default policy"),
    "store.hits": ("count", "higher", "0 on the default policy"),
    "tracing.overhead_frac": ("fraction", "lower", "sanity check on the split"),
    "tracing.unattributed_s": ("s", "lower", "sanity check on the split"),
    "tracing.traced_wall_s": ("s", "lower", "sanity check on the split"),
}

#: Self-time metrics that, with ``tracing.unattributed_s``, add up to
#: ``tracing.traced_wall_s`` (``core.wl_access_s`` is part of
#: ``caches.access_s``).
PARTITION = (
    "workloads.build_s",
    "sim.sweep_self_s",
    "sim.build_system_s",
    "energy.make_trace_s",
    "sim.loop_self_s",
    "cpu.self_s",
    "caches.access_s",
    "caches.checkpoint_s",
    "energy.trace_s",
    "verify.checks_s",
    "verify.oracle_s",
    "codegen.compile_s",
    "tracing.unattributed_s",
)


def _merge(children: list[dict]) -> tuple[dict, dict, dict]:
    spans: dict[str, list] = {}
    distinct: dict[str, int] = {}
    counters: dict[str, int] = {}
    for child in children:
        for name, (self_s, n) in child["spans"]["spans"].items():
            acc = spans.setdefault(name, [0.0, 0])
            acc[0] += self_s
            acc[1] += n
        for name, n in child["spans"]["distinct"].items():
            distinct[name] = distinct.get(name, 0) + n
        for name, n in child["counters"].items():
            counters[name] = counters.get(name, 0) + n
    return spans, distinct, counters


def layer_metrics(untraced: dict, traced: dict) -> dict:
    """Per-layer metrics from a traced pass and the untraced pass beside it."""
    spans, distinct, counters = _merge(traced.get("invocations") or [traced])

    def s(name: str) -> float:
        return spans.get(name, (0.0, 0))[0]

    def n(name: str) -> int:
        return spans.get(name, (0.0, 0))[1]

    instructions = traced["instructions"]
    accesses = n("caches.access") + n("core.wl_access")
    access_s = s("caches.access") + s("core.wl_access")
    traced_wall = sum(v[0] for v in spans.values())
    values = {
        "cli.startup_s": untraced["import_s"],
        "workloads.build_s": s("workloads.build"),
        "workloads.builds": distinct.get("workloads.build", 0),
        "sim.points_issued": traced["points_issued"],
        "sim.points_unique": traced["points_unique"],
        "sim.points_simulated": n("sim.loop"),
        "sim.useful_ratio": traced["points_unique"] / max(n("sim.loop"), 1),
        "sim.sweep_self_s": s("sim.sweep"),
        "sim.build_system_s": s("sim.build_system"),
        "sim.loop_self_s": s("sim.loop"),
        "sim.chunks": n("cpu"),
        "sim.instr_per_chunk": instructions / max(n("cpu"), 1),
        "cpu.self_s": s("cpu"),
        "cpu.instructions": instructions,
        "cpu.ns_per_instr": s("cpu") * 1e9 / max(instructions, 1),
        "caches.accesses": accesses,
        "caches.access_s": access_s,
        "caches.ns_per_access": access_s * 1e9 / max(accesses, 1),
        "caches.checkpoint_s": s("caches.checkpoint"),
        "caches.checkpoints": n("caches.checkpoint"),
        "core.wl_access_s": s("core.wl_access"),
        "energy.make_trace_s": s("energy.make_trace"),
        "energy.trace_calls": n("energy.trace"),
        "energy.trace_s": s("energy.trace"),
        "verify.checks_s": s("verify.checks"),
        "verify.oracle_s": s("verify.oracle"),
        "codegen.compiles": n("codegen.compile"),
        "codegen.compile_s": s("codegen.compile"),
        "batch.recordings": counters.get("batch.recordings", 0),
        "batch.replays": counters.get("batch.replays", 0),
        "lockstep.builds": counters.get("lockstep.builds", 0),
        "store.hits": counters.get("store.hits", 0),
        "tracing.overhead_frac": traced_wall / untraced["run_s"] - 1.0,
        "tracing.unattributed_s": s("root"),
        "tracing.traced_wall_s": traced_wall,
    }
    return {name: {"value": values[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}


def print_layer_table(workload: str, metrics: dict) -> None:
    """One table: each layer metric beside the end-to-end metric it should move."""
    print(f"# per-layer split, {workload} (traced pass; self times)")
    print(f"# {'metric':<24} {'value':>14} {'unit':<12} should move")
    for name, (unit, _, moves) in PER_LAYER.items():
        value = metrics[name]["value"]
        shown = f"{value:.4f}" if isinstance(value, float) else str(value)
        print(f"# {name:<24} {shown:>14} {unit:<12} {moves}")
    total = sum(metrics[name]["value"] for name in PARTITION)
    wall = metrics["tracing.traced_wall_s"]["value"]
    print(f"# self times + unattributed = {total:.4f} s; traced wall = {wall:.4f} s")
