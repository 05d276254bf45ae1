"""Which calls the traced run wraps, and the per-layer metrics they give.

Each public function is replaced in the module that defines it and under
every name another module imported it as, so nested calls show up as child
spans: the oracle scan and the per-configuration solves inside
``sweep_il``, and the solver, report and artifact calls made by
``cli.main``.
"""

from __future__ import annotations

import os
import statistics

from spans import Tracer

# (name, unit, better): the per-layer metrics printed by a traced run.  A
# layer a workload does not call reads 0.
METRICS = (
    ("solvers.brute_force.wall_s", "s", "lower"),
    ("solvers.brute_force.cpu_s", "s", "lower"),
    ("solvers.brute_force.assignments_per_s", "1/s", "higher"),
    ("reformulate.verify.wall_s", "s", "lower"),
    ("reformulate.verify.cpu_s", "s", "lower"),
    ("reformulate.verify.assignments_per_s", "1/s", "higher"),
    ("solvers.branch_and_bound.enumerate_all.wall_s", "s", "lower"),
    ("solvers.branch_and_bound.enumerate_all.records_per_s", "1/s", "higher"),
    ("solvers.branch_and_bound.optimal.wall_s", "s", "lower"),
    ("solvers.branch_and_bound.pool.wall_s", "s", "lower"),
    ("solvers.simulated_annealing.wall_s", "s", "lower"),
    ("solvers.simulated_annealing.cpu_s", "s", "lower"),
    ("solvers.simulated_annealing.ns_per_spin_update", "ns", "lower"),
    ("solvers.simulated_annealing.reads", "count", "higher"),
    ("solvers.simulated_annealing.optimal_reads", "count", "higher"),
    ("solvers.simulated_annealing.feasible_reads", "count", "higher"),
    ("reformulate.decode_sampleset.wall_s", "s", "lower"),
    ("metrics.build_ttt_report.wall_s", "s", "lower"),
    ("metrics.diversity.wall_s", "s", "lower"),
    ("flowsheets.sweep_il.wall_s", "s", "lower"),
    ("flowsheets.sweep_il.brute_force.wall_s", "s", "lower"),
    ("flowsheets.il_continuous_solve.wall_s", "s", "lower"),
    ("flowsheets.il_continuous_solve.cpu_s", "s", "lower"),
    ("flowsheets.il_continuous_solve.evaluations", "count", "lower"),
    ("flowsheets.il_continuous_solve.evals_per_s", "1/s", "higher"),
    ("metrics.pareto_front.wall_s", "s", "lower"),
    ("reformulate.reformulate.wall_s", "s", "lower"),
    ("flowsheets.build.wall_s", "s", "lower"),
    ("cli.artifacts.bytes", "B", "lower"),
    ("cli.artifacts.wall_s", "s", "lower"),
    ("cli.main.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

# rate metric -> (numerator, denominator, scale), over all traced rounds
RATIOS = {
    "solvers.brute_force.assignments_per_s":
        ("solvers.brute_force.assignments", "solvers.brute_force.wall_s", 1.0),
    "reformulate.verify.assignments_per_s":
        ("reformulate.verify.assignments", "reformulate.verify.wall_s", 1.0),
    "solvers.branch_and_bound.enumerate_all.records_per_s":
        ("solvers.branch_and_bound.enumerate_all.records",
         "solvers.branch_and_bound.enumerate_all.wall_s", 1.0),
    "solvers.simulated_annealing.ns_per_spin_update":
        ("solvers.simulated_annealing.wall_s",
         "solvers.simulated_annealing.spin_updates", 1e9),
    "flowsheets.il_continuous_solve.evals_per_s":
        ("flowsheets.il_continuous_solve.evaluations",
         "flowsheets.il_continuous_solve.wall_s", 1.0),
}


def _bb_name(program, mode="optimal", **_):
    return f"solvers.branch_and_bound.{mode}"


def _scan_size(args, kwargs, result):
    return {"assignments": 2 ** args[0].num_vars}


def _verify_size(args, kwargs, result):
    return {"assignments": result.num_source_assignments}


def _records(args, kwargs, result):
    return {"records": len(result.records)}


def _spin_updates(args, kwargs, result):
    qubo = args[0]
    params = args[1] if len(args) > 1 else kwargs.get("params")
    return {"spin_updates": params.num_reads * params.num_sweeps * qubo.num_vars,
            "reads": params.num_reads}


def _evaluations(args, kwargs, result):
    return {"evaluations": result["evaluations"]}


def _artifact(path_arg: int):
    def counts(args, kwargs, result):
        return {"bytes": os.path.getsize(args[path_arg])}
    return counts


def instrument(fq) -> Tracer:
    """A tracer with every layer of ``fq`` (the imported package) registered."""
    t = Tracer()
    cli, flowsheets, metrics, reform, solvers = (
        fq.cli, fq.flowsheets, fq.metrics, fq.reformulate, fq.solvers)
    for owner in (solvers, flowsheets, cli):
        t.patch(owner, "brute_force", "solvers.brute_force", _scan_size)
    for owner in (solvers, cli):
        t.patch(owner, "branch_and_bound", _bb_name, _records)
        t.patch(owner, "simulated_annealing", "solvers.simulated_annealing",
                _spin_updates)
    for owner in (reform, cli):
        t.patch(owner, "reformulate", "reformulate.reformulate")
    t.patch(reform, "verify", "reformulate.verify", _verify_size)
    t.patch(reform.Reformulation, "decode_sampleset", "reformulate.decode_sampleset")
    for owner in (metrics, cli):
        t.patch(owner, "build_ttt_report", "metrics.build_ttt_report")
        t.patch(owner, "diversity", "metrics.diversity")
        t.patch(owner, "pareto_front", "metrics.pareto_front")
    for owner in (flowsheets, cli):
        t.patch(owner, "sweep_il", "flowsheets.sweep_il")
        t.patch(owner, "build_il_discrete", "flowsheets.build")
        t.patch(owner, "build_ds_discrete", "flowsheets.build")
    t.patch(flowsheets, "il_continuous_solve", "flowsheets.il_continuous_solve",
            _evaluations)
    t.patch(solvers.SampleSet, "save", "cli.artifacts", _artifact(1))
    t.patch(cli, "write_ttt_csv", "cli.artifacts", _artifact(1))
    t.patch(cli, "write_pareto_csv", "cli.artifacts", _artifact(2))
    t.patch(cli, "main", "cli.main")
    return t


def summarize(spans: list[dict], rounds: list[int], extra_counts: list[dict],
              untraced_walls: list[float], traced_walls: list[float]) -> dict:
    """Per-layer metrics: per-round medians of self times and counts over
    the traced ``rounds``, rates over their totals."""
    per_round = {r: {} for r in rounds}

    def add(r, key, value):
        per_round[r][key] = per_round[r].get(key, 0.0) + value

    for s in spans:
        r = s["round"]
        if r not in per_round:
            continue
        name = s["name"]
        add(r, name + ".wall_s", s["self_wall_s"])
        add(r, name + ".cpu_s", s["self_cpu_s"])
        for key, value in s["counts"].items():
            add(r, f"{name}.{key}", value)
        parent = s["parent"]
        if parent is not None and spans[parent]["name"] == "flowsheets.sweep_il":
            add(r, f"flowsheets.sweep_il.{name.split('.')[-1]}.wall_s", s["self_wall_s"])
    for r in rounds:
        for key, value in extra_counts[r].items():
            add(r, key, value)

    def median(key):
        return statistics.median(per_round[r].get(key, 0.0) for r in rounds)

    def ratio(num_key, den_key, scale):
        num = sum(per_round[r].get(num_key, 0.0) for r in rounds)
        den = sum(per_round[r].get(den_key, 0.0) for r in rounds)
        return scale * num / den if den > 0 else 0.0

    untraced = statistics.median(untraced_walls)
    overhead = statistics.median(traced_walls) - untraced
    out = {}
    for name, unit, _ in METRICS:
        if name in RATIOS:
            value = ratio(*RATIOS[name])
        elif name == "trace.overhead_s":
            value = overhead
        elif name == "trace.overhead_pct":
            value = 100.0 * overhead / untraced
        else:
            value = median(name)
        out[name] = {"value": value, "unit": unit}
    return out
