"""Command line front end.

Subcommands:

* ``build``  - construct the configuration model for a case, reformulate it
  and write ip.json, qubo.json and reformulation.json;
* ``solve``  - run a solver against a case and write samples.json;
* ``report`` - turn a samples file into ttt.csv, plus diversity.json when a
  reference sample set is given;
* ``sweep``  - run the two-stage sweep for the il case and write pareto.csv.

Every run echoes its effective parameters to run_config.json in the output
directory, so a result folder is self-describing.  Reruns with the same seed
produce byte-identical files; wall-clock readings go into samples.json only
when --record-tau is passed.

Exit codes: 0 on success, 2 for model or input problems, 3 for solver
failures.
"""

from __future__ import annotations

import argparse
import json
import os
import secrets
import sys
from pathlib import Path
from typing import Sequence

from .errors import FlowQuboError, ModelError, SolverError
from .flowsheets import (
    DsDesignSpace,
    IlDesignSpace,
    build_ds_discrete,
    build_il_discrete,
    load_default_ds_space,
    load_default_il_space,
    sweep_il,
)
from .ip import BinaryProgram
from .metrics import (
    AllFeasibleTarget,
    OptimalityTarget,
    ParetoPoint,
    build_ttt_report,
    diversity,
    pareto_front,
    write_pareto_csv,
    write_ttt_csv,
)
from .reformulate import reformulate
from .solvers import (
    _BB_SOLVERS,
    SampleSet,
    SaParams,
    branch_and_bound,
    brute_force,
    import_samples,
    simulated_annealing,
)

_BB_MODES = {solver: mode for mode, solver in _BB_SOLVERS.items()}


def _out_dir(args) -> Path:
    chosen = args.out or os.environ.get("FLOWQUBO_OUT_DIR") or "flowqubo-out"
    path = Path(chosen)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_case(args):
    """Return (program, design space or None) for the selected case."""
    case = args.case
    if case == "custom":
        if not args.model:
            raise ModelError("--model is required with --case custom")
        return BinaryProgram.load(args.model), None
    if case == "il":
        space = IlDesignSpace.load(args.params) if args.params else load_default_il_space()
        return build_il_discrete(space), space
    space = DsDesignSpace.load(args.params) if args.params else load_default_ds_space()
    return build_ds_discrete(space), space


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _echo_run_config(outdir: Path, **entries) -> None:
    _write_json(outdir / "run_config.json", entries)


def _check_rho(args) -> None:
    if args.rho is not None and not args.rho > 0.0:
        raise ModelError("--rho must be positive")


def _effective_seed(args) -> int:
    if args.seed is not None:
        if args.seed < 0:
            raise ModelError("--seed must be non-negative")
        return args.seed
    seed = secrets.randbits(32)
    print(f"seed: {seed}")
    return seed


def _cmd_build(args) -> int:
    _check_rho(args)
    program, _ = _load_case(args)
    reform = reformulate(program, rho=args.rho)
    outdir = _out_dir(args)
    program.save(outdir / "ip.json")
    reform.qubo.save(outdir / "qubo.json")
    _write_json(outdir / "reformulation.json", reform.sidecar_json_dict())
    _echo_run_config(
        outdir, command="build", case=args.case,
        model=args.model, params=args.params, rho=reform.rho,
    )
    print(f"case: {args.case}")
    print(f"binary variables: {program.num_vars}")
    print(f"constraints: {len(program.constraints)}")
    print(f"qubo variables: {reform.qubo.num_vars}")
    print(f"penalty weight: {reform.rho}")
    print(f"wrote ip.json, qubo.json, reformulation.json to {outdir}")
    return 0


def _cmd_solve(args) -> int:
    _check_rho(args)
    program, _ = _load_case(args)
    seed = None
    rho = args.rho

    if args.solver == "oracle":
        samples = brute_force(program)
    elif args.solver in _BB_MODES:
        if args.solver == "bb-pool" and args.pool_size < 1:
            raise ModelError("--pool-size must be at least 1")
        pool = args.pool_size if args.solver == "bb-pool" else None
        samples = branch_and_bound(program, _BB_MODES[args.solver],
                                   pool_size=pool)
    elif args.solver == "sa":
        if args.reads < 1 or args.sweeps < 1:
            raise ModelError("--reads and --sweeps must be at least 1")
        seed = _effective_seed(args)
        reform = reformulate(program, rho=args.rho)
        rho = reform.rho
        params = SaParams(num_reads=args.reads, num_sweeps=args.sweeps,
                          seed=seed)
        samples = reform.decode_sampleset(simulated_annealing(reform.qubo, params))
    else:
        if not args.import_file:
            raise ModelError("--import-file is required with --solver import")
        qubo = None
        if args.check_energies:
            reform = reformulate(program, rho=args.rho)
            rho = reform.rho
            qubo = reform.qubo
        samples = import_samples(args.import_file, qubo=qubo)

    outdir = _out_dir(args)
    samples.save(outdir / "samples.json", include_tau=args.record_tau)
    _echo_run_config(
        outdir, command="solve", case=args.case, solver=args.solver,
        model=args.model, params=args.params,
        seed=seed if args.solver == "sa" else None, rho=rho,
        reads=args.reads if args.solver == "sa" else None,
        sweeps=args.sweeps if args.solver == "sa" else None,
        pool_size=args.pool_size if args.solver == "bb-pool" else None,
        import_file=args.import_file if args.solver == "import" else None,
        check_energies=bool(args.check_energies) if args.solver == "import" else None,
        record_tau=bool(args.record_tau),
    )
    best = samples.best()
    print(f"solver: {samples.solver}  status: {samples.status}")
    print(f"records: {len(samples.records)}  reads: {samples.num_reads}")
    if best is not None:
        bits = "".join(str(b) for b in best.assignment)
        print(f"best energy: {best.energy}")
        if best.objective is not None:
            print(f"best objective: {best.objective}")
        print(f"best assignment: {bits}")
    print(f"wrote samples.json to {outdir}")
    return 0


def _cmd_report(args) -> int:
    if not 0.0 < args.s < 1.0:
        raise ModelError("--s must lie strictly between 0 and 1")
    samples = SampleSet.load(args.samples)
    reference = SampleSet.load(args.reference) if args.reference else None

    optimal_target = None
    if args.target in ("opt", "both"):
        source = reference if reference is not None else samples
        if not source.records:
            raise ModelError("no records to derive an optimality target from")
        optimal_target = OptimalityTarget(
            energy=min(rec.energy for rec in source.records))

    program = None
    if reference is not None or args.target in ("feas", "both"):
        program, _ = _load_case(args)

    feasible_target = None
    if args.target in ("feas", "both"):
        if reference is None:
            raise ModelError("--reference is required for a feasibility target")
        feasible_target = AllFeasibleTarget(reference=reference, program=program)

    report = build_ttt_report(samples, s=args.s,
                              optimal_target=optimal_target,
                              feasible_target=feasible_target)
    # a feasible sample configuration foreign to the reference exits 2 here,
    # before anything is written
    div = diversity(samples, reference, program) if reference is not None else None
    outdir = _out_dir(args)
    write_ttt_csv([report], outdir / "ttt.csv", s=args.s)
    _echo_run_config(
        outdir, command="report", case=args.case, samples=str(args.samples),
        reference=str(args.reference) if args.reference else None,
        target=args.target, s=args.s,
        model=args.model, params=args.params,
    )
    parts = [f"solver={report.solver}", f"tau={report.tau}"]
    if report.p_opt is not None:
        parts.append(f"p_opt={report.p_opt:.6g}")
        parts.append(f"ttt_opt={report.ttt_opt}")
    if report.p_feas is not None:
        parts.append(f"p_feas={report.p_feas:.6g}")
        parts.append(f"ttt_feas={report.ttt_feas}")
    if report.coverage_total is not None:
        parts.append(f"coverage={report.coverage_found}/{report.coverage_total}")
    print("  ".join(parts))
    print(f"wrote ttt.csv to {outdir}")

    if div is not None:
        _write_json(outdir / "diversity.json", {
            "total": div.total,
            "found_count": div.found_count,
            "coverage": div.coverage,
            "rank_hits": {str(k): v for k, v in div.rank_hits.items()},
            "found_ranks": list(div.found_ranks),
            "mean_rank": div.mean_rank,
        })
        print(f"wrote diversity.json to {outdir}")
    return 0


def _cmd_sweep(args) -> int:
    if args.case != "il":
        raise ModelError("the built-in sweep covers the il case only; other continuous "
                         "stages attach through flowqubo.flowsheets.run_blackbox")
    if args.budget is not None and args.budget < 1:
        raise ModelError("--budget must be at least 1")
    if args.starts < 1:
        raise ModelError("--starts must be at least 1")
    space = IlDesignSpace.load(args.params) if args.params else load_default_il_space()
    seed = _effective_seed(args)
    rows = sweep_il(space, seed=seed, budget_per_config=args.budget,
                    starts=args.starts)
    points = [
        ParetoPoint(row["config_id"], row["discrete_objective"],
                    row["continuous_objective"])
        for row in rows if row["continuous_objective"] is not None
    ]
    front = pareto_front(points)
    outdir = _out_dir(args)
    write_pareto_csv(rows, [p.config_id for p in front], outdir / "pareto.csv")
    _echo_run_config(
        outdir, command="sweep", case=args.case, params=args.params,
        seed=seed, budget=args.budget, starts=args.starts,
    )
    print(f"configurations: {len(rows)}  on pareto front: {len(front)}")
    for p in front:
        print(f"  {p.config_id}  discrete={p.discrete_objective:g}  "
              f"continuous={p.continuous_objective:g}")
    print(f"wrote pareto.csv to {outdir}")
    return 0


def _add_case_options(sub) -> None:
    sub.add_argument("--case", choices=("il", "ds", "custom"), default="il",
                     help="bundled case study, or 'custom' with --model")
    sub.add_argument("--params", default=None, metavar="JSON",
                     help="design-space file overriding the bundled data")
    sub.add_argument("--model", default=None, metavar="JSON",
                     help="binary program file (required for --case custom)")
    sub.add_argument("--out", default=None, metavar="DIR",
                     help="output directory (default: $FLOWQUBO_OUT_DIR "
                          "or ./flowqubo-out)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowqubo",
        description="Configuration models, penalty QUBOs, discrete solvers "
                    "and reports for flowsheet design.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_build = subs.add_parser("build", help="write ip/qubo/reformulation files")
    _add_case_options(p_build)
    p_build.add_argument("--rho", type=float, default=None,
                         help="penalty weight (default: derived from the objective)")
    p_build.set_defaults(func=_cmd_build)

    p_solve = subs.add_parser("solve", help="run a solver, write samples.json")
    _add_case_options(p_solve)
    p_solve.add_argument("--solver", required=True,
                         choices=("oracle", "sa", "bb", "bb-enumerate",
                                  "bb-pool", "import"))
    p_solve.add_argument("--seed", type=int, default=None,
                         help="sa seed (drawn and printed when omitted)")
    p_solve.add_argument("--rho", type=float, default=None,
                         help="penalty weight for the sa reformulation")
    p_solve.add_argument("--reads", type=int, default=1000,
                         help="sa reads (default 1000)")
    p_solve.add_argument("--sweeps", type=int, default=1000,
                         help="sa sweeps per read (default 1000)")
    p_solve.add_argument("--pool-size", type=int, default=10,
                         help="solutions kept by bb-pool (default 10)")
    p_solve.add_argument("--import-file", default=None, metavar="JSON",
                         help="sample file to normalize with --solver import")
    p_solve.add_argument("--check-energies", action="store_true",
                         help="recompute imported energies against the case QUBO")
    p_solve.add_argument("--record-tau", action="store_true",
                         help="write the measured wall-clock time into samples.json")
    p_solve.set_defaults(func=_cmd_solve)

    p_report = subs.add_parser("report", help="write ttt.csv (and diversity.json)")
    p_report.add_argument("--samples", required=True, metavar="JSON",
                          help="sample file produced by solve")
    p_report.add_argument("--reference", default=None, metavar="JSON",
                          help="oracle sample file used as the target reference")
    p_report.add_argument("--target", choices=("opt", "feas", "both"),
                          default="opt")
    p_report.add_argument("--s", type=float, default=0.99,
                          help="target success level (default 0.99)")
    _add_case_options(p_report)
    p_report.set_defaults(func=_cmd_report)

    p_sweep = subs.add_parser("sweep", help="two-stage sweep, write pareto.csv")
    p_sweep.add_argument("--case", choices=("il", "ds"), default="il")
    p_sweep.add_argument("--params", default=None, metavar="JSON",
                         help="design-space file overriding the bundled data")
    p_sweep.add_argument("--seed", type=int, default=None,
                         help="sweep seed (drawn and printed when omitted)")
    p_sweep.add_argument("--budget", type=int, default=None,
                         help="continuous evaluations per configuration")
    p_sweep.add_argument("--starts", type=int, default=20,
                         help="pattern-search starts per configuration (default 20)")
    p_sweep.add_argument("--out", default=None, metavar="DIR")
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FlowQuboError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
