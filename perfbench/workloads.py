"""The benchmark's four workloads.

Each workload builds its inputs and reference sets once (the set-up), then
hands the harness one round at a time.  A round is a list of groups; a group
is a list of operations, each one call into the program, and a check that
runs after them, outside the timed region, against the independent
evaluator in :mod:`check`.  Every round of a run repeats the same
operations, so the share of failed operations does not depend on the run
length.

* ``exact`` - both bundled cases through the exhaustive oracle, the three
  branch-and-bound modes and ``verify``: a few huge scans.
* ``random-programs`` - a seeded batch of small programs through the same
  solvers: many small calls, dominated by ``enumerate_all``.
* ``anneal`` - ``flowqubo solve --solver sa`` and ``flowqubo report`` on both
  cases through ``cli.main``: the annealing kernel and the reports.
* ``il-sweep`` - ``flowqubo sweep --case il`` through ``cli.main``: the
  two-stage sweep over all 84 configurations.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import check
from check import require
from programs import program_batch

SA_READS = 1000          # the CLI defaults: 1000 reads x 1000 sweeps
QUBO_SCAN_LIMIT = 14     # brute-force the QUBO itself up to this many variables
SWEEP_SAMPLE = 3         # configurations re-solved per sweep to check flows


def derive(seed: int, *keys: int) -> int:
    """A 32-bit seed for the program, from the workload seed and ``keys``."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def run_cli(fq, argv) -> None:
    """``flowqubo <argv>`` in this process; its console output is dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = fq.cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"flowqubo {' '.join(map(str, argv))} exited with {code}")


def triples(records) -> list:
    """(assignment, objective, feasible) from SampleRecords or JSON records."""
    if records and isinstance(records[0], dict):
        return [(r["assignment"], r["objective"], r["feasible"]) for r in records]
    return [(r.assignment, r.objective, r.feasible) for r in records]


class Group(NamedTuple):
    """Operations ``(key, fn(results))`` run in order, each storing its
    result under ``key``, and ``check(results)``, which raises on a wrong
    output and may return counts for the traced run."""

    ops: list
    check: Callable


# -- exact solvers on one program ----------------------------------------------


def exact_group(fq, label, program, reference=None, witness=None,
                scan_qubo=False) -> Group:
    """Reformulate, oracle, the three branch-and-bound modes and ``verify``.

    ``reference`` is the benchmark's own feasible set, when the program is
    small enough to scan; ``witness`` a planted feasible assignment.
    """
    solvers, reform_mod = fq.solvers, fq.reformulate
    view = check.Program(program)
    pool_size = 2 ** len(view.proj)
    ops = [
        ("reformulate", lambda res: reform_mod.reformulate(program)),
        ("brute_force", lambda res: solvers.brute_force(program)),
        ("optimal", lambda res: solvers.branch_and_bound(program, "optimal")),
        ("enumerate_all", lambda res: solvers.branch_and_bound(program, "enumerate_all")),
        ("pool", lambda res: solvers.branch_and_bound(program, "pool",
                                                      pool_size=pool_size)),
        ("verify", lambda res: reform_mod.verify(res["reformulate"])),
    ]
    if scan_qubo:
        ops.append(("qubo_scan", lambda res: solvers.brute_force(res["reformulate"].qubo)))

    def check_fn(res):
        sets = {}
        if reference is not None:
            sets["reference scan"] = reference
        for key in ("brute_force", "enumerate_all", "pool"):
            sets[f"{label} {key}"] = check.record_set(view, triples(res[key].records))
        check.same_sets(sets)
        found = sets[f"{label} brute_force"]
        require(found, f"{label}: no feasible configuration found")
        optimum = min(found.values())
        if witness is not None:
            require(view.key(witness) in found, f"{label}: planted witness missing")

        best = check.record_set(view, triples(res["optimal"].records))
        require(len(best) == 1 and abs(next(iter(best.values())) - optimum) <= 1e-7,
                f"{label}: branch-and-bound optimum differs from the set's best {optimum}")

        qubo = res["reformulate"].qubo
        rep = res["verify"]
        require(rep.passed, f"{label}: verify reports a failure")
        require(abs(rep.qubo_minimum - optimum) <= 1e-7,
                f"{label}: QUBO minimum {rep.qubo_minimum} != optimum {optimum}")
        require(len(rep.qubo_argmin) == qubo.num_vars, f"{label}: argmin length")
        energy = check.qubo_energy(qubo, rep.qubo_argmin)
        require(abs(energy - rep.qubo_minimum) <= 1e-7,
                f"{label}: energy of the QUBO argmin is {energy}, "
                f"verify says {rep.qubo_minimum}")
        source = rep.qubo_argmin[:view.n]
        require(view.feasible(source) and abs(view.objective(source) - optimum) <= 1e-7,
                f"{label}: the QUBO argmin is not a feasible optimum")

        if scan_qubo:
            recs = res["qubo_scan"].records
            require(len(recs) == 2 ** qubo.num_vars, f"{label}: QUBO scan size")
            check.raw_energies(qubo, [(r.assignment, r.energy) for r in recs])
            require(abs(recs[0].energy - optimum) <= 1e-7,
                    f"{label}: QUBO scan minimum {recs[0].energy} != optimum {optimum}")
        return None

    return Group(ops, check_fn)


class Exact:
    """Both bundled cases: one huge exhaustive scan per layer."""

    def __init__(self, fq, seed, out):
        fl = fq.flowsheets
        self.groups = []
        for label, program in (
                ("ds", fl.build_ds_discrete(fl.load_default_ds_space())),
                ("il", fl.build_il_discrete(fl.load_default_il_space()))):
            # the 2^24 il cube is left to the program's own three-way agreement
            reference = check.Program(program).feasible_set() if program.num_vars <= 20 else None
            self.groups.append(exact_group(fq, label, program, reference))

    def round(self, r):
        return self.groups


class RandomPrograms:
    """A seeded batch of small programs with planted witnesses."""

    def __init__(self, fq, seed, out):
        self.groups = []
        for k, (program, witness, reference) in enumerate(program_batch(seed, fq)):
            small = fq.reformulate.reformulate(program).qubo.num_vars <= QUBO_SCAN_LIMIT
            self.groups.append(exact_group(fq, f"p{k}", program, reference, witness,
                                           scan_qubo=small))

    def round(self, r):
        return self.groups


# -- the CLI: annealing and reports ---------------------------------------------


class Anneal:
    """``solve --solver sa`` then ``report --target both`` on il and ds."""

    def __init__(self, fq, seed, out):
        self.fq, self.seed, self.out = fq, seed, Path(out)
        fl = fq.flowsheets
        self.cases = []
        for case, program in (
                ("il", fl.build_il_discrete(fl.load_default_il_space())),
                ("ds", fl.build_ds_discrete(fl.load_default_ds_space()))):
            view = check.Program(program)
            ref_dir = self.out / f"reference-{case}"
            run_cli(fq, ["solve", "--case", case, "--solver", "bb-pool",
                         "--pool-size", 2 ** len(view.proj), "--out", ref_dir])
            # the exact workload checks the bb-pool set against the benchmark's scan
            ref = check.record_set(
                view, triples(check.read_samples(ref_dir / "samples.json")["records"]))
            qubo = fq.reformulate.reformulate(program).qubo
            self.cases.append((case, view, ref, ref_dir / "samples.json", qubo))

    def _solve(self, case, seed, out_dir):
        """Run the CLI and return the raw sample set it annealed."""
        cli = self.fq.cli
        raw = []
        sampler = cli.simulated_annealing

        def keep(*args, **kwargs):
            raw.append(sampler(*args, **kwargs))
            return raw[-1]

        cli.simulated_annealing = keep
        try:
            run_cli(self.fq, ["solve", "--case", case, "--solver", "sa", "--seed", seed,
                              "--record-tau", "--out", out_dir])
        finally:
            cli.simulated_annealing = sampler
        return raw[0]

    def round(self, r):
        return [self._group(derive(self.seed, r, k), *case)
                for k, case in enumerate(self.cases)]

    def _group(self, seed, case, view, ref, ref_path, qubo) -> Group:
        solve_dir = self.out / f"sa-{case}"
        report_dir = self.out / f"report-{case}"
        ops = [
            ("solve", lambda res: self._solve(case, seed, solve_dir)),
            ("report", lambda res: run_cli(self.fq, [
                "report", "--samples", solve_dir / "samples.json", "--reference", ref_path,
                "--target", "both", "--case", case, "--out", report_dir])),
        ]
        return Group(ops, lambda res: self._check(res["solve"], view, ref, qubo,
                                                  solve_dir, report_dir))

    @staticmethod
    def _check(raw, view, ref, qubo, solve_dir, report_dir):
        optimum = min(ref.values())
        check.raw_energies(qubo, [(r.assignment, r.energy) for r in raw.records])
        require(sum(r.occurrences for r in raw.records) == SA_READS, "raw reads")
        # verify (exact workload) certifies the QUBO minimum equals the optimum
        require(min(r.energy for r in raw.records) >= optimum - 1e-7,
                "a raw energy lies below the QUBO minimum")

        records = check.read_samples(solve_dir / "samples.json")["records"]
        check.decoded_records(view, triples(records))
        require(sum(r["occurrences"] for r in records) == SA_READS,
                "decoded occurrences do not sum to the reads requested")
        feasible = [r for r in records if r["feasible"]]
        require(all(r["objective"] >= optimum - 1e-7 for r in feasible),
                "a feasible objective lies below the exact optimum")
        found = {view.key(r["assignment"]) for r in feasible}
        require(found <= set(ref), "a feasible configuration is missing from the reference")
        covered, total = check.read_coverage(report_dir / "ttt.csv")
        require(total == len(ref) and covered == len(found),
                f"ttt.csv coverage {covered}/{total}, expected {len(found)}/{len(ref)}")
        return {
            "solvers.simulated_annealing.feasible_reads":
                sum(r["occurrences"] for r in feasible),
            "solvers.simulated_annealing.optimal_reads":
                sum(r["occurrences"] for r in feasible
                    if abs(r["objective"] - optimum) <= 1e-7),
        }


# -- the CLI: the two-stage sweep ----------------------------------------------


class IlSweep:
    """``flowqubo sweep --case il``: every configuration's continuous optimum.

    The sweep seed is fixed, not drawn from the workload seed: on about two
    seeds in three the sweep reports some configuration that has a feasible
    operating point as continuous-infeasible, because every pattern-search
    start lands outside the throughput windows.  Sweep seed 1 shows the
    fault on two configurations every time, so the sweep counts as a failed
    operation in every round, and everything else about its output is still
    checked.
    """

    SWEEP_SEED = 1

    def __init__(self, fq, seed, out):
        self.fq, self.seed, self.out = fq, seed, Path(out)
        fl = fq.flowsheets
        self.space = fl.load_default_il_space()
        program = fl.build_il_discrete(self.space)
        self.projection = program.projection
        view = check.Program(program)
        pool = fq.solvers.branch_and_bound(program, "pool", pool_size=2 ** len(view.proj))
        self.discrete = {"".join(map(str, key)): obj
                         for key, obj in check.record_set(view, triples(pool.records)).items()}

    def round(self, r):
        out_dir = self.out / "sweep"
        op = ("sweep", lambda res: run_cli(self.fq, ["sweep", "--case", "il",
                                                     "--seed", self.SWEEP_SEED,
                                                     "--out", out_dir]))
        return [Group([op], lambda res: self._check(r, out_dir / "pareto.csv"))]

    def _selection(self, config_id):
        return {name: int(bit) for name, bit in zip(self.projection, config_id)}

    def _fixed_cost(self, config_id):
        return sum(self.space.c_fixed[name[2:-1]]
                   for name, bit in zip(self.projection, config_id)
                   if bit == "1" and name.startswith("y["))

    def _check(self, r, path):
        rows = {row["config_id"]: row for row in check.read_pareto(path)}
        require(sorted(rows) == sorted(self.discrete),
                "sweep configurations differ from the branch-and-bound pool")
        solved, missed = [], []
        for cid, row in sorted(rows.items()):
            require(abs(row["discrete_objective"] - self.discrete[cid]) <= 1e-7,
                    f"discrete objective of {cid} is wrong")
            cont = row["continuous_objective"]
            if row["status"] == "ok":
                require(check.finite(cont) and cont >= self._fixed_cost(cid) - 1e-9,
                        f"continuous objective of {cid} is {cont}")
                solved.append(cid)
                continue
            flows = check.il_single_path(self.space, self._selection(cid))
            require(flows is not None, f"no continuous objective for {cid}")
            check.il_flows(self.space, self._selection(cid), flows)
            missed.append(cid)
        check.pareto({cid: (rows[cid]["discrete_objective"], rows[cid]["continuous_objective"])
                      for cid in solved},
                     {cid for cid in solved if rows[cid]["on_front"]})

        # a sweep row is reproducible from its configuration and child seed
        ids = sorted(rows)
        rng = np.random.default_rng([self.seed, r])
        for cid in rng.choice(solved, size=SWEEP_SAMPLE, replace=False):
            pos = ids.index(cid)
            child = np.random.SeedSequence(entropy=self.SWEEP_SEED, spawn_key=(pos,))
            result = self.fq.flowsheets.il_continuous_solve(
                self.space, self._selection(cid), seed=child)
            require(result["status"] == "ok", f"re-solve of {cid} failed")
            check.il_flows(self.space, self._selection(cid), result["flows"])
            require(math.isclose(result["objective"], rows[cid]["continuous_objective"],
                                 rel_tol=1e-12),
                    f"re-solve of {cid} gives {result['objective']}, "
                    f"sweep wrote {rows[cid]['continuous_objective']}")
        if missed:
            raise check.ProgramFault(
                f"sweep reports {len(missed)} configuration(s) with feasible flows "
                f"as continuous-infeasible: {', '.join(missed)}")
        return None


WORKLOADS = {
    "exact": Exact,
    "random-programs": RandomPrograms,
    "anneal": Anneal,
    "il-sweep": IlSweep,
}
