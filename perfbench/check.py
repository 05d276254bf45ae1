"""Independent correctness checks for the benchmark.

Nothing here imports ``flowqubo``.  Programs, QUBOs and sample files are read
through their public fields only (``var_names``, ``objective``,
``constraints``, ``terms``, ``offset``, the JSON and CSV layouts the CLI
writes), and every quantity a check compares against is recomputed here from
those fields: constraint feasibility, objective values, QUBO energies, the
projected feasible set of a small program, and Pareto dominance.

Every check raises :class:`CheckError` with a message naming what differed.
"""

from __future__ import annotations

import csv
import functools
import json
import math

import numpy as np

TOL = 1e-9


class CheckError(AssertionError):
    """An output of the program disagrees with the independent computation."""


class ProgramFault(Exception):
    """A known fault of the program showed; the operation counts as failed."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckError(message)


# -- binary programs -------------------------------------------------------------


@functools.lru_cache(maxsize=24)
def cube(n: int) -> np.ndarray:
    """All ``2**n`` assignments as rows of a read-only 0/1 matrix, in
    lexicographic order (variable 0 most significant)."""
    require(n <= 22, f"{n} variables are too many for the reference scan")
    codes = np.arange(1 << n, dtype=np.int64)
    X = np.empty((1 << n, n), dtype=np.int8)
    for j in range(n):  # column by column: no n-wide int64 temporary
        X[:, j] = (codes >> (n - 1 - j)) & 1
    X.flags.writeable = False
    return X


def satisfies(X: np.ndarray, rows) -> np.ndarray:
    """Which rows of the 0/1 matrix ``X`` satisfy every constraint row
    ``(linear, products, sense, rhs)``."""
    ok = np.ones(len(X), dtype=bool)
    for lin, prod, sense, rhs in rows:
        lhs = np.zeros(len(X))
        for i, c in lin:
            lhs += c * X[:, i]
        for u, v, q in prod:
            lhs += q * (X[:, u] & X[:, v])
        if sense == "=":
            ok &= np.abs(lhs - rhs) <= TOL
        elif sense == "<=":
            ok &= lhs <= rhs + TOL
        else:
            ok &= lhs >= rhs - TOL
    return ok


class Program:
    """Index-based copy of a binary program's fields."""

    def __init__(self, program):
        self.names = tuple(program.var_names)
        index = {name: i for i, name in enumerate(self.names)}
        self.n = len(self.names)
        self.const = float(program.objective_constant)
        self.obj_lin = [(index[k], float(v)) for k, v in program.objective.items()]
        self.obj_prod = [(index[u], index[v], float(q))
                         for u, v, q in program.objective_products]
        self.rows = []
        for con in program.constraints:
            self.rows.append((
                [(index[k], float(v)) for k, v in con.linear.items()],
                [(index[u], index[v], float(q)) for u, v, q in con.products],
                con.sense,
                float(con.rhs),
            ))
        proj = tuple(program.projection) or self.names
        self.proj = [index[name] for name in proj]

    def objective(self, bits) -> float:
        total = self.const
        for i, c in self.obj_lin:
            total += c * bits[i]
        for u, v, q in self.obj_prod:
            total += q * bits[u] * bits[v]
        return total

    def feasible(self, bits) -> bool:
        for lin, prod, sense, rhs in self.rows:
            lhs = sum(c * bits[i] for i, c in lin)
            lhs += sum(q * bits[u] * bits[v] for u, v, q in prod)
            if sense == "=" and abs(lhs - rhs) > TOL:
                return False
            if sense == "<=" and lhs > rhs + TOL:
                return False
            if sense == ">=" and lhs < rhs - TOL:
                return False
        return True

    def key(self, bits) -> tuple[int, ...]:
        return tuple(int(bits[i]) for i in self.proj)

    def feasible_mask(self) -> np.ndarray:
        """Which rows of ``cube(n)`` are feasible assignments."""
        return satisfies(cube(self.n), self.rows)

    def feasible_set(self) -> dict:
        """Projected feasible configurations, each with its least objective.

        A plain vectorized scan over all ``2**n`` assignments; objectives
        are summed term by term in the order :meth:`objective` uses.
        """
        X = cube(self.n)[self.feasible_mask()]
        objs = np.full(len(X), self.const)
        for i, c in self.obj_lin:
            objs += c * X[:, i]
        for u, v, q in self.obj_prod:
            objs += q * (X[:, u] & X[:, v])
        best: dict = {}
        for row, obj in zip(X[:, self.proj].tolist(), objs.tolist()):
            key = tuple(row)
            if key not in best or obj < best[key]:
                best[key] = obj
        return best


def record_set(program: Program, records) -> dict:
    """Check each record against the evaluator; return key -> objective.

    ``records`` are ``(assignment, objective, feasible)`` triples for full
    source assignments.  Every record must be feasible, carry its true
    objective, and no configuration may appear twice.
    """
    out: dict = {}
    for bits, objective, feasible in records:
        require(len(bits) == program.n,
                f"record has {len(bits)} bits, program has {program.n}")
        require(feasible is not False, "record flagged infeasible in a feasible set")
        require(program.feasible(bits), f"record {_s(bits)} violates a constraint")
        true_obj = program.objective(bits)
        require(objective is not None and abs(objective - true_obj) <= 1e-7,
                f"record {_s(bits)} objective {objective} != {true_obj}")
        key = program.key(bits)
        require(key not in out, f"configuration {_s(key)} listed twice")
        out[key] = true_obj
    return out


def same_sets(named: dict) -> None:
    """All the given key -> objective maps are equal."""
    (first_name, first), *rest = named.items()
    for name, other in rest:
        missing = set(first) - set(other)
        extra = set(other) - set(first)
        require(not missing and not extra,
                f"{name} differs from {first_name}: {len(missing)} configuration(s) "
                f"missing, {len(extra)} extra")
        for key, obj in first.items():
            require(abs(other[key] - obj) <= 1e-7,
                    f"{name} objective of {_s(key)} is {other[key]}, "
                    f"{first_name} says {obj}")


def decoded_records(program: Program, records) -> None:
    """Decoded sample records: feasible flag and objective match the evaluator."""
    for bits, objective, feasible in records:
        require(len(bits) == program.n, "decoded record has the wrong length")
        truth = program.feasible(bits)
        require(feasible is truth,
                f"record {_s(bits)} flagged feasible={feasible}, evaluator says {truth}")
        true_obj = program.objective(bits)
        require(objective is not None and abs(objective - true_obj) <= 1e-7,
                f"record {_s(bits)} objective {objective} != {true_obj}")


# -- QUBOs -----------------------------------------------------------------------


def qubo_energy(qubo, bits) -> float:
    total = float(qubo.offset)
    for (i, j), q in qubo.terms.items():
        if bits[i] and bits[j]:
            total += q
    return total


def qubo_energies(qubo, X: np.ndarray) -> np.ndarray:
    """Energies of the rows of a 0/1 matrix, term by term."""
    X = np.asarray(X, dtype=bool)
    out = np.full(X.shape[0], float(qubo.offset))
    for (i, j), q in qubo.terms.items():
        out += q * (X[:, i] & X[:, j])
    return out


def raw_energies(qubo, records) -> None:
    """Each ``(assignment, energy)`` record carries its true QUBO energy."""
    records = list(records)
    if not records:
        return
    X = np.array([bits for bits, _ in records], dtype=np.int8)
    require(X.shape[1] == qubo.num_vars, "raw record length differs from the QUBO")
    stated = np.array([e for _, e in records], dtype=float)
    truth = qubo_energies(qubo, X)
    bad = np.nonzero(np.abs(stated - truth) > 1e-6 * np.maximum(1.0, np.abs(truth)))[0]
    require(bad.size == 0,
            f"{bad.size} raw energies differ from the QUBO; first "
            f"{stated[bad[0]] if bad.size else None} vs {truth[bad[0]] if bad.size else None}")


# -- files written by the CLI ----------------------------------------------------


def read_samples(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    data["records"] = [
        {**rec, "assignment": tuple(int(ch) for ch in rec["assignment"])}
        for rec in data["records"]
    ]
    return data


def read_coverage(path) -> tuple[int, int]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    require(len(rows) == 1, f"ttt.csv has {len(rows)} rows, expected 1")
    found, total = rows[0]["coverage"].split("/")
    return int(found), int(total)


def read_pareto(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        row["discrete_objective"] = float(row["discrete_objective"])
        row["continuous_objective"] = float(row["continuous_objective"])
        row["on_front"] = row["on_front"] == "true"
    return rows


# -- Pareto fronts ---------------------------------------------------------------


def _dominates(a, b) -> bool:
    return a[0] <= b[0] and a[1] <= b[1] and (a[0] < b[0] or a[1] < b[1])


def pareto(points: dict, front: set) -> None:
    """``front`` is exactly the non-dominated subset of ``points``.

    ``points`` maps an id to its (discrete, continuous) pair.  No front
    member may be dominated, and every other point must be dominated by or
    coincide with a front member; coinciding points keep one id.
    """
    require(front, "empty Pareto front")
    require(front <= set(points), "front names an unknown configuration")
    values = list(points.values())
    for pid in front:
        p = points[pid]
        require(not any(_dominates(q, p) for q in values),
                f"front member {pid} is dominated")
    front_values = [points[pid] for pid in front]
    require(len(set(front_values)) == len(front_values),
            "two front members share the same objectives")
    for pid, p in points.items():
        if pid in front:
            continue
        require(any(_dominates(q, p) or q == p for q in front_values),
                f"non-dominated point {pid} missing from the front")


# -- continuous stage of the il case ---------------------------------------------


def il_flows(space, selection: dict, flows: dict, tol: float = 1e-6) -> None:
    """Flows of one il configuration obey balances, windows and the demand."""
    reactors = [r for r in space.reactors if selection.get(f"y[{r}]")]
    separators = [s for s in space.separators if selection.get(f"y[{s}]")]
    cation = next(c for c in space.cations if selection.get(f"z[{c}]"))
    anion = next(a for a in space.anions if selection.get(f"z[{a}]"))

    def window(level, unit):
        return level <= tol or (space.f_lower[unit] - tol <= level
                                <= space.f_upper[unit] + tol)

    recovered = 0.0
    for r in reactors:
        feed = flows[f"src->{r}"]
        require(window(feed, r), f"reactor {r} feed {feed} outside its window")
        sent = sum(flows[f"{r}->{s}"] for s in separators)
        require(abs(sent - space.alpha[r] * feed) <= tol,
                f"reactor {r} balance: sends {sent}, converts {space.alpha[r] * feed}")
    for s in separators:
        intake = sum(flows[f"{r}->{s}"] for r in reactors)
        require(window(intake, s), f"separator {s} intake {intake} outside its window")
        out = flows[f"{s}->out"]
        require(abs(out - space.beta[s][cation][anion] * intake) <= tol,
                f"separator {s} balance: recovers {out} from {intake}")
        recovered += out
    require(recovered >= space.demand - tol,
            f"recovered {recovered} below the demand {space.demand}")


def il_single_path(space, selection: dict) -> dict | None:
    """Flows that run one selected reactor into one selected separator and
    leave every other unit idle, meeting the demand; None if no pair can.

    Units are semicontinuous, so idle units are allowed, and such flows
    prove the configuration has a feasible continuous stage.
    """
    reactors = [r for r in space.reactors if selection.get(f"y[{r}]")]
    separators = [s for s in space.separators if selection.get(f"y[{s}]")]
    cation = next(c for c in space.cations if selection.get(f"z[{c}]"))
    anion = next(a for a in space.anions if selection.get(f"z[{a}]"))
    for r in reactors:
        for s in separators:
            beta = space.beta[s][cation][anion]
            if beta <= 0.0:
                continue
            x = max(space.demand / beta, space.f_lower[s],
                    space.alpha[r] * space.f_lower[r])
            if x > space.f_upper[s] or x / space.alpha[r] > space.f_upper[r]:
                continue
            flows = {f"src->{u}": 0.0 for u in reactors}
            flows.update({f"{u}->{v}": 0.0 for u in reactors for v in separators})
            flows.update({f"{v}->out": 0.0 for v in separators})
            flows[f"src->{r}"] = x / space.alpha[r]
            flows[f"{r}->{s}"] = x
            flows[f"{s}->out"] = beta * x
            return flows
    return None


def finite(value) -> bool:
    return value is not None and math.isfinite(value)


def _s(bits) -> str:
    return "".join(str(int(b)) for b in bits)
