"""Flowsheet design spaces, their binary models, and the continuous stage.

Two bundled case studies exercise the pipeline end to end:

* an ionic-liquid separation process (reactors feeding separators, with a
  cation/anion solvent choice): selection binaries plus stream-existence
  binaries, a bilinear operating-cost surrogate, and a continuous flow
  subproblem solved per configuration by multi-start pattern search;
* a crystallization-train superstructure: one binary per candidate stream,
  node balances, and compatibility rules between unit choices.

Both coefficient sets are synthetic (see the "provenance" field in the data
files); they are shaped to give a nontrivial gap between the discrete
surrogate ranking and the continuous objective.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    JSON_SHAPE_ERRORS,
    ModelError,
    json_float,
    json_list,
    json_names,
    json_str,
    read_json,
    write_json,
)
from .ip import BinaryProgram, Constraint
# unused here, but perfbench/layers.py traces flowsheets.brute_force
from .solvers import branch_and_bound, brute_force  # noqa: F401

__all__ = [
    "IlDesignSpace",
    "DsNode",
    "DsDesignSpace",
    "load_default_il_space",
    "load_default_ds_space",
    "build_il_discrete",
    "build_ds_discrete",
    "il_continuous_solve",
    "pattern_search",
    "BlackBoxObjective",
    "run_blackbox",
    "sweep_il",
]


# -- design spaces -------------------------------------------------------------


def _require_finite(field: str, value) -> None:
    """Refuse a coefficient that is not a finite real number."""
    try:
        if math.isfinite(value):
            return
    except (TypeError, OverflowError):
        pass
    raise ModelError(f"{field} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class IlDesignSpace:
    """Unit inventory and coefficients for the ionic-liquid process.

    ``alpha`` is the reactor conversion (output per unit feed), ``beta`` the
    separator recovery factor per (separator, cation, anion), ``f_lower`` /
    ``f_upper`` the semicontinuous throughput window of each unit, and
    ``demand`` the minimum recovered product.
    """

    reactors: tuple[str, ...]
    separators: tuple[str, ...]
    cations: tuple[str, ...]
    anions: tuple[str, ...]
    c_fixed: Mapping[str, float]
    c_oper_reactor: Mapping[str, float]
    c_oper_separator: Mapping[str, float]
    c_invest: Mapping[str, float]
    c_energy: Mapping[str, float]
    alpha: Mapping[str, float]
    beta: Mapping[str, Mapping[str, Mapping[str, float]]]
    f_lower: Mapping[str, float]
    f_upper: Mapping[str, float]
    demand: float
    provenance: str = "synthetic"

    def __post_init__(self) -> None:
        units = tuple(self.reactors) + tuple(self.separators)
        if not self.reactors or not self.separators:
            raise ModelError("need at least one reactor and one separator")
        if not self.cations or not self.anions:
            raise ModelError("need at least one cation and one anion")
        if len(set(units)) != len(units):
            raise ModelError("duplicate unit names")
        for name, owner in (("c_fixed", units),
                            ("c_oper_reactor", self.reactors),
                            ("c_oper_separator", self.separators),
                            ("c_invest", units),
                            ("c_energy", self.separators),
                            ("alpha", self.reactors),
                            ("f_lower", units),
                            ("f_upper", units)):
            table = getattr(self, name)
            missing = set(owner) - set(table)
            if missing:
                raise ModelError(f"missing coefficients for {sorted(missing)}")
            for u in owner:
                _require_finite(f"{name}[{u}]", table[u])
        for r in self.reactors:
            if not 0.0 < self.alpha[r] <= 1.0:
                raise ModelError(f"alpha[{r}] must lie in (0, 1]")
        for s in self.separators:
            for c in self.cations:
                for a in self.anions:
                    try:
                        b = self.beta[s][c][a]
                    except KeyError as exc:
                        raise ModelError(
                            f"missing beta[{s}][{c}][{a}]") from exc
                    _require_finite(f"beta[{s}][{c}][{a}]", b)
                    if not 0.0 <= b <= 1.0:
                        raise ModelError(f"beta[{s}][{c}][{a}] must lie in [0, 1]")
        for u in units:
            if not 0.0 <= self.f_lower[u] <= self.f_upper[u]:
                raise ModelError(f"need 0 <= f_lower <= f_upper for unit {u}")
        _require_finite("demand", self.demand)
        if not self.demand > 0.0:
            raise ModelError("demand must be positive")

    def to_json_dict(self) -> dict:
        return {
            "provenance": self.provenance,
            "reactors": list(self.reactors),
            "separators": list(self.separators),
            "cations": list(self.cations),
            "anions": list(self.anions),
            "c_fixed": dict(self.c_fixed),
            "c_oper_reactor": dict(self.c_oper_reactor),
            "c_oper_separator": dict(self.c_oper_separator),
            "c_invest": dict(self.c_invest),
            "c_energy": dict(self.c_energy),
            "alpha": dict(self.alpha),
            "beta": {s: {c: dict(row) for c, row in by_c.items()}
                     for s, by_c in self.beta.items()},
            "f_lower": dict(self.f_lower),
            "f_upper": dict(self.f_upper),
            "demand": self.demand,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "IlDesignSpace":
        def fmap(key):
            return {str(k): json_float(v) for k, v in data[key].items()}

        try:
            return cls(
                reactors=json_names(data["reactors"]),
                separators=json_names(data["separators"]),
                cations=json_names(data["cations"]),
                anions=json_names(data["anions"]),
                c_fixed=fmap("c_fixed"),
                c_oper_reactor=fmap("c_oper_reactor"),
                c_oper_separator=fmap("c_oper_separator"),
                c_invest=fmap("c_invest"),
                c_energy=fmap("c_energy"),
                alpha=fmap("alpha"),
                beta={str(s): {str(c): {str(a): json_float(v) for a, v in row.items()}
                               for c, row in by_c.items()}
                      for s, by_c in data["beta"].items()},
                f_lower=fmap("f_lower"),
                f_upper=fmap("f_upper"),
                demand=json_float(data["demand"]),
                provenance=json_str(data.get("provenance", "synthetic")),
            )
        except JSON_SHAPE_ERRORS as exc:
            raise ModelError(f"malformed il design-space JSON: {exc!r}") from exc

    def save(self, path) -> None:
        write_json(path, self.to_json_dict())

    @classmethod
    def load(cls, path) -> "IlDesignSpace":
        return cls.from_json_dict(read_json(path, ModelError))


@dataclass(frozen=True)
class DsNode:
    name: str
    inflows: tuple[str, ...]
    outflows: tuple[str, ...]


@dataclass(frozen=True)
class DsDesignSpace:
    """Stream superstructure: one binary per flow, balances at every node."""

    flows: tuple[str, ...]
    nodes: tuple[DsNode, ...]
    costs: Mapping[str, float]
    source: str
    sink: str
    configuration_flows: tuple[str, ...]
    logic_rules: tuple[Constraint, ...] = ()
    units: Mapping[str, str] = field(default_factory=dict)
    provenance: str = "synthetic"

    def __post_init__(self) -> None:
        known = set(self.flows)
        if len(known) != len(self.flows):
            raise ModelError("duplicate flow names")
        if self.source not in known or self.sink not in known:
            raise ModelError("source and sink must be listed flows")
        for node in self.nodes:
            for f in tuple(node.inflows) + tuple(node.outflows):
                if f not in known:
                    raise ModelError(f"node {node.name} references unknown flow {f!r}")
        for f in self.configuration_flows:
            if f not in known:
                raise ModelError(f"configuration flow {f!r} is not a listed flow")
        for f in self.costs:
            if f not in known:
                raise ModelError(f"cost entry for unknown flow {f!r}")
        for rule in self.logic_rules:
            unknown = rule.variables() - known
            if unknown:
                raise ModelError(
                    f"logic rule {rule.label!r} references unknown flows {sorted(unknown)}")

    def to_json_dict(self) -> dict:
        return {
            "provenance": self.provenance,
            "flows": list(self.flows),
            "source": self.source,
            "sink": self.sink,
            "nodes": [
                {"name": n.name, "inflows": list(n.inflows),
                 "outflows": list(n.outflows)}
                for n in self.nodes
            ],
            "costs": dict(self.costs),
            "units": dict(self.units),
            "configuration_flows": list(self.configuration_flows),
            "logic_rules": [rule.to_json_dict() for rule in self.logic_rules],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "DsDesignSpace":
        try:
            return cls(
                flows=json_names(data["flows"]),
                nodes=tuple(
                    DsNode(name=json_str(n["name"]),
                           inflows=json_names(n["inflows"]),
                           outflows=json_names(n["outflows"]))
                    for n in json_list(data["nodes"])
                ),
                costs={str(k): json_float(v) for k, v in data.get("costs", {}).items()},
                source=json_str(data["source"]),
                sink=json_str(data["sink"]),
                configuration_flows=json_names(data["configuration_flows"]),
                logic_rules=tuple(Constraint.from_json_dict(r)
                                  for r in json_list(data.get("logic_rules", []))),
                units={str(k): json_str(v) for k, v in data.get("units", {}).items()},
                provenance=json_str(data.get("provenance", "synthetic")),
            )
        except JSON_SHAPE_ERRORS as exc:
            raise ModelError(f"malformed ds design-space JSON: {exc!r}") from exc

    def save(self, path) -> None:
        write_json(path, self.to_json_dict())

    @classmethod
    def load(cls, path) -> "DsDesignSpace":
        return cls.from_json_dict(read_json(path, ModelError))


def _load_bundled(name: str) -> dict:
    with resources.files("flowqubo.data").joinpath(name).open("r") as fh:
        return json.load(fh)


def load_default_il_space() -> IlDesignSpace:
    return IlDesignSpace.from_json_dict(_load_bundled("il_default.json"))


def load_default_ds_space() -> DsDesignSpace:
    return DsDesignSpace.from_json_dict(_load_bundled("ds_default.json"))


# -- discrete model builders ---------------------------------------------------


def build_il_discrete(space: IlDesignSpace) -> BinaryProgram:
    """Configuration model: which units run, which ionic pair is used.

    Variables: unit selections y, stream binaries (source feeds, reactor to
    separator streams, sink streams), solvent choices z, and a pair indicator
    w per (cation, anion).  The objective is fixed cost plus an operating
    surrogate at the minimum sustainable throughput; the separator part
    depends on the recovery factor of the chosen pair, which is where the
    bilinear y*w terms come from.
    """
    rs, ss = space.reactors, space.separators
    y_r = {r: f"y[{r}]" for r in rs}
    y_s = {s: f"y[{s}]" for s in ss}
    src = {r: f"flow[src,{r}]" for r in rs}
    snk = {s: f"flow[{s},sink]" for s in ss}
    z_c = {c: f"z[{c}]" for c in space.cations}
    z_a = {a: f"z[{a}]" for a in space.anions}
    w = {(c, a): f"w[{c},{a}]" for c in space.cations for a in space.anions}
    x = {(r, s): f"flow[{r},{s}]" for r in rs for s in ss}

    names = (
        [y_r[r] for r in rs] + [src[r] for r in rs]
        + [y_s[s] for s in ss] + [snk[s] for s in ss]
        + [z_c[c] for c in space.cations] + [z_a[a] for a in space.anions]
        + [w[c, a] for c in space.cations for a in space.anions]
        + [x[r, s] for r in rs for s in ss]
    )

    cons: list[Constraint] = []
    for r in rs:
        cons.append(Constraint({src[r]: 1.0, y_r[r]: -1.0}, "=", 0.0,
                               label=f"source flow equals reactor selection [{r}]"))
    for s in ss:
        cons.append(Constraint({snk[s]: 1.0, y_s[s]: -1.0}, "=", 0.0,
                               label=f"sink flow equals separator selection [{s}]"))
    if len(rs) == 2:
        # logical OR written through the product, x + y - x*y = 1
        f1, f2 = src[rs[0]], src[rs[1]]
        cons.append(Constraint({f1: 1.0, f2: 1.0}, "=", 1.0,
                               products=((f1, f2, -1.0),),
                               label="at least one reactor fed"))
    else:
        cons.append(Constraint({src[r]: 1.0 for r in rs}, ">=", 1.0,
                               label="at least one reactor fed"))
    cons.append(Constraint({snk[s]: 1.0 for s in ss}, ">=", 1.0,
                           label="at least one separator to sink"))
    for r in rs:
        for s in ss:
            cons.append(Constraint({x[r, s]: -1.0}, "=", 0.0,
                                   products=((x[r, s], src[r], 1.0),),
                                   label=f"flow only from fed reactor [{r},{s}]"))
    for r in rs:
        for s in ss:
            cons.append(Constraint({x[r, s]: -1.0}, "=", 0.0,
                                   products=((x[r, s], y_s[s], 1.0),),
                                   label=f"flow only into active separator [{r},{s}]"))
    for r in rs:
        linear = {x[r, s]: 1.0 for s in ss}
        linear[src[r]] = -1.0
        cons.append(Constraint(linear, ">=", 0.0,
                               label=f"fed reactor sends flow [{r}]"))
    for s in ss:
        linear = {x[r, s]: 1.0 for r in rs}
        linear[y_s[s]] = -1.0
        cons.append(Constraint(linear, ">=", 0.0,
                               label=f"active separator receives flow [{s}]"))
    cons.append(Constraint({z_c[c]: 1.0 for c in space.cations}, "=", 1.0,
                           label="one cation selected"))
    cons.append(Constraint({z_a[a]: 1.0 for a in space.anions}, "=", 1.0,
                           label="one anion selected"))
    for c in space.cations:
        for a in space.anions:
            cons.append(Constraint({w[c, a]: 1.0}, "=", 0.0,
                                   products=((z_c[c], z_a[a], -1.0),),
                                   label=f"pair indicator equals product [{c},{a}]"))

    objective = {}
    for r in rs:
        objective[y_r[r]] = (space.c_fixed[r]
                             + space.c_oper_reactor[r] * space.alpha[r]
                             * space.f_lower[r])
    for s in ss:
        objective[y_s[s]] = space.c_fixed[s]
    products = []
    for s in ss:
        for c in space.cations:
            for a in space.anions:
                coeff = (space.c_oper_separator[s] * space.beta[s][c][a]
                         * space.f_lower[s])
                if coeff != 0.0:
                    products.append((y_s[s], w[c, a], coeff))

    projection = ([y_r[r] for r in rs] + [y_s[s] for s in ss]
                  + [z_c[c] for c in space.cations]
                  + [z_a[a] for a in space.anions])
    return BinaryProgram(
        var_names=tuple(names),
        objective=objective,
        constraints=tuple(cons),
        objective_products=tuple(products),
        projection=tuple(projection),
    )


def build_ds_discrete(space: DsDesignSpace) -> BinaryProgram:
    """Stream-selection model: active source and sink, balanced nodes,
    compatibility rules from the design space."""
    cons: list[Constraint] = [
        Constraint({space.source: 1.0}, "=", 1.0, label="source/sink activation"),
        Constraint({space.sink: 1.0}, "=", 1.0, label="source/sink activation"),
    ]
    for node in space.nodes:
        linear: dict[str, float] = {}
        for f in node.inflows:
            linear[f] = linear.get(f, 0.0) + 1.0
        for f in node.outflows:
            linear[f] = linear.get(f, 0.0) - 1.0
        cons.append(Constraint(linear, "=", 0.0,
                               label=f"node balance [{node.name}]"))
    cons.extend(space.logic_rules)
    objective = {f: c for f, c in space.costs.items() if c != 0.0}
    return BinaryProgram(
        var_names=tuple(space.flows),
        objective=objective,
        constraints=tuple(cons),
        projection=tuple(space.configuration_flows),
    )


# -- continuous stage ----------------------------------------------------------


# Pattern-search constants: the first step of each start is a quarter of every
# box side, a failed poll halves the steps, and a start ends once the largest
# step is below 1e-6.  A start whose value is above the best found so far
# ends at the failed poll after its steps have been halved 12 times.  Over
# default-space sweeps at seeds 0-19 that raised no continuous objective by
# more than 3.3e-8 relative to refining every start; 10 or 11 halvings raised
# one by 5.3e-5 or 2.7e-5.
_INITIAL_STEP_FRAC = 0.25
_SHRINK = 0.5
_STOP_MESH = 1e-6
_COARSE_SHRINKS = 12


class _BudgetSpent(Exception):
    """The evaluation budget of a pattern search is used up."""


def pattern_search(
    func: Callable[[np.ndarray], float],
    bounds: Sequence[tuple[float, float]],
    *,
    seed=None,
    starts: int = 20,
    budget: int | None = None,
):
    """Multi-start coordinate pattern search with an extreme barrier.

    ``func`` returns the objective or infinity for infeasible points.  The
    first start is the box center, the rest are uniform draws.  Each start
    begins with steps of ``_INITIAL_STEP_FRAC`` times the box sides.  Polling
    visits coordinates in order, +step before -step, and accepts the first
    strict improvement; a failed poll multiplies the steps by ``_SHRINK``
    until the largest drops below ``_STOP_MESH``.  Only the start holding the
    best point refines that far: once a start's steps have been halved
    ``_COARSE_SHRINKS`` times, a failed poll ends it if its value is above
    the best found so far.  The first start therefore always runs to
    ``_STOP_MESH`` (a one-start search is the full refinement), each later
    start evaluates a prefix of its full refinement, and a start ends early
    only once a finite value exists, so the stop never turns a feasible
    search infeasible.  Without a budget the best value can only rise, by
    the little a stopped start would still have gained; with one, the
    evaluations saved go to later starts.  Candidates are clipped to the box and skipped when
    the clip lands back on the current point.  An evaluated point is never
    modified afterwards.  With a budget, evaluation number ``budget`` is the
    last one; the evaluation sequence for a larger budget extends the one for
    a smaller, so more budget never worsens the result.  ``starts`` and
    ``budget`` must be at least 1.

    Returns ``(best_x, best_value, evaluations)`` with ``best_x = None``
    when no evaluation returned a finite value.
    """
    lb = np.array([b[0] for b in bounds], dtype=float)
    ub = np.array([b[1] for b in bounds], dtype=float)
    if lb.size == 0:
        raise ValueError("bounds must be non-empty")
    if not (np.isfinite(lb).all() and np.isfinite(ub).all() and (lb <= ub).all()):
        raise ValueError("bounds must be finite with lower <= upper")
    if budget is not None and budget < 1:
        raise ValueError("budget must be at least 1")
    if starts < 1:
        raise ValueError("starts must be at least 1")

    rng = np.random.default_rng(seed)
    # the poll loop works on Python floats; func still gets a fresh ndarray
    lo, hi = lb.tolist(), ub.tolist()
    coords = range(len(lo))
    array = np.array
    evals = 0
    best_val = math.inf
    best_x: np.ndarray | None = None

    limit = math.inf if budget is None else budget

    # each evaluation is written out inline: budget check, a fresh ndarray,
    # the count, then the best point so far as a copy of what func was given
    try:
        for start_index in range(starts):
            xs = ((lb + ub) / 2.0 if start_index == 0
                  else rng.uniform(lb, ub)).tolist()
            if evals >= limit:
                raise _BudgetSpent
            point = array(xs)
            fx = float(func(point))
            evals += 1
            if fx < best_val:
                best_val, best_x = fx, point.copy()
            step = [_INITIAL_STEP_FRAC * (u - l) for l, u in zip(lo, hi)]
            shrinks = 0
            while True:
                accepted = False
                for i in coords:
                    xi, lo_i, hi_i = xs[i], lo[i], hi[i]
                    for delta in (step[i], -step[i]):
                        # min(max(xi + delta, lo_i), hi_i), comparison for comparison
                        cand_i = xi + delta
                        if lo_i > cand_i:
                            cand_i = lo_i
                        if hi_i < cand_i:
                            cand_i = hi_i
                        if cand_i == xi:
                            continue
                        if evals >= limit:
                            raise _BudgetSpent
                        # xs is the poll's own list: the candidate is written
                        # into it and taken back out unless it is accepted
                        xs[i] = cand_i
                        point = array(xs)
                        fc = float(func(point))
                        evals += 1
                        if fc < best_val:
                            best_val, best_x = fc, point.copy()
                        if fc < fx:
                            fx = fc
                            accepted = True
                            break
                    if accepted:
                        break
                    xs[i] = xi
                if accepted:
                    continue
                if max(step) < _STOP_MESH:
                    break
                if shrinks == _COARSE_SHRINKS and fx > best_val:
                    break
                step = [s * _SHRINK for s in step]
                shrinks += 1
    except _BudgetSpent:
        pass
    return best_x, best_val, evals


def _parse_selection(space: IlDesignSpace, fixed) -> tuple[list, list, str, str]:
    groups = (list(space.reactors), list(space.separators),
              list(space.cations), list(space.anions))
    prefixes = ("y", "y", "z", "z")
    if isinstance(fixed, Mapping):
        picked = [[u for u in group if int(fixed.get(f"{p}[{u}]", 0))]
                  for group, p in zip(groups, prefixes)]
    else:
        flat = [int(b) for b in fixed]
        expected = sum(len(g) for g in groups)
        if len(flat) != expected:
            raise ModelError(
                f"selection vector needs {expected} bits "
                f"(reactors, separators, cations, anions), got {len(flat)}")
        picked = []
        pos = 0
        for group in groups:
            picked.append([u for u, b in zip(group, flat[pos:pos + len(group)]) if b])
            pos += len(group)
    sel_r, sel_s, sel_c, sel_a = picked
    if not sel_r or not sel_s:
        raise ModelError("configuration selects no reactor or no separator")
    if len(sel_c) != 1 or len(sel_a) != 1:
        raise ModelError("configuration must select exactly one cation and one anion")
    return sel_r, sel_s, sel_c[0], sel_a[0]


# a throughput up to this is zero; the windows and the demand are widened by it
_IL_TOL = 1e-9


def _compile_il(space: IlDesignSpace, fixed,
                budget: int | None) -> tuple[BlackBoxObjective, Callable]:
    """One il configuration compiled into its objective and ``flows``.

    Search variables are the reactor-to-separator transfers, one per
    (selected reactor, selected separator) pair in that order; reactor feeds
    and separator intakes follow from them.  Every unit has a slot in one
    ``levels`` list, reactors then separators.  The objective's evaluator is
    a closure over flat tuples of Python floats, built once, that calls no
    helper; ``flows(x)`` maps every stream name to its flow at transfers ``x``.
    """
    sel_r, sel_s, cation, anion = _parse_selection(space, fixed)
    tol = _IL_TOL
    units = sel_r + sel_s
    n_r = len(sel_r)
    pairs = [(r, s) for r in sel_r for s in sel_s]
    bounds = tuple(
        (0.0, min(space.f_upper[s], space.alpha[r] * space.f_upper[r]))
        for r, s in pairs)
    # per transfer: reactor slot, separator slot, conversion
    transfers = tuple(
        (i, n_r + j, space.alpha[r])
        for i, r in enumerate(sel_r) for j in range(len(sel_s)))
    # per unit: a throughput is inadmissible above ``upper`` and strictly
    # between the zero level and ``lower``
    windows = tuple((k, space.f_upper[u] + tol, space.f_lower[u] - tol)
                    for k, u in enumerate(units))
    invest_r = tuple(space.c_invest[r] for r in sel_r)
    # per separator: slot, recovery, investment, energy
    separators = tuple(
        (n_r + j, space.beta[s][cation][anion], space.c_invest[s], space.c_energy[s])
        for j, s in enumerate(sel_s))
    zeros = [0.0] * len(units)
    fixed_cost = sum(space.c_fixed[u] for u in units)
    min_recovered = space.demand - tol
    inf = math.inf

    def evaluate(_fixed, x: np.ndarray) -> tuple[float, str]:
        xs = x.tolist()
        if min(xs) < 0.0:
            return inf, "negative flow"
        levels = zeros.copy()
        for (r, s, alpha), v in zip(transfers, xs):
            levels[r] += v / alpha
            levels[s] += v
        for k, up, lo in windows:
            f = levels[k]
            if f > up or (f > tol and f < lo):
                return inf, "throughput outside its window"
        recovered = 0
        for k, b, _, _ in separators:
            recovered += b * levels[k]
        if recovered < min_recovered:
            return inf, "demand shortfall"
        value = fixed_cost
        for c, f in zip(invest_r, levels):
            value += c * f ** 0.6
        for k, _, c, e in separators:
            f = levels[k]
            value += c * f ** 0.6 + e * f
        return value, "ok"

    def flows(xs: Sequence[float]) -> dict:
        levels = zeros.copy()
        for (r, s, alpha), v in zip(transfers, xs):
            levels[r] += v / alpha
            levels[s] += v
        return {**{f"src->{r}": f for r, f in zip(sel_r, levels)},
                **{f"{r}->{s}": v for (r, s), v in zip(pairs, xs)},
                **{f"{s}->out": b * levels[k]
                   for s, (k, b, _, _) in zip(sel_s, separators)}}

    return BlackBoxObjective(evaluate, bounds, budget), flows


def il_continuous_solve(
    space: IlDesignSpace,
    fixed,
    *,
    seed=None,
    budget: int | None = None,
    starts: int = 20,
) -> dict:
    """Flow sizing for one fixed configuration.

    ``fixed`` names it by the il program's projection keys, ``y[unit]``
    for reactors and separators and ``z[ion]`` for cations and anions (an
    absent key reads 0), or gives its bits in projection order: reactors,
    separators, cations, anions.  Search variables are the
    reactor-to-separator transfers; reactor feeds and separator intakes
    follow from them.  Unit throughputs are semicontinuous (zero or inside
    [f_lower, f_upper]) and the recovered product must meet the demand.
    The objective adds fixed costs of the selected units, concave
    investment terms on throughputs, and a linear energy term on separator
    intake.  The configuration is compiled once into the search box and
    evaluator of a :class:`BlackBoxObjective` that :func:`run_blackbox`
    optimizes.  Returns ``flows``, ``objective``,
    ``evaluations`` and ``status``: "ok", or "continuous-infeasible" (no
    flows, objective ``None``) when no evaluated point was feasible.
    """
    objective, flows = _compile_il(space, fixed, budget)
    result = run_blackbox(objective, fixed, seed, starts=starts)
    ok = result["status"] == "ok"
    return {"flows": flows(result["best_params"]) if ok else {},
            "objective": result["best_score"],
            "status": "ok" if ok else "continuous-infeasible",
            "evaluations": result["evaluations"]}


@dataclass(frozen=True)
class BlackBoxObjective:
    """External continuous evaluator attached to a discrete configuration.

    ``evaluate(fixed, params)`` returns ``(score, status)``; any status other
    than "ok" marks the point infeasible.  ``bounds`` are per-parameter boxes
    and ``budget`` caps the number of evaluations per optimization run.
    """

    evaluate: Callable[[Mapping, np.ndarray], tuple[float, str]]
    bounds: tuple[tuple[float, float], ...]
    budget: int | None = None


def run_blackbox(objective: BlackBoxObjective, fixed, seed=None, *,
                 starts: int = 20) -> dict:
    """Optimize one black-box configuration with :func:`pattern_search`.

    A status other than "ok" bars the point with an infinite value;
    ``last_failure`` is ``(params, status)`` of the last barred point.
    """
    last_x = last_status = None
    evaluate = objective.evaluate

    def barrier(x: np.ndarray) -> float:
        nonlocal last_x, last_status
        score, status = evaluate(fixed, x)
        if status != "ok":
            last_x, last_status = x, status
            return math.inf
        return float(score)

    best_x, best_val, evals = pattern_search(
        barrier, objective.bounds, seed=seed, starts=starts,
        budget=objective.budget)
    ok = best_x is not None and math.isfinite(best_val)
    return {"best_params": tuple(float(v) for v in best_x) if ok else None,
            "best_score": best_val if ok else None, "evaluations": evals,
            "status": "ok" if ok else "no-feasible-evaluation",
            "last_failure": None if last_x is None else
            (tuple(float(v) for v in last_x), str(last_status))}


def sweep_il(
    space: IlDesignSpace,
    *,
    seed: int = 0,
    budget_per_config: int | None = None,
    starts: int = 20,
) -> list[dict]:
    """Both objectives for every feasible configuration.

    Branch and bound (``enumerate_all``) lists every feasible configuration
    with its discrete objective; each then gets its own continuous solve
    with a child seed derived from the sweep seed and its position, so
    single configurations can be reproduced without rerunning the sweep.
    Rows are sorted by configuration id (the projected bit string) and hold
    ``config_id``, ``discrete_objective``, ``continuous_objective``,
    ``status``, and ``evaluations``, the number of pattern-search
    evaluations the continuous solve spent.
    """
    program = build_il_discrete(space)
    # projected bits sort like their config ids; no two configurations tie
    configs = sorted((program.project(rec.assignment), rec.objective)
                     for rec in branch_and_bound(program, "enumerate_all").records)
    rows = []
    for pos, (bits, discrete_objective) in enumerate(configs):
        child_seed = np.random.SeedSequence(entropy=seed, spawn_key=(pos,))
        result = il_continuous_solve(
            space, dict(zip(program.projection, bits)), seed=child_seed,
            budget=budget_per_config, starts=starts)
        rows.append({
            "config_id": "".join(map(str, bits)),
            "discrete_objective": discrete_objective,
            "continuous_objective": result["objective"],
            "status": result["status"],
            "evaluations": result["evaluations"],
        })
    return rows
