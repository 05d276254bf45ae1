"""Constrained binary programs.

A :class:`BinaryProgram` is a minimization over 0/1 variables with a sparse
objective and a list of :class:`Constraint` rows.  Constraint left-hand sides
may contain bilinear product terms ``coeff * x_u * x_v`` next to the linear
part; the objective may carry such products as well, which keeps
configuration models with selection-dependent operating costs expressible
without auxiliary variables.  A designated ``projection`` subset of the
variables identifies what counts as a distinct configuration when solutions
are enumerated or compared.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import (
    JSON_SHAPE_ERRORS,
    DimensionError,
    ModelError,
    json_float,
    json_list,
    json_names,
    json_str,
    read_json,
    write_json,
)

__all__ = [
    "SENSES",
    "Constraint",
    "BinaryProgram",
    "no_good_cut",
    "normalize_constraint",
]

SENSES = ("=", "<=", ">=")
# the one feasibility tolerance: decode, the oracle, branch and bound and
# verify all judge a row by it
_FEAS_TOL = 1e-9


def row_holds(sense: str, lhs, rhs: float):
    """Whether ``lhs <sense> rhs`` holds within ``_FEAS_TOL``; elementwise
    for an array ``lhs``."""
    if sense == "=":
        return abs(lhs - rhs) <= _FEAS_TOL
    if sense == "<=":
        return lhs <= rhs + _FEAS_TOL
    return lhs >= rhs - _FEAS_TOL


def _bilinear_sum(total: float, linear: Mapping[str, float], products,
                  values: Mapping[str, int]) -> float:
    """``total`` plus the linear terms, then the product terms, at ``values``."""
    for name, coeff in linear.items():
        total += coeff * values[name]
    for u, v, coeff in products:
        total += coeff * values[u] * values[v]
    return total


def _check_products(products) -> tuple[tuple[str, str, float], ...]:
    out = []
    for u, v, coeff in products:
        if u == v:
            raise ModelError(f"product term pairs distinct variables, got ({u!r}, {u!r})")
        out.append((str(u), str(v), float(coeff)))
    return tuple(out)


@dataclass(frozen=True, eq=True)
class Constraint:
    """One row ``linear . x + sum coeff * x_u * x_v  <sense>  rhs``."""

    linear: Mapping[str, float]
    sense: str
    rhs: float
    products: tuple[tuple[str, str, float], ...] = ()
    label: str = ""

    def __post_init__(self) -> None:
        if self.sense not in SENSES:
            raise ModelError(f"sense must be one of {SENSES}, got {self.sense!r}")
        object.__setattr__(self, "linear", dict(self.linear))
        object.__setattr__(self, "products", _check_products(self.products))

    def variables(self) -> frozenset[str]:
        names = set(self.linear)
        for u, v, _ in self.products:
            names.add(u)
            names.add(v)
        return frozenset(names)

    def value(self, values: Mapping[str, int]) -> float:
        return _bilinear_sum(0.0, self.linear, self.products, values)

    def satisfied(self, values: Mapping[str, int]) -> bool:
        return row_holds(self.sense, self.value(values), self.rhs)

    def to_json_dict(self) -> dict:
        return {
            "linear": {k: self.linear[k] for k in sorted(self.linear)},
            "products": [[u, v, c] for u, v, c in self.products],
            "sense": self.sense,
            "rhs": self.rhs,
            "label": self.label,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Constraint":
        return cls(
            linear={str(k): json_float(v) for k, v in data.get("linear", {}).items()},
            sense=json_str(data["sense"]),
            rhs=json_float(data["rhs"]),
            products=_products_from_json(data.get("products", [])),
            label=json_str(data.get("label", "")),
        )


def _products_from_json(value) -> tuple[tuple[str, str, float], ...]:
    return tuple((json_str(u), json_str(v), json_float(c))
                 for u, v, c in map(json_list, json_list(value)))


@dataclass(frozen=True)
class BinaryProgram:
    """Minimization of a (possibly bilinear) objective over 0/1 variables."""

    var_names: tuple[str, ...]
    objective: Mapping[str, float]
    constraints: tuple[Constraint, ...] = ()
    objective_constant: float = 0.0
    objective_products: tuple[tuple[str, str, float], ...] = ()
    projection: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        names = tuple(str(n) for n in self.var_names)
        if len(set(names)) != len(names):
            raise ModelError("duplicate variable names")
        object.__setattr__(self, "var_names", names)
        object.__setattr__(self, "objective", dict(self.objective))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        object.__setattr__(self, "objective_products", _check_products(self.objective_products))
        object.__setattr__(self, "projection", tuple(str(n) for n in self.projection))
        known = set(names)
        for name in self.objective:
            if name not in known:
                raise ModelError(f"objective references unknown variable {name!r}")
        for u, v, _ in self.objective_products:
            if u not in known or v not in known:
                raise ModelError(f"objective product references unknown variable ({u!r}, {v!r})")
        for con in self.constraints:
            unknown = con.variables() - known
            if unknown:
                raise ModelError(
                    f"constraint {con.label!r} references unknown variable(s) {sorted(unknown)}")
        for name in self.projection:
            if name not in known:
                raise ModelError(f"projection references unknown variable {name!r}")

    # -- bookkeeping ---------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return len(self.var_names)

    def as_map(self, assignment: Sequence[int]) -> dict[str, int]:
        if len(assignment) != self.num_vars:
            raise DimensionError(
                f"assignment has {len(assignment)} entries, program has {self.num_vars}")
        values = {}
        for name, bit in zip(self.var_names, assignment):
            if bit not in (0, 1):
                raise ModelError(f"assignment value for {name!r} must be 0 or 1, got {bit!r}")
            values[name] = int(bit)
        return values

    # -- evaluation ----------------------------------------------------------

    def objective_value(self, assignment: Sequence[int]) -> float:
        return _bilinear_sum(self.objective_constant, self.objective,
                             self.objective_products, self.as_map(assignment))

    def violations(self, assignment: Sequence[int]) -> list[str]:
        """Labels of all constraints the assignment violates."""
        values = self.as_map(assignment)
        return [c.label for c in self.constraints if not c.satisfied(values)]

    def is_feasible(self, assignment: Sequence[int]) -> bool:
        return not self.violations(assignment)

    @cached_property
    def key_indices(self) -> tuple[int, ...]:
        """Positions of the variables that make up a configuration: the
        projection's, in its order, or all of them when it is empty."""
        return tuple(map(self.var_names.index, self.projection or self.var_names))

    def project(self, assignment: Sequence[int]) -> tuple[int, ...]:
        """The configuration key of an assignment of the model's width: its
        bits at :attr:`key_indices`.  Any other width raises
        :class:`~flowqubo.errors.DimensionError`."""
        bits = tuple(self.as_map(assignment).values())
        return tuple(bits[i] for i in self.key_indices)

    def with_constraints(self, extra: Iterable[Constraint]) -> "BinaryProgram":
        return replace(self, constraints=self.constraints + tuple(extra))

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "var_names": list(self.var_names),
            "objective": {
                "linear": {k: self.objective[k] for k in sorted(self.objective)},
                "products": [[u, v, c] for u, v, c in self.objective_products],
                "constant": self.objective_constant,
            },
            "constraints": [c.to_json_dict() for c in self.constraints],
            "projection": list(self.projection),
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "BinaryProgram":
        try:
            obj = data.get("objective", {})
            return cls(
                var_names=json_names(data["var_names"]),
                objective={str(k): json_float(v) for k, v in obj.get("linear", {}).items()},
                constraints=tuple(Constraint.from_json_dict(c)
                                  for c in json_list(data.get("constraints", []))),
                objective_constant=json_float(obj.get("constant", 0.0)),
                objective_products=_products_from_json(obj.get("products", [])),
                projection=json_names(data.get("projection", [])),
            )
        except JSON_SHAPE_ERRORS as exc:
            raise ModelError(f"malformed program JSON: {exc}") from exc

    def save(self, path) -> None:
        write_json(path, self.to_json_dict())

    @classmethod
    def load(cls, path) -> "BinaryProgram":
        return cls.from_json_dict(read_json(path, ModelError))


def no_good_cut(values: Mapping[str, int], over: Sequence[str], label: str = "") -> Constraint:
    """Linear cut excluding one assignment of the ``over`` subset.

    ``sum_{v: values[v]=1} (1 - x_v) + sum_{v: values[v]=0} x_v >= 1`` forces
    at least one of the listed variables to differ from ``values``.  Any other
    assignment of the subset keeps a left-hand side of at least 1, so exactly
    one point of the projected space is removed.
    """
    over = list(over)
    if not over:
        raise ValueError("no_good_cut needs a non-empty variable subset")
    if len(set(over)) != len(over):
        raise ValueError("no_good_cut subset contains duplicates")
    linear: dict[str, float] = {}
    ones = 0
    for name in over:
        try:
            bit = values[name]
        except KeyError:
            raise ModelError(f"assignment does not cover variable {name!r}") from None
        if bit not in (0, 1):
            raise ModelError(f"assignment value for {name!r} must be 0 or 1")
        if bit:
            linear[name] = -1.0
            ones += 1
        else:
            linear[name] = 1.0
    if not label:
        label = "no-good[%s]" % "".join(str(values[name]) for name in over)
    return Constraint(linear=linear, sense=">=", rhs=1.0 - ones, label=label)


def normalize_constraint(con: Constraint) -> Constraint:
    """Rewrite two redundant product patterns into plain linear rows.

    * ``q*(x*y) - q*x = 0``  becomes  ``x <= y``  (and symmetrically for y):
      over binaries, ``x*y = x`` just says x cannot be on without y.
    * ``a*x + a*y - a*(x*y) = a``  becomes  ``x + y >= 1``: inclusion-
      exclusion of an OR.

    Either pattern misses its right-hand side by ``|q|`` at the one point
    its rewrite rejects, so it is rewritten only when ``|q| > _FEAS_TOL``.
    Anything else is returned unchanged; generic products are handled later
    by auxiliary-variable linearization.
    """
    if len(con.products) != 1 or con.sense != "=":
        return con
    u, v, q = con.products[0]
    if abs(q) <= _FEAS_TOL:
        return con
    lin = {k: c for k, c in con.linear.items() if c != 0.0}

    # pattern: q*x*y - q*x = 0  ->  x - y <= 0
    if con.rhs == 0.0 and len(lin) == 1:
        (name, coeff), = lin.items()
        if name in (u, v) and coeff == -q:
            other = v if name == u else u
            return Constraint(
                linear={name: 1.0, other: -1.0},
                sense="<=",
                rhs=0.0,
                label=con.label,
            )

    # pattern: a*x + a*y - a*x*y = a  ->  x + y >= 1
    if set(lin) == {u, v}:
        a = lin[u]
        if lin[v] == a and q == -a and con.rhs == a:
            return Constraint(
                linear={u: 1.0, v: 1.0},
                sense=">=",
                rhs=1.0,
                label=con.label,
            )
    return con
