"""Penalty reformulation of binary programs into QUBO form.

The transform minimizes ``obj(x) + sum_c rho_c * (lhs_c(x, s) - rhs_c)^2``
where inequality rows gain binary slack expansions and every product of two
decision variables is replaced by an auxiliary variable tied down with a
Rosenberg gadget.  With the default penalty weight (one plus the total
absolute objective coefficient mass) the QUBO minimum is attained exactly at
the feasible optima of the source program.

:func:`verify` checks the QUBO term by term against a penalty model, then
certifies that model by exhaustive scan: it enumerates the source
assignments and minimizes the energy over slack and auxiliary completions in
closed form, so a QUBO beyond the usual exhaustive bound is still checkable.
The scan runs on the oracle's survivor-filtered code kernel and reads one
record per compiled row (:class:`_ScanRow`): a first pass completes only the
feasible assignments, and a second drops every assignment whose objective
plus product-free row penalties, a lower bound on its completion energy,
already exceeds what a dominance failure or the QUBO minimum can reach.
Both passes skip the chunks of codes whose row spans already rule out every
code in them.  Every slack decision reads the sign map ``_SLACK_SIGN``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionError,
    ExhaustiveLimitError,
    ReformulationError,
)
from .ip import _FEAS_TOL, BinaryProgram, Constraint, normalize_constraint, row_holds
from .qubo import QuboModel
from .solvers import (
    _VAR_LIMIT,
    LinearForm,
    SampleRecord,
    SampleSet,
    _bit_rows,
    _chunk_count,
    _code_chunks,
    _feasible_codes,
    _program_tables,
    _row_evaluator,
)

__all__ = [
    "DecodedSample",
    "Reformulation",
    "VerificationReport",
    "default_penalty",
    "rosenberg_penalty",
    "reformulate",
    "verify",
]

_INT_TOL = 1e-9
# verify reports at most this many exactness and dominance failures each
_MAX_FAILURES = 20
# verify refuses an auxiliary component with more product pairs than this
_GROUP_LIMIT = 16
# verify accepts a QUBO entry this close to its penalty model, relative to
# the magnitudes summed into it: float sums of k terms stray by about k*2^-53
_MODEL_RTOL = 1e-12
# slack bit k adds sign * 2^k to a row's left-hand side; an equality has none
_SLACK_SIGN = {"<=": 1, ">=": -1, "=": 0}


def default_penalty(program: BinaryProgram) -> float:
    """One plus the total absolute coefficient mass of the objective.

    Any constraint violation costs at least ``rho`` while the objective can
    change the energy by at most ``rho - 1`` across the whole cube, so every
    infeasible assignment lands strictly above every feasible one.
    """
    total = sum(abs(c) for c in program.objective.values())
    total += sum(abs(q) for _, _, q in program.objective_products)
    return 1.0 + total


def rosenberg_penalty(xi: int, xj: int, w: int) -> int:
    """Gadget value ``xi*xj - 2*(xi + xj)*w + 3*w``.

    Zero exactly when ``w == xi*xj`` and at least one otherwise, so scaling
    by the penalty weight pins the auxiliary to the product it stands for.
    """
    return xi * xj - 2 * (xi + xj) * w + 3 * w


@dataclass(frozen=True)
class DecodedSample:
    assignment: tuple[int, ...]
    feasible: bool
    objective: float
    violations: tuple[str, ...]


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    num_source_assignments: int
    feasible_count: int
    feasible_optimum: float | None
    qubo_minimum: float
    qubo_argmin: tuple[int, ...]
    argmin_objective: float
    argmin_feasible: bool
    exactness_failures: tuple = ()
    dominance_failures: tuple = ()
    rho: float = 0.0


@dataclass(frozen=True)
class Reformulation:
    """A QUBO together with the bookkeeping needed to map answers back.

    ``slack_groups[c]`` holds the QUBO indices of source constraint ``c``'s
    slack bits, empty for an equality: bit ``k`` weighs ``2^k``, added on a
    ``<=`` row and subtracted on a ``>=`` row (``_SLACK_SIGN``).
    """

    source: BinaryProgram
    qubo: QuboModel
    aux_products: Mapping[tuple[int, int], int]
    slack_groups: tuple[tuple[int, ...], ...]
    rho: float
    constraint_rho: Mapping[str, float] | None = None

    @property
    def normalized(self) -> tuple[Constraint, ...]:
        """The source constraints as :func:`normalize_constraint` rewrites them."""
        return tuple(normalize_constraint(con) for con in self.source.constraints)

    def constraint_weight(self, label: str) -> float:
        return _constraint_weight(self.rho, self.constraint_rho, label)

    def decode(self, bits: Sequence[int]) -> DecodedSample:
        """Strip slack and auxiliary bits, re-check against the source model.

        Feasibility is always recomputed from the original constraints; the
        penalty terms are never trusted.
        """
        if len(bits) != self.qubo.num_vars:
            raise DimensionError(
                f"expected {self.qubo.num_vars} bits, got {len(bits)}")
        source_bits = tuple(int(b) for b in bits[: self.source.num_vars])
        violations = tuple(self.source.violations(source_bits))
        return DecodedSample(
            assignment=source_bits,
            feasible=not violations,
            objective=self.source.objective_value(source_bits),
            violations=violations,
        )

    def decode_sampleset(self, samples: SampleSet) -> SampleSet:
        """Decode every record; duplicates collapse onto the lowest energy."""
        decoded_records = []
        for rec in samples.records:
            d = self.decode(rec.assignment)
            decoded_records.append(SampleRecord(
                assignment=d.assignment,
                energy=rec.energy,
                occurrences=rec.occurrences,
                objective=d.objective,
                feasible=d.feasible,
            ))
        return SampleSet.build(
            decoded_records,
            samples.solver,
            tau=samples.tau,
            seed=samples.seed,
            status=samples.status,
            metadata=samples.metadata,
            time_breakdown=samples.time_breakdown,
        )

    def sidecar_json_dict(self) -> dict:
        """Mapping data an external consumer needs to interpret the QUBO,
        derived from the source variable names and the normalized rows."""
        names = self.source.var_names
        return {
            "num_source_vars": self.source.num_vars,
            "num_qubo_vars": self.qubo.num_vars,
            "rho": self.rho,
            "constraint_rho": dict(self.constraint_rho) if self.constraint_rho else None,
            "offset": self.qubo.offset,
            "var_map": {name: idx for idx, name in enumerate(names)},
            "aux_products": [
                [names[i], names[j], idx]
                for (i, j), idx in sorted(self.aux_products.items())
            ],
            "slack_groups": [
                {
                    "constraint_index": ci,
                    "label": con.label,
                    "sense": con.sense,
                    "indices": list(indices),
                    "weights": [1 << k for k in range(len(indices))],
                    "sign": _SLACK_SIGN[con.sense],
                }
                for ci, (con, indices) in enumerate(
                    zip(self.normalized, self.slack_groups, strict=True))
            ],
        }


def _constraint_weight(rho: float, overrides: Mapping[str, float] | None, label: str) -> float:
    """The penalty weight of the row ``label``: its override, else ``rho``."""
    return overrides.get(label, rho) if overrides else rho


def _near_integer(value: float) -> bool:
    return abs(value - round(value)) <= _INT_TOL


def _slack_range(con: Constraint) -> int:
    """Integer slack range of an inequality row, the largest ``sign * (rhs -
    lhs)`` over binary assignments; raises when ill-posed."""
    coeffs = list(con.linear.values()) + [q for _, _, q in con.products]
    for value in coeffs + [con.rhs]:
        if not _near_integer(value):
            raise ReformulationError(
                f"constraint {con.label!r}: inequality coefficients and right-hand "
                f"side must be integers for exact slack encoding, got {value}")
    sign = _SLACK_SIGN[con.sense]
    span = sign * round(con.rhs) - sum(min(0, sign * round(c)) for c in coeffs)
    if span < 0:
        raise ReformulationError(
            f"constraint {con.label!r} can never hold over binary assignments "
            f"(slack range {span})")
    return span


def _merged_pairs(con: Constraint,
                  index: Mapping[str, int]) -> dict[tuple[int, int], float]:
    """One summed coefficient per product pair of ``con``, keyed by the
    index-ordered pair; pairs that sum to zero are dropped."""
    pairs: dict[tuple[int, int], float] = {}
    for u, v, q in con.products:
        iu, iv = index[u], index[v]
        key = (min(iu, iv), max(iu, iv))
        pairs[key] = pairs.get(key, 0.0) + q
    return {key: q for key, q in pairs.items() if q != 0.0}


def reformulate(
    program: BinaryProgram,
    rho: float | None = None,
    constraint_rho: Mapping[str, float] | None = None,
) -> Reformulation:
    """Build the penalty QUBO for ``program``.

    ``rho`` defaults to :func:`default_penalty`.  ``constraint_rho`` maps
    constraint labels to per-constraint weights overriding the global one
    (the product gadgets always use the global weight).  Variable order:
    source variables first, then one auxiliary per distinct product pair,
    then slack bits grouped by constraint (``slack_groups``).
    """
    if rho is None:
        rho = default_penalty(program)
    if not rho > 0:
        raise ValueError(f"penalty weight must be positive, got {rho}")
    if constraint_rho:
        labels = {con.label for con in program.constraints}
        for key, value in constraint_rho.items():
            if key not in labels:
                raise ReformulationError(
                    f"constraint_rho references unknown label {key!r}")
            if not value > 0:
                raise ValueError(
                    f"penalty weight for {key!r} must be positive, got {value}")

    n = program.num_vars
    index = {name: i for i, name in enumerate(program.var_names)}
    normalized = tuple(normalize_constraint(con) for con in program.constraints)

    con_pairs = [_merged_pairs(con, index) for con in normalized]

    all_pairs = sorted({key for pairs in con_pairs for key in pairs})
    aux_products = {pair: n + k for k, pair in enumerate(all_pairs)}
    var = program.var_names
    names = [*var, *(f"aux[{var[i]}*{var[j]}]" for i, j in all_pairs)]

    terms: dict[tuple[int, int], float] = {}
    offset = program.objective_constant

    def add(i: int, j: int, value: float) -> None:
        key = (i, j) if i <= j else (j, i)
        terms[key] = terms.get(key, 0.0) + value

    for name, coeff in program.objective.items():
        add(index[name], index[name], coeff)
    for u, v, q in program.objective_products:
        add(index[u], index[v], q)

    slack_groups: list[tuple[int, ...]] = []
    for ci, con in enumerate(normalized):
        weight = _constraint_weight(rho, constraint_rho, con.label)
        entries = [(index[name], coeff) for name, coeff in con.linear.items() if coeff != 0.0]
        entries += [(aux_products[key], q) for key, q in con_pairs[ci].items()]
        sign = _SLACK_SIGN[con.sense]
        bits = _slack_range(con).bit_length() if sign else 0
        slack = tuple(range(len(names), len(names) + bits))
        names += [f"slack[{ci}.{k}]" for k in range(bits)]
        slack_groups.append(slack)
        entries += [(idx, float(sign << k)) for k, idx in enumerate(slack)]
        rhs = con.rhs
        offset += weight * rhs * rhs
        for pos, (i, a) in enumerate(entries):
            add(i, i, weight * (a * a - 2.0 * rhs * a))
            for j, b in entries[pos + 1:]:
                add(i, j, 2.0 * weight * a * b)

    for (i, j), w_idx in aux_products.items():
        add(i, j, rho)
        add(i, w_idx, -2.0 * rho)
        add(j, w_idx, -2.0 * rho)
        add(w_idx, w_idx, 3.0 * rho)

    qubo = QuboModel.from_terms(len(names), terms, offset, var_names=names)
    return Reformulation(
        source=program,
        qubo=qubo,
        aux_products=aux_products,
        slack_groups=tuple(slack_groups),
        rho=rho,
        constraint_rho=dict(constraint_rho) if constraint_rho else None,
    )


# -- exhaustive certification --------------------------------------------------


def _check_layout(reform: Reformulation,
                  con_pairs: Sequence[Mapping[tuple[int, int], float]]) -> None:
    """Raise :class:`~flowqubo.errors.ReformulationError` unless ``reform``
    has a QUBO at least as wide as its source program, one slack group per
    source constraint, an auxiliary for every pair in ``con_pairs`` (the
    merged product pairs of the normalized rows), and every slack and
    auxiliary index in ``[source.num_vars, qubo.num_vars)``, each used
    once."""
    n, size = reform.source.num_vars, reform.qubo.num_vars
    if size < n:
        raise ReformulationError(
            f"the QUBO has {size} variables, fewer than the {n} source variables")
    if len(reform.slack_groups) != len(con_pairs):
        raise ReformulationError(
            f"{len(reform.slack_groups)} slack groups for {len(con_pairs)} constraints")
    missing = sorted({key for pairs in con_pairs for key in pairs} - set(reform.aux_products))
    if missing:
        raise ReformulationError(f"product pair {missing[0]} has no auxiliary variable")
    used = [*reform.aux_products.values(), *itertools.chain(*reform.slack_groups)]
    for idx in used:
        if not n <= idx < size:
            raise ReformulationError(
                f"auxiliary or slack index {idx} lies outside [{n}, {size})")
        if used.count(idx) > 1:
            raise ReformulationError(f"auxiliary or slack index {idx} is used twice")


class _ScanRow(NamedTuple):
    """What the scan in :func:`verify` reads of one compiled row; the first
    three fields are what :func:`~flowqubo.solvers._feasible_codes` reads.
    ``evaluate`` and ``span`` are :func:`~flowqubo.solvers._row_evaluator`'s
    on ``form``.  A product-free row has no ``pairs``."""

    evaluate: Callable[[np.ndarray], np.ndarray]
    sense: str
    rhs: float
    form: LinearForm                            # the compiled left-hand side
    span: tuple[np.ndarray, np.ndarray] | None  # (lo, hi) by chunk; None unless split
    weight: float
    slack: tuple[int, ...]                      # QUBO indices of the slack bits
    pairs: Mapping[tuple[int, int], float]      # merged coefficient by source pair (i, j)

    @property
    def max_slack(self) -> float:
        return float((1 << len(self.slack)) - 1)

    def residual(self, codes: np.ndarray) -> np.ndarray:
        """lhs - rhs before slack and auxiliaries, on chunk codes: a product
        row's linear part, since auxiliaries stand in for its products."""
        if self.pairs:
            return self.form._replace(const=-float(self.rhs), products=()).values(codes)
        return self.evaluate(codes) - self.rhs


class _ScanTables:
    """Precomputed structure for the decomposition scan in :func:`verify`.

    The QUBO energy of a full assignment splits into the source objective,
    per-constraint penalties, and gadget terms.  For a fixed source
    assignment the optimal slack of each row is independent and available in
    closed form, and auxiliaries only couple through shared constraints, so
    they are minimized per connected component.

    ``rows`` holds one :class:`_ScanRow` per row the oracle compiles, in its
    checking order; each row's evaluator is made once here, so each row has
    one low-bit table per call.  ``components`` lists each auxiliary
    component as its sorted source pairs, the indices of its rows and its
    ``2^g`` auxiliary settings, one 0/1 list each, in the order of their
    codes (:func:`~flowqubo.solvers._bit_rows`).  More than ``_GROUP_LIMIT``
    pairs in one component raise
    :class:`~flowqubo.errors.ExhaustiveLimitError`.
    """

    def __init__(self, reform: Reformulation):
        program = reform.source
        normalized = reform.normalized
        self.n = program.num_vars
        index = {name: i for i, name in enumerate(program.var_names)}
        con_pairs = [_merged_pairs(con, index) for con in normalized]
        _check_layout(reform, con_pairs)
        tables = _program_tables(replace(program, constraints=normalized))
        self.objective = tables.objective
        self.floor = self.objective.floor()
        self.rho = reform.rho
        self.rows = []
        for ci, (form, sense, rhs) in zip(tables.order, tables.rows):
            evaluate, span = _row_evaluator(form, self.n)
            self.rows.append(_ScanRow(
                evaluate, sense, rhs, form, None if span is None else span(),
                reform.constraint_weight(normalized[ci].label),
                reform.slack_groups[ci], con_pairs[ci]))

        # auxiliary components: pairs in one row are coupled, so each product
        # row merges the components of its pairs; row ids stay in checking
        # order, and the components are sorted by their lowest pair
        components = [({pair}, []) for pair in reform.aux_products]
        for k, row in enumerate(self.rows):
            if row.pairs:
                joined = [c for c in components if not c[0].isdisjoint(row.pairs)]
                components = [c for c in components if c[0].isdisjoint(row.pairs)]
                components.append((set().union(*(c[0] for c in joined)),
                                   sorted(j for c in joined for j in c[1]) + [k]))
        self.components = []
        for members, row_ids in sorted((sorted(members), row_ids)
                                       for members, row_ids in components):
            if len(members) > _GROUP_LIMIT:
                raise ExhaustiveLimitError(
                    f"auxiliary component of size {len(members)} exceeds the "
                    f"bound of {_GROUP_LIMIT}")
            settings = _bit_rows(np.arange(1 << len(members)), len(members)).tolist()
            self.components.append((members, row_ids, settings))

    def feasible_chunks(self) -> np.ndarray:
        """One bool per chunk of :func:`~flowqubo.solvers._code_chunks`:
        False when some row fails its own test at the point of its span
        nearest ``rhs``.  Rounding is monotone, so every code of such a chunk
        fails that row."""
        keep = np.ones(_chunk_count(self.n), dtype=bool)
        for row in self.rows:
            if row.span is not None:
                keep &= row_holds(row.sense, np.clip(row.rhs, *row.span), row.rhs)
        return keep

    def chunks_within(self, bound: float) -> np.ndarray:
        """One bool per chunk: False when every code of the chunk would be
        dropped by :func:`_completion_energies` at ``bound``.

        A product-free row's penalty is 0 at the integer residuals of its
        zero-penalty range, from 0 to ``-sign * max_slack`` (``_SLACK_SIGN``),
        and grows with the distance outside it.  So the penalty at the
        residual of the row's span nearest that range, or 0 where they meet,
        is at most each code's own.  These are summed in checking order and
        tested against ``bound`` after each row, plus ``floor``, as
        :func:`_completion_energies` sums and tests, so a chunk fails only
        where each of its codes fails, rounding included.
        """
        keep = np.ones(_chunk_count(self.n), dtype=bool)
        total = np.zeros(keep.shape)
        for row in (row for row in self.rows if not row.pairs):
            if row.span is not None:
                lo, hi = (side - row.rhs for side in row.span)
                end = -_SLACK_SIGN[row.sense] * row.max_slack
                nearest = np.where(lo > max(0.0, end), lo, np.minimum(hi, min(0.0, end)))
                total = total + _row_penalty(row, nearest)
            keep &= total + self.floor <= bound
        return keep


def _check_qubo(reform: Reformulation, scan: _ScanTables) -> None:
    """Raise unless ``reform.qubo`` is the penalty model that ``scan`` minimizes.

    The model is rebuilt from the scan's row records, not from the term
    loop of :func:`reformulate`: row ``k`` reads ``A[k] . z = b[k]`` over all
    QUBO variables ``z``, with the compiled linear terms, each merged product
    pair on its auxiliary and ``sign * 2^bit`` on slack bit ``bit``, the sign
    of its sense in ``_SLACK_SIGN``, and its weight ``W[k]``.  The QUBO is
    then ``2 triu(A'WA, 1) + diag(diag(A'WA) - 2 A'Wb)`` plus the objective
    and the gadgets, with offset ``const + b'Wb``.  Each entry, and the
    offset, may differ from the model by ``_MODEL_RTOL`` of the magnitudes
    summed into it; the first that differs by more raises
    :class:`~flowqubo.errors.ReformulationError`.
    """
    n, size = scan.n, reform.qubo.num_vars
    a = np.zeros((len(scan.rows), size))
    for k, row in enumerate(scan.rows):
        for shift, coeff in row.form.terms:
            a[k, n - 1 - shift] += coeff
        for pair, q in row.pairs.items():
            a[k, reform.aux_products[pair]] += q
        for bit, idx in enumerate(row.slack):
            a[k, idx] += _SLACK_SIGN[row.sense] * 2.0 ** bit
    weight = np.array([row.weight for row in scan.rows])
    rhs = np.array([row.rhs for row in scan.rows])

    def penalty(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        m = (a.T * weight) @ a
        return 2.0 * np.triu(m, 1) + np.diag(np.diag(m) - 2.0 * (a.T @ (weight * b)))

    extra, extra_mass = np.zeros((size, size)), np.zeros((size, size))

    def add(i: int, j: int, value: float) -> None:
        extra[min(i, j), max(i, j)] += value
        extra_mass[min(i, j), max(i, j)] += abs(value)

    objective = scan.objective
    for shift, coeff in objective.terms:
        add(n - 1 - shift, n - 1 - shift, coeff)
    for shift_u, shift_v, q in objective.products:
        add(n - 1 - shift_u, n - 1 - shift_v, q)
    for (i, j), w in sorted(reform.aux_products.items()):
        for u, v, c in ((i, j, 1.0), (i, w, -2.0), (j, w, -2.0), (w, w, 3.0)):
            add(u, v, c * scan.rho)

    mass = penalty(np.abs(a), -np.abs(rhs)) + extra_mass
    expected = penalty(a, rhs) + extra
    actual = reform.qubo.dense()
    differs = np.abs(actual - expected) > _MODEL_RTOL * (1.0 + mass)
    if differs.any():
        i, j = np.argwhere(differs)[0].tolist()
        names = reform.qubo.var_names or tuple(map(str, range(size)))
        raise ReformulationError(
            f"QUBO term ({names[i]}, {names[j]}) is {float(actual[i, j])!r}, but "
            f"the penalty model of the source program gives {float(expected[i, j])!r}")
    penalty_offset = float(weight @ np.square(rhs))
    offset = objective.const + penalty_offset
    if abs(reform.qubo.offset - offset) > _MODEL_RTOL * (
            1.0 + abs(objective.const) + penalty_offset):
        raise ReformulationError(
            f"QUBO offset is {reform.qubo.offset!r}, but the penalty model of "
            f"the source program gives {offset!r}")


def _row_slack(row: _ScanRow, residual: np.ndarray) -> np.ndarray:
    """Optimal slack of an inequality row, the ``s`` in ``[0, max_slack]``
    nearest ``-sign * residual``; integer coefficients make it unique, so
    np.rint never sits on a tie."""
    return np.clip(np.rint(-_SLACK_SIGN[row.sense] * residual), 0.0, row.max_slack)


def _row_penalty(row: _ScanRow, residual: np.ndarray) -> np.ndarray:
    """Penalty of one row at its optimal slack (:func:`_row_slack`), none on
    an equality; ``residual`` is lhs - rhs before slack."""
    sign = _SLACK_SIGN[row.sense]
    if sign:
        residual = residual + sign * _row_slack(row, residual)
    return row.weight * np.square(residual)


def _component_minimum(scan: _ScanTables, component, bits, residual):
    """Lowest gadget-plus-row energy of one auxiliary component, per code.

    ``component`` is an entry of ``scan.components``: its source pairs, its
    rows in ``scan.rows`` and its settings.  ``bits`` maps a source variable
    to its 0/1 values and ``residual`` a row index to its residuals, both
    over the same codes.  Settings are tried in the order of their codes,
    which is lexicographic, and only a strict improvement replaces the
    incumbent, so ties resolve to the lexicographically smallest setting.
    Returns the minima and the index of the setting attaining each.
    """
    members, row_ids, settings = component
    best = choice = None
    for idx, w_row in enumerate(settings):
        acc = 0.0
        for w, (i, j) in zip(w_row, members):
            acc = acc + scan.rho * rosenberg_penalty(bits[i], bits[j], w)
        w_at = dict(zip(members, w_row))
        for k in row_ids:
            row = scan.rows[k]
            shift = sum(q * w_at[pair] for pair, q in row.pairs.items())
            acc = acc + _row_penalty(row, residual[k] + shift)
        if best is None:
            best, choice = acc, np.zeros(np.shape(acc), dtype=np.int64)
        else:
            better = acc < best
            best = np.where(better, acc, best)
            choice[better] = idx
    return best, choice


def _completion_energies(scan: _ScanTables, codes: np.ndarray, bound: float = np.inf):
    """Minimal completion energies of the ``codes`` not pruned by ``bound``.

    The energy is summed in one fixed order: the closed-form penalties of
    the product-free rows of ``scan.rows`` in checking order, then the
    objective, then the component minima.  Every penalty is >= 0 and the
    objective is at least ``scan.floor``, so the penalties summed so far
    plus that floor never exceed the final energy, rounding included.  A
    code is dropped as soon as that lower bound exceeds ``bound``, and once
    every code is dropped nothing more is evaluated.  ``codes`` lie in one
    aligned chunk of ``2^_CHUNK_BITS``, as the row evaluators require.
    :meth:`_ScanTables.chunks_within` makes the same test for a whole chunk
    at once, so :func:`verify` passes only the chunks that can keep a code.
    Returns the kept codes, their objectives and their energies.
    """
    energy = np.zeros(codes.shape)
    for row in (row for row in scan.rows if not row.pairs):
        if not codes.size:
            break
        energy = energy + _row_penalty(row, row.residual(codes))
        keep = energy + scan.floor <= bound
        codes, energy = codes[keep], energy[keep]
    if not codes.size:
        return codes, energy, energy
    obj = scan.objective.values(codes)
    energy = energy + obj
    bits = {i: (codes >> (scan.n - 1 - i)) & 1
            for members, *_ in scan.components for pair in members for i in pair}
    residual = {k: scan.rows[k].residual(codes)
                for _, row_ids, _ in scan.components for k in row_ids}
    for component in scan.components:
        energy = energy + _component_minimum(scan, component, bits, residual)[0]
    return codes, obj, energy


def verify(reform: Reformulation) -> VerificationReport:
    """Exhaustively certify exactness and penalty dominance.

    The slack groups and auxiliaries must first fit the source program and
    the QUBO (:func:`_check_layout`), and the QUBO must match the scanned
    penalty model term by term, or
    :class:`~flowqubo.errors.ReformulationError` is raised.  For each source
    assignment the slack bits, signed by ``_SLACK_SIGN``, are optimized in
    closed form and the auxiliaries by enumeration over their coupling
    components, which reproduces the exact QUBO minimum over completions.
    Exactness failures are feasible assignments whose minimal completion
    energy differs from the objective; dominance failures are infeasible
    assignments whose completion energy does not exceed the feasible
    optimum.  ``passed`` also requires a feasible assignment: without one
    there is no feasible optimum for the QUBO minimum to sit on.  More than
    ``_VAR_LIMIT`` source variables, checked before anything is compiled, or
    more than ``_GROUP_LIMIT`` product pairs in one auxiliary component,
    raise :class:`~flowqubo.errors.ExhaustiveLimitError`.

    The scan makes two survivor-filtered passes over the integer codes of
    the source assignments.  The first keeps the feasible codes, row by row
    as in :func:`~flowqubo.solvers.brute_force`, and completes only those.
    That fixes ``T``, the larger of the feasible optimum plus ``_FEAS_TOL``
    and the lowest feasible completion energy: no code above ``T`` can be a
    dominance failure or the QUBO argmin.  The second pass drops every code
    whose objective plus the closed-form penalties of its product-free rows
    already exceeds ``T``, a valid lower bound since the gadget and row
    penalties are >= 0, and enumerates auxiliaries only on the rest.  With
    no feasible code ``T`` is infinite and the second pass completes every
    code, one chunk at a time.  Both passes read the rows the oracle
    compiles, one :class:`_ScanRow` each, made when the call starts with the
    row's evaluator, the second taking a product-free row's residual as
    that evaluator's value minus ``rhs``, so each row has one low-bit table
    per call, split at bit ``_CHUNK_BITS`` as in the oracle scan; any other
    form, the objective included, is summed term by term.

    Each pass first tests whole chunks against the span of each split row
    over the chunk, taken from the same split, and builds codes only for the
    chunks it keeps: the first skips a chunk where some row's span holds no
    value the row accepts (:meth:`_ScanTables.feasible_chunks`), the second
    one where a lower bound on every code's penalties already exceeds ``T``
    (:meth:`_ScanTables.chunks_within`).  A skipped chunk holds no code the
    pass would have kept, so the reports are those of an exhaustive scan;
    the oracle itself skips no chunk.
    """
    n = reform.source.num_vars
    if n > _VAR_LIMIT:
        raise ExhaustiveLimitError(
            f"{n} source variables exceed the exhaustive bound of {_VAR_LIMIT}")
    scan = _ScanTables(reform)
    _check_qubo(reform, scan)
    energy_tol = max(1e-6, 10 * _FEAS_TOL)

    feasible_count = 0
    feasible_opt = np.inf
    feasible_min_energy = np.inf
    exactness = []
    for codes in _code_chunks(n, scan.feasible_chunks()):
        codes = _feasible_codes(scan.rows, codes)
        if not codes.size:
            continue
        _, obj, energy = _completion_energies(scan, codes)
        feasible_count += codes.size
        feasible_opt = min(feasible_opt, float(obj.min()))
        feasible_min_energy = min(feasible_min_energy, float(energy.min()))
        failed = np.flatnonzero(np.abs(energy - obj) > _FEAS_TOL)[:_MAX_FAILURES - len(exactness)]
        exactness += zip(map(tuple, _bit_rows(codes[failed], n).tolist()),
                         energy[failed].tolist(), obj[failed].tolist())

    threshold = max(feasible_opt + _FEAS_TOL, feasible_min_energy)
    best_energy = np.inf
    best_k = 0
    dominance: list[tuple[float, int]] = []
    bound = threshold + energy_tol
    for codes in _code_chunks(n, scan.chunks_within(bound)):
        codes, _, energy = _completion_energies(scan, codes, bound)
        if not codes.size:
            continue
        chunk_best = int(np.argmin(energy))
        if float(energy[chunk_best]) < best_energy:
            best_energy = float(energy[chunk_best])
            best_k = int(codes[chunk_best])
        if feasible_count:
            infeasible = ~np.isin(codes, _feasible_codes(scan.rows, codes))
            flagged = infeasible & (energy <= feasible_opt + _FEAS_TOL)
            dominance = sorted(dominance + list(zip(energy[flagged].tolist(),
                                                    codes[flagged].tolist())))
            del dominance[_MAX_FAILURES:]

    full_bits = _complete_assignment(reform, scan, best_k)
    recomputed = reform.qubo.energy(full_bits)
    if abs(recomputed - best_energy) > energy_tol:
        raise ReformulationError(
            f"internal completion mismatch: scan energy {best_energy}, "
            f"direct energy {recomputed}")

    dominance_bits = map(tuple, _bit_rows([k for _, k in dominance], n).tolist())
    source_bits = full_bits[:n]
    return VerificationReport(
        passed=feasible_count > 0 and not exactness and not dominance,
        num_source_assignments=1 << n,
        feasible_count=feasible_count,
        feasible_optimum=None if not feasible_count else feasible_opt,
        qubo_minimum=best_energy,
        qubo_argmin=full_bits,
        argmin_objective=reform.source.objective_value(source_bits),
        argmin_feasible=reform.source.is_feasible(source_bits),
        exactness_failures=tuple(exactness),
        dominance_failures=tuple(zip(dominance_bits, [e for e, _ in dominance])),
        rho=reform.rho,
    )


def _complete_assignment(reform: Reformulation, scan: _ScanTables,
                         code: int) -> tuple[int, ...]:
    """Energy-minimal slack and auxiliary completion of one source code.

    The same vector routines as the scan run on a single code, so the
    auxiliaries are the lexicographically smallest minimizing setting.
    """
    n = scan.n
    codes = np.array([code], dtype=np.int64)
    full = _bit_rows(codes, n)[0].tolist() + [0] * (reform.qubo.num_vars - n)
    bits = {i: (codes >> (n - 1 - i)) & 1 for pair in reform.aux_products for i in pair}
    residual = [row.residual(codes) for row in scan.rows]

    w_chosen = {}
    for component in scan.components:
        members, _, settings = component
        _, choice = _component_minimum(scan, component, bits, residual)
        for w, pair in zip(settings[choice[0]], members):
            w_chosen[pair] = w
            full[reform.aux_products[pair]] = w

    for row, row_residual in zip(scan.rows, residual):
        if not row.slack:
            continue
        shift = sum(q * w_chosen[pair] for pair, q in row.pairs.items())
        slack = int(_row_slack(row, row_residual + shift)[0])
        for bit, idx in enumerate(row.slack):
            full[idx] = (slack >> bit) & 1
    return tuple(full)
