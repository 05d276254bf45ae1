"""Discrete solvers sharing one result type.

Three interchangeable engines operate on the model types from :mod:`qubo`
and :mod:`ip`:

* :func:`brute_force` — exhaustive oracle, exact by construction.  It walks
  the integer codes of all assignments in aligned chunks and filters them
  row by row, equality rows first, each row evaluated only on the codes that
  survived the rows before it; the same kernel feeds
  :func:`~flowqubo.reformulate.verify`, and :func:`branch_and_bound`
  searches the same compiled rows.  The codes of a chunk share their high
  bits, so a row whose coefficients are integers is split there: its high
  part is one number per chunk and its low part a table of ``2^_CHUNK_BITS``
  sums, read by one gather per row; :func:`_row_evaluator` builds one per
  row when a scan call starts.  Only the evaluation is split
  (meet-in-the-middle style, after Horowitz & Sahni, J. ACM 21(2):277,
  1974): every code still gets every row value until a row rejects it, and
  the oracle skips no chunk on a bound; ``verify`` skips the chunks whose
  row spans rule out every code.  Rows with other coefficients, and scans
  of one chunk, evaluate term by term,
* :func:`simulated_annealing` — single-flip Metropolis sampler with a
  geometric inverse-temperature schedule.  It colours the coupling graph
  greedily and flips one colour class per numpy step, all reads at once,
  with float32 states and local fields deciding acceptance (after Isakov,
  Zintchenko, Rønnow & Troyer, Comput. Phys. Commun. 192:265, 2015),
* :func:`branch_and_bound` — one depth-first exact search, pruned by
  objective in optimal mode and exhaustive in the enumerate-all and
  solution-pool modes.

All of them return a :class:`SampleSet`; :func:`import_samples` ingests
externally produced sample files in the same JSON layout.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionError,
    EnergyMismatchError,
    ExhaustiveLimitError,
    ModelError,
    SampleFormatError,
    SolverError,
    json_float,
    json_int,
    read_json,
    write_json,
)
from .ip import _FEAS_TOL, BinaryProgram, row_holds
from .qubo import QuboModel

__all__ = [
    "SampleRecord",
    "SampleSet",
    "SaParams",
    "brute_force",
    "simulated_annealing",
    "branch_and_bound",
    "import_samples",
    "derived_beta_schedule",
]

# 2^14 int64 codes per chunk keep each temporary array, and each row's low-bit
# table, at 128 KB: on a 2-core Xeon VM a fresh process scanned il in
# 0.12-0.17 s this way, in 0.17-0.23 s with 2^12 codes per chunk and in
# 0.24-0.30 s with 2^16 or 2^18
_CHUNK_BITS = 14
# the oracle refuses programs and QUBOs with more variables than this
_VAR_LIMIT = 24


@dataclass(frozen=True)
class SampleRecord:
    """One distinct assignment with its energy and bookkeeping fields."""

    assignment: tuple[int, ...]
    energy: float
    occurrences: int = 1
    objective: float | None = None
    feasible: bool | None = None


@dataclass(frozen=True)
class SampleSet:
    records: tuple[SampleRecord, ...]
    solver: str
    tau: float | None = None
    seed: int | None = None
    status: str = "ok"
    metadata: Mapping = field(default_factory=dict)
    time_breakdown: Mapping | None = None

    @classmethod
    def build(
        cls,
        records: Iterable[SampleRecord],
        solver: str,
        *,
        tau: float | None = None,
        seed: int | None = None,
        status: str = "ok",
        metadata: Mapping | None = None,
        time_breakdown: Mapping | None = None,
    ) -> "SampleSet":
        """Canonicalize: merge duplicate assignments, sort by (energy, bits).

        Duplicates keep the lowest energy seen (relevant when QUBO-level
        records were collapsed onto the same decoded assignment) and sum
        their occurrence counts.
        """
        merged: dict[tuple[int, ...], SampleRecord] = {}
        for rec in records:
            prev = merged.get(rec.assignment)
            if prev is None:
                merged[rec.assignment] = rec
            else:
                keep = rec if rec.energy < prev.energy else prev
                merged[rec.assignment] = replace(
                    keep, occurrences=prev.occurrences + rec.occurrences)
        ordered = tuple(sorted(merged.values(), key=lambda r: (r.energy, r.assignment)))
        return cls(
            records=ordered,
            solver=solver,
            tau=tau,
            seed=seed,
            status=status,
            metadata=dict(metadata) if metadata else {},
            time_breakdown=dict(time_breakdown) if time_breakdown else None,
        )

    @property
    def num_reads(self) -> int:
        return sum(r.occurrences for r in self.records)

    def best(self) -> SampleRecord | None:
        return self.records[0] if self.records else None

    # -- serialization -------------------------------------------------------

    def to_json_dict(self, include_tau: bool = True) -> dict:
        """The sample-file layout; wall-clock timings (``tau_seconds`` and
        ``time_breakdown``) only with ``include_tau``, so seeded runs saved
        without it are byte-identical."""
        out: dict = {
            "solver": self.solver,
            "seed": self.seed,
            "tau_seconds": self.tau if include_tau else None,
            "status": self.status,
            "records": [
                {
                    "assignment": "".join(str(b) for b in rec.assignment),
                    "energy": rec.energy,
                    "objective": rec.objective,
                    "feasible": rec.feasible,
                    "occurrences": rec.occurrences,
                }
                for rec in self.records
            ],
        }
        if self.metadata:
            out["metadata"] = {k: self.metadata[k] for k in sorted(self.metadata)}
        if include_tau and self.time_breakdown is not None:
            out["time_breakdown"] = dict(self.time_breakdown)
        return out

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "SampleSet":
        try:
            return _parse_sample_json(data)
        except OverflowError as exc:
            raise SampleFormatError(f"number out of float range: {exc}") from exc

    def save(self, path, include_tau: bool = True) -> None:
        write_json(path, self.to_json_dict(include_tau=include_tau))

    @classmethod
    def load(cls, path) -> "SampleSet":
        return cls.from_json_dict(read_json(path, SampleFormatError))


def _sample_number(read, value, what: str):
    """``read(value)``, with :func:`~flowqubo.errors.json_int` or
    :func:`~flowqubo.errors.json_float` as ``read``; a value they refuse
    raises SampleFormatError saying ``what`` it must be."""
    try:
        return read(value)
    except (TypeError, ValueError) as exc:
        raise SampleFormatError(f"{what} ({exc})") from exc


def _parse_sample_json(data: Mapping) -> SampleSet:
    if not isinstance(data, Mapping):
        raise SampleFormatError("sample file must hold a JSON object")
    solver = data.get("solver")
    if not isinstance(solver, str) or not solver:
        raise SampleFormatError("missing or invalid 'solver' field")
    seed = data.get("seed")
    if seed is not None:
        seed = _sample_number(json_int, seed, "'seed' must be an integer or null")
    tau = data.get("tau_seconds")
    if tau is not None:
        what = "'tau_seconds' must be a positive finite number or null"
        tau = _sample_number(json_float, tau, what)
        if not tau > 0:
            raise SampleFormatError(what)
    status = data.get("status", "ok")
    if not isinstance(status, str):
        raise SampleFormatError("'status' must be a string")
    raw_records = data.get("records")
    if not isinstance(raw_records, list):
        raise SampleFormatError("missing 'records' list")
    records = []
    width = None
    for pos, raw in enumerate(raw_records):
        if not isinstance(raw, Mapping):
            raise SampleFormatError(f"record {pos} is not an object")
        bits = raw.get("assignment")
        if not isinstance(bits, str) or set(bits) - {"0", "1"}:
            raise SampleFormatError(f"record {pos}: assignment must be a 0/1 string")
        if width is None:
            width = len(bits)
        elif len(bits) != width:
            raise SampleFormatError(f"record {pos}: inconsistent assignment length")
        energy = _sample_number(json_float, raw.get("energy"),
                                f"record {pos}: energy must be a finite number")
        what = f"record {pos}: occurrences must be a positive integer"
        occurrences = _sample_number(json_int, raw.get("occurrences", 1), what)
        if occurrences < 1:
            raise SampleFormatError(what)
        objective = raw.get("objective")
        if objective is not None:
            objective = _sample_number(json_float, objective,
                                       f"record {pos}: objective must be a finite number or null")
        feasible = raw.get("feasible")
        if feasible is not None and not isinstance(feasible, bool):
            raise SampleFormatError(f"record {pos}: feasible must be a boolean or null")
        records.append(SampleRecord(
            assignment=tuple(int(ch) for ch in bits),
            energy=energy,
            occurrences=occurrences,
            objective=objective,
            feasible=feasible,
        ))
    metadata = data.get("metadata", {})
    if not isinstance(metadata, Mapping):
        raise SampleFormatError("'metadata' must be an object")
    breakdown = data.get("time_breakdown")
    if breakdown is not None and not isinstance(breakdown, Mapping):
        raise SampleFormatError("'time_breakdown' must be an object or absent")
    return SampleSet.build(
        records,
        solver,
        tau=tau,
        seed=seed,
        status=status,
        metadata=metadata,
        time_breakdown=breakdown,
    )


def import_samples(path, qubo: QuboModel | None = None, tol: float = 1e-6) -> SampleSet:
    """Load an externally produced sample file.

    With ``qubo`` given, every stated energy is recomputed; deviations beyond
    ``tol`` raise :class:`EnergyMismatchError` listing the offending records.
    """
    samples = SampleSet.load(path)
    if qubo is not None:
        mismatches = []
        for rec in samples.records:
            if len(rec.assignment) != qubo.num_vars:
                raise SampleFormatError(
                    f"assignment length {len(rec.assignment)} does not match "
                    f"QUBO with {qubo.num_vars} variables")
            recomputed = qubo.energy(rec.assignment)
            if abs(recomputed - rec.energy) > tol:
                mismatches.append((rec.assignment, rec.energy, recomputed))
        if mismatches:
            raise EnergyMismatchError(mismatches)
    return samples


# -- shared enumeration kernel ------------------------------------------------


def _chunk_count(n: int) -> int:
    """How many chunks :func:`_code_chunks` splits ``2^n`` codes into."""
    return 1 << max(n - _CHUNK_BITS, 0)


def _code_chunks(n: int, keep: np.ndarray | None = None):
    """Yield the codes ``0 .. 2^n - 1`` in ascending int64 chunks of
    ``2^_CHUNK_BITS``; with ``keep``, one bool per chunk, only the chunks
    it marks.

    Code ``k`` stands for the assignment whose variable ``j`` is the bit
    ``(k >> (n-1-j)) & 1``.  Variable 0 is the most significant bit, so code
    order equals lexicographic order of the bit tuples.
    """
    step = 1 << min(_CHUNK_BITS, n)
    for chunk in range(_chunk_count(n)):
        if keep is None or keep[chunk]:
            yield np.arange(chunk * step, (chunk + 1) * step, dtype=np.int64)


def _bit_rows(codes, n: int) -> np.ndarray:
    """The C-order int64 0/1 matrix of the assignments ``codes``, one row each.

    ``map(tuple, _bit_rows(codes, n).tolist())`` gives the assignment tuples;
    every conversion from codes to assignments goes through here.
    """
    codes = np.asarray(codes, dtype=np.int64)
    return (codes[:, None] >> np.arange(n - 1, -1, -1, dtype=np.int64)) & 1


class LinearForm(NamedTuple):
    """``const + sum coeff * x_u + sum coeff * x_u * x_v`` read off codes.

    Variables are stored by the shift that extracts their bit from a code.
    """

    const: float
    terms: tuple[tuple[int, float], ...]              # (shift, coeff)
    products: tuple[tuple[int, int, float], ...]      # (shift_u, shift_v, coeff)

    def values(self, codes: np.ndarray) -> np.ndarray:
        out = np.full(codes.shape, self.const)
        for shift, coeff in self.terms:
            out += coeff * ((codes >> shift) & 1)
        for shift_u, shift_v, coeff in self.products:
            out += coeff * ((codes >> shift_u) & (codes >> shift_v) & 1)
        return out

    def value(self, code: int) -> float:
        """:meth:`values` of one int code, summed in the same order, so the
        two agree bit for bit; the code may be wider than 64 bits."""
        total = self.const
        for shift, coeff in self.terms:
            total += coeff * ((code >> shift) & 1)
        for shift_u, shift_v, coeff in self.products:
            total += coeff * ((code >> shift_u) & (code >> shift_v) & 1)
        return total

    def floor(self) -> float:
        """The least value over all codes, summed in the order of :meth:`values`.

        Rounding is monotone and each term is at least ``min(0, coeff)``, so
        the result never exceeds a value :meth:`values` returns.
        """
        total = self.const
        for _, coeff in self.terms:
            total += min(0.0, coeff)
        for _, _, coeff in self.products:
            total += min(0.0, coeff)
        return total


def _row_evaluator(form: LinearForm, n: int) -> tuple[
        Callable[[np.ndarray], np.ndarray],
        Callable[[], tuple[np.ndarray, np.ndarray]] | None]:
    """``form.values`` for one scan call over codes of ``n`` variables, and
    the span of those values over each chunk.

    The evaluator takes non-empty codes that lie in one aligned chunk of
    ``2^_CHUNK_BITS`` (a chunk of :func:`_code_chunks` or a subset of one).
    The codes of such a chunk share their high bits, so when ``n`` exceeds
    ``_CHUNK_BITS``, a form whose constant and coefficients are integers
    with an absolute sum below 2^53 is split there: the constant and the
    high-bit terms are one :meth:`LinearForm.value` per chunk, and the
    low-bit terms are read from a table of their ``2^_CHUNK_BITS`` sums,
    built here.  Every partial sum of such a form is an exact integer, so
    the split gives the floats of :meth:`LinearForm.values` in any summation
    order.  A product with one bit on each side is still summed term by
    term; any other form, and any scan of one chunk, keeps
    :meth:`LinearForm.values`.  ``_CHUNK_BITS`` is read at each call.

    Returns ``(evaluate, span)``.  For a split form ``span()`` gives two
    arrays, indexed by chunk, that bound every value of the chunk's codes:
    the chunk's high part plus the least and the greatest entry of the
    low-bit table plus the negative, respectively positive, cross products.
    These are exact integers too.  Any other form has ``span`` None.
    """
    cut = _CHUNK_BITS
    coeffs = [form.const] + [c for *_, c in form.terms + form.products]
    if n <= cut or not all(float(c).is_integer() for c in coeffs) \
            or sum(abs(int(c)) for c in coeffs) >= 1 << 53:
        return form.values, None
    high = LinearForm(form.const, tuple(t for t in form.terms if t[0] >= cut),
                      tuple(p for p in form.products if p[0] >= cut and p[1] >= cut))
    low = LinearForm(0.0, tuple(t for t in form.terms if t[0] < cut),
                     tuple(p for p in form.products if p[0] < cut and p[1] < cut)
                     ).values(np.arange(1 << cut, dtype=np.int64))
    cross = tuple(p for p in form.products if (p[0] < cut) != (p[1] < cut))

    def values(codes: np.ndarray) -> np.ndarray:
        # a whole chunk reads the table as it is; survivors gather from it
        table = low if codes.size == low.size else low[codes & (low.size - 1)]
        out = table + high.value(int(codes[0]))   # high reads no low bit
        for shift_u, shift_v, coeff in cross:
            out += coeff * ((codes >> shift_u) & (codes >> shift_v) & 1)
        return out

    def span() -> tuple[np.ndarray, np.ndarray]:
        starts = high.values(np.arange(0, 1 << n, 1 << cut, dtype=np.int64))
        return (starts + (low.min() + sum(min(0.0, c) for *_, c in cross)),
                starts + (low.max() + sum(max(0.0, c) for *_, c in cross)))

    return values, span


def _linear_form(shift: Mapping[str, int], linear: Mapping[str, float],
                 products: Iterable[tuple[str, str, float]] = (),
                 const: float = 0.0) -> LinearForm:
    return LinearForm(
        float(const),
        tuple((shift[name], coeff) for name, coeff in linear.items() if coeff),
        tuple((shift[u], shift[v], q) for u, v, q in products if q))


class ProgramTables(NamedTuple):
    """A BinaryProgram as linear forms over codes, rows in checking order;
    row ``k`` compiles constraint ``order[k]`` of the program."""

    rows: tuple[tuple[LinearForm, str, float], ...]   # (lhs, sense, rhs)
    order: tuple[int, ...]
    objective: LinearForm


def _program_tables(program: BinaryProgram) -> ProgramTables:
    # each variable's shift in a code: variable 0 is the most significant bit
    shift = {name: program.num_vars - 1 - i for i, name in enumerate(program.var_names)}
    cons = program.constraints
    # equality rows reject the most codes, so they run first
    order = sorted(range(len(cons)), key=lambda ci: cons[ci].sense != "=")
    rows = [(_linear_form(shift, cons[ci].linear, cons[ci].products), cons[ci].sense,
             cons[ci].rhs) for ci in order]
    objective = _linear_form(shift, program.objective, program.objective_products,
                             program.objective_constant)
    return ProgramTables(tuple(rows), tuple(order), objective)


def _feasible_codes(checks: Sequence, codes: np.ndarray) -> np.ndarray:
    """The codes among ``codes`` that satisfy every row, in their order.

    ``checks`` holds one ``(evaluate, sense, rhs, ...)`` per row, in checking
    order, and ``codes`` lie in one aligned chunk of ``2^_CHUNK_BITS``.
    Each row is evaluated only on the codes that survived the rows before
    it, and drops the ones it rejects.  An integral row's evaluator reads
    its low bits from a table built for the call (:func:`_row_evaluator`);
    that changes how a value is summed, not which codes get one.  Every
    code is still tested until a row rejects it, so the scan stays
    exhaustive over the codes it is given.
    """
    for evaluate, sense, rhs, *_ in checks:
        if not codes.size:
            break
        codes = codes[row_holds(sense, evaluate(codes), rhs)]
    return codes


# -- exhaustive oracle --------------------------------------------------------


def brute_force(model, *, limit: int | None = None) -> SampleSet:
    """Exhaustive oracle.

    For a :class:`QuboModel`: every assignment with its exact energy (or the
    ``limit`` lowest).  For a :class:`BinaryProgram`: one record per distinct
    projected feasible configuration, carrying the cheapest completion (ties
    broken by lexicographically smallest assignment) with energy equal to the
    objective.

    Both walk the integer codes of all ``2^n`` assignments in chunks of
    ``2^_CHUNK_BITS``.  For a program every code is checked row by row,
    equality rows first, each row on the survivors of the rows before it
    (:func:`_feasible_codes`); the objective is evaluated, term by term,
    only on the codes that survive every row, and a chunk with no survivor
    costs nothing more.  When ``n`` exceeds ``_CHUNK_BITS``, a row whose
    constant and coefficients are integers with an absolute sum below 2^53
    reads its low ``_CHUNK_BITS`` bits from a table built when the call
    starts (:func:`_row_evaluator`); such sums are exact in any order, so
    the records do not depend on it.  More than ``_VAR_LIMIT``
    (24) variables raise :class:`~flowqubo.errors.ExhaustiveLimitError`, and
    a ``limit`` below 1 raises ``ValueError``.
    """
    if not isinstance(model, (QuboModel, BinaryProgram)):
        raise TypeError(
            f"brute_force expects QuboModel or BinaryProgram, got {type(model)!r}")
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    if model.num_vars > _VAR_LIMIT:
        raise ExhaustiveLimitError(
            f"{model.num_vars} variables exceed the exhaustive bound of {_VAR_LIMIT}")
    if isinstance(model, QuboModel):
        return _brute_force_qubo(model, limit)
    return _brute_force_program(model)


def _brute_force_qubo(qubo: QuboModel, limit) -> SampleSet:
    n = qubo.num_vars
    t0 = time.perf_counter()
    kept_k: list[np.ndarray] = []
    kept_e: list[np.ndarray] = []
    for ks in _code_chunks(n):
        energies = qubo.energies(_bit_rows(ks, n))
        if limit is not None:
            order = np.argsort(energies, kind="stable")[:limit]
            ks, energies = ks[order], energies[order]
        kept_k.append(ks)
        kept_e.append(energies)
    ks = np.concatenate(kept_k)
    energies = np.concatenate(kept_e)
    order = np.lexsort((ks, energies))[:limit]
    records: list[SampleRecord] = []
    step = 1 << _CHUNK_BITS   # bit tuples one chunk at a time keep the lists small
    for start in range(0, len(order), step):
        part = order[start:start + step]
        records += map(SampleRecord, map(tuple, _bit_rows(ks[part], n).tolist()),
                       energies[part].tolist())
    tau = time.perf_counter() - t0
    return SampleSet(records=tuple(records), solver="oracle", tau=tau, seed=None)


def _brute_force_program(program: BinaryProgram) -> SampleSet:
    n = program.num_vars
    t0 = time.perf_counter()
    tables = _program_tables(program)
    checks = [(_row_evaluator(lhs, n)[0], sense, rhs) for lhs, sense, rhs in tables.rows]
    proj_names = program.projection or program.var_names
    proj_idx = [program.index(name) for name in proj_names]
    pool: dict[tuple[int, ...], tuple[float, tuple[int, ...]]] = {}
    for codes in _code_chunks(n):
        codes = _feasible_codes(checks, codes)
        if not codes.size:
            continue
        rows = _bit_rows(codes, n)
        objs = tables.objective.values(codes)
        for bits, key, obj in zip(map(tuple, rows.tolist()),
                                  map(tuple, rows[:, proj_idx].tolist()),
                                  objs.tolist()):
            prev = pool.get(key)
            if prev is None or obj < prev[0]:
                pool[key] = (obj, bits)
    records = [
        SampleRecord(assignment=bits, energy=obj, objective=obj, feasible=True)
        for obj, bits in pool.values()
    ]
    tau = time.perf_counter() - t0
    return SampleSet.build(records, "oracle", tau=tau,
                           status="ok" if records else "infeasible")


# -- simulated annealing ------------------------------------------------------


# tracemalloc's peak over a call grew by 25-31 bytes per spin and read on il,
# ds and a random 150-variable QUBO (2000 to 8000 reads of 5 sweeps), and by
# about 14 bytes per sweep: the kernel's states, fields and thresholds, the
# tally's float64 states and records, and the schedule.  At 32 bytes each,
# this many spins x reads plus sweeps hold a call near 1 GiB.
_SA_LIMIT = 2 ** 25


@dataclass(frozen=True)
class SaParams:
    num_reads: int = 1000
    num_sweeps: int = 1000
    beta_hot: float | None = None
    beta_cold: float | None = None
    seed: int | None = None


def derived_beta_schedule(qubo: QuboModel) -> tuple[float, float]:
    """Default geometric schedule endpoints.

    The hot end makes even the largest single-flip move likely (β_hot =
    0.1/|ΔE|_max with |ΔE|_max bounded per variable by |h_i| + Σ|W_ij|); the
    cold end freezes the smallest energy granularity (β_cold = 10/|ΔE|_min
    with |ΔE|_min the smallest nonzero coefficient magnitude).
    """
    h, w = qubo.fields()
    per_var = np.abs(h) + np.abs(w).sum(axis=1)
    de_max = float(per_var.max()) if per_var.size else 0.0
    magnitudes = [abs(v) for v in qubo.terms.values() if v != 0.0]
    de_min = min(magnitudes) if magnitudes else 0.0
    if de_max <= 0.0 or de_min <= 0.0:
        return 0.1, 10.0
    return 0.1 / de_max, 10.0 / de_min


def simulated_annealing(qubo: QuboModel, params: SaParams | None = None) -> SampleSet:
    """Single-flip Metropolis annealer over colour classes, vectorized across reads.

    All reads advance in lockstep through ``num_sweeps`` full sweeps (one
    proposed flip per variable per sweep) under a geometric β schedule; the
    terminal state of each read is one sample.  Deterministic given the seed.

    The coupling graph is coloured greedily once per call, and a sweep visits
    the colour classes in turn, flipping a whole class in one numpy step
    (:func:`_anneal`): no two spins of a class are coupled, so this equals
    visiting them one by one.  State and local fields are float32 and decide
    acceptance only; reported energies are recomputed in float64 by
    :meth:`QuboModel.energies`.  The kernel holds the spins as ±1, cuts its
    thresholds from the generator's raw 64-bit words by numpy's own float32
    formula (:func:`_log_thresholds`), and stops once every spin of every
    read sits so far below its least possible threshold that no later sweep
    can flip it: the samples are those of the full run, draw for draw.

    A call of more than 2^25 variables × reads plus sweeps raises
    :class:`ModelError` before anything is allocated: at the measured peak
    of at most 32 bytes for each, it could need more than 1 GiB.

    ``metadata["acceptance_by_band"]`` holds the share of proposed flips
    accepted in each of ten equal bands of sweeps, hot to cold (fewer bands
    when there are fewer than ten sweeps).  ``time_breakdown`` holds the
    seconds spent on set-up (``schedule``), in the sweeps and in the tally.
    """
    params = params or SaParams()
    if params.num_reads < 1 or params.num_sweeps < 1:
        raise SolverError("num_reads and num_sweeps must be at least 1")
    beta_hot, beta_cold = params.beta_hot, params.beta_cold
    if beta_hot is None or beta_cold is None:
        derived = derived_beta_schedule(qubo)
        beta_hot = derived[0] if beta_hot is None else beta_hot
        beta_cold = derived[1] if beta_cold is None else beta_cold
    if not beta_hot < beta_cold:
        raise SolverError(
            f"beta_hot must be below beta_cold, got {beta_hot} >= {beta_cold}")

    n = qubo.num_vars
    reads = params.num_reads
    if n * reads + params.num_sweeps > _SA_LIMIT:
        raise ModelError(
            f"{n} variables x {reads} reads + {params.num_sweeps} sweeps exceed the "
            f"annealer's limit of {_SA_LIMIT}, about 1 GiB at 32 bytes each")
    t0 = time.perf_counter()
    rng = np.random.default_rng(params.seed)
    metadata = {
        "num_reads": reads,
        "num_sweeps": params.num_sweeps,
        "beta_hot": beta_hot,
        "beta_cold": beta_cold,
    }
    if n == 0:
        records = [SampleRecord(assignment=(), energy=qubo.offset, occurrences=reads)]
        return SampleSet.build(records, "sa", tau=time.perf_counter() - t0,
                               seed=params.seed, metadata=metadata)

    h, w = qubo.fields()
    if np.max(np.abs(h) + np.abs(w).sum(axis=1)) > np.finfo(np.float32).max:
        raise SolverError("coefficients too large for the float32 annealing kernel")
    order, bounds = _colour_classes(w)
    h = h[order].astype(np.float32)
    w = w[np.ix_(order, order)].astype(np.float32)
    betas = np.geomspace(beta_hot, beta_cold, num=params.num_sweeps).astype(np.float32)
    X = rng.integers(0, 2, size=(n, reads)).astype(np.float32)
    F = h[:, None] + w @ X
    t1 = time.perf_counter()
    accepted = _anneal(w, bounds, betas, X, F, rng)
    t2 = time.perf_counter()

    states = np.empty((reads, n))
    states[:, order] = X.T
    energies = qubo.energies(states)
    # one byte-string key per read: np.unique sorts these several times faster than rows
    packed = np.packbits(states.astype(np.uint8), axis=1)
    _, first, counts = np.unique(packed.view(np.dtype((np.void, packed.shape[1]))).ravel(),
                                 return_index=True, return_counts=True)
    records = [
        SampleRecord(assignment=bits, energy=e, occurrences=k)
        for bits, e, k in zip(map(tuple, states[first].astype(np.int64).tolist()),
                              energies[first].tolist(), counts.tolist())
    ]
    metadata["acceptance_by_band"] = [
        int(band.sum()) / (band.size * n * reads)
        for band in np.array_split(accepted, min(10, params.num_sweeps))]
    t3 = time.perf_counter()
    return SampleSet.build(records, "sa", tau=t3 - t0, seed=params.seed, metadata=metadata,
                           time_breakdown={"schedule": t1 - t0, "sweeps": t2 - t1,
                                           "tally": t3 - t2})


def _colour_classes(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Greedy proper colouring of the coupling graph of ``w``.

    Variables are coloured in order of decreasing degree (Welsh & Powell),
    each with the least colour that none of its neighbours has.  Returns
    ``order``, the variables sorted by colour and by index within a colour,
    and ``bounds``, such that colour ``c`` is ``order[bounds[c]:bounds[c+1]]``.
    """
    neighbours = [np.flatnonzero(row) for row in w]
    colour = np.full(len(w), -1)
    for v in np.argsort([-len(nbr) for nbr in neighbours], kind="stable"):
        taken = set(colour[neighbours[v]].tolist())
        colour[v] = min(set(range(len(taken) + 1)) - taken)
    order = np.argsort(colour, kind="stable")
    bounds = np.searchsorted(colour[order], np.arange(colour.max() + 2))
    return order, bounds


# Every threshold is at least log(2^-24), about -16.64, so a spin whose
# beta * s * F is at or below this cannot flip, whatever it draws
_FROZEN = -17.0
# sweeps between tests of whether every spin of every read is frozen
_FROZEN_EVERY = 16


def _log_thresholds(rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill the float32 array ``out`` with minus Exp(1) draws, ``log(1 - u)``.

    ``u`` is numpy's float32 uniform, ``(w >> 8) * 2^-24`` for each 32-bit
    half ``w`` that PCG64 hands out, low half of a word first.  So ``1 - u``
    is ``(2^24 - (w >> 8)) * 2^-24``, an integer of at most 24 bits times a
    power of two: exact in float32, and at least 2^-24, so the log is
    finite.  The halves are cut from the generator's raw 64-bit words,
    which costs less than ``Generator.random``.  A half that an earlier
    draw left buffered comes first, and an odd count leaves one buffered,
    so ``out`` and the generator's stream match ``log(1 - rng.random(
    dtype=float32))`` draw for draw.  A uniform and a log cost less here
    than numpy's float32 exponential sampler.
    """
    bitgen = rng.bit_generator
    if not isinstance(bitgen, np.random.PCG64):
        raise TypeError("thresholds are cut from the 32-bit halves of PCG64 words")
    state = bitgen.state
    first = state["has_uint32"]
    words = bitgen.random_raw((out.size - first + 1) // 2)
    halves = words.astype("<u8", copy=False).view("<u4")    # low half first
    if first:
        halves = np.concatenate((np.array([state["uinteger"]], dtype="<u4"), halves))
    left = halves.size - out.size       # 1 if a half is left for the next draw
    if first or left:
        state = bitgen.state
        state["has_uint32"] = left
        if left:
            state["uinteger"] = int(halves[-1])
        bitgen.state = state
    halves = halves[:out.size]
    halves >>= 8
    ints = halves.view("<i4")
    np.subtract(1 << 24, ints, out=ints)
    np.copyto(out, ints.reshape(out.shape))
    out *= np.float32(2.0 ** -24)
    np.log(out, out=out)


def _anneal(w: np.ndarray, bounds: np.ndarray, betas: np.ndarray,
            X: np.ndarray, F: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Run one sweep per entry of ``betas`` on ``X`` and ``F`` in place.

    ``X`` holds the float32 states and ``F = h + w X`` their local fields,
    both laid out variables × reads, with the variables permuted so that
    colour class ``c`` is the row slice ``bounds[c]:bounds[c+1]``.  Each
    sweep draws one threshold per spin and read and visits the classes in
    order.  A spin flips when ``beta * dE < E`` with ``E ~ Exp(1)``, the law
    of ``u < exp(-beta * max(dE, 0))``; with ``s = 2x - 1`` the flip costs
    ``dE = -s F``, so the test reads ``-E < beta * s F``.  During the sweeps
    ``X`` holds ``s`` itself, as ±1, so ``s F`` is ``±F`` exactly, and a flip
    negates it in place; the states go back to 0/1 at the end, exactly.
    Spins of one class share no coupling, so their fields stay put while the
    class flips, and the flips then move the fields of the class's
    neighbours only.  The class loop allocates nothing after set-up.

    Every threshold is at least ``log(2^-24)``, above ``_FROZEN``.  So once
    ``beta * s F <= _FROZEN`` for every spin and read at the start of a
    sweep, nothing flips in it and nothing moves; while no later ``beta`` is
    smaller, ``beta * s F`` can only fall, so no later sweep flips either.
    The run tests this every ``_FROZEN_EVERY`` sweeps and stops there,
    leaving ``rng`` where it stopped.  Returns the number of accepted flips
    per sweep: 0 for the sweeps not run, as they would have counted.
    """
    S = X
    S *= 2.0
    S -= 1.0
    thresholds = np.empty_like(X)
    classes = []
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        nbr = np.flatnonzero(w[:, lo:hi].any(axis=1))
        dF = np.empty_like(F[nbr])
        # the neighbour rows in runs of consecutive rows, so that the update
        # subtracts in place, one slice of F per run
        starts = np.flatnonzero(np.diff(nbr, prepend=-2) > 1).tolist()
        runs = [(F[nbr[a]:nbr[b - 1] + 1], dF[a:b])
                for a, b in zip(starts, starts[1:] + [len(nbr)])]
        classes.append((S[lo:hi], F[lo:hi], thresholds[lo:hi], w[nbr, lo:hi], dF, runs,
                        np.empty_like(S[lo:hi]), np.empty(S[lo:hi].shape, dtype=bool)))
    accepted = np.zeros(len(betas), dtype=np.int64)
    lowest_ahead = np.minimum.accumulate(betas[::-1])[::-1]
    for t, beta in enumerate(betas):
        if t % _FROZEN_EVERY == 0 and 0 < beta <= lowest_ahead[t]:
            # the threshold buffer serves as scratch before it is filled
            np.multiply(S, F, out=thresholds)
            thresholds *= beta
            if thresholds.max() <= _FROZEN:
                break
        _log_thresholds(rng, thresholds)
        total = 0
        for s, f, threshold, block, dF, runs, d, flip in classes:
            np.multiply(s, f, out=d)
            d *= beta
            np.less(threshold, d, out=flip)
            flips = np.count_nonzero(flip)
            if flips:       # cold sweeps often flip nothing in a class
                np.copyto(d, flip)
                d *= s          # s of a flipped spin, else 0
                s -= d
                s -= d
                # neighbour rows only: a product over all rows can round
                # differently (BLAS groups rows by position)
                np.matmul(block, d, out=dF)
                for f_run, dF_run in runs:
                    f_run -= dF_run
                total += flips
        accepted[t] = total
    S += 1.0
    S *= 0.5
    return accepted


# -- branch and bound ---------------------------------------------------------


def _bb_search(program: BinaryProgram,
               key_idx: Sequence[int]) -> list[tuple[float, tuple[int, ...]]]:
    """The one depth-first search: declaration-order branching, 1-branch first.

    Keeps the cheapest feasible completion, ties broken by the
    lexicographically smallest assignment, per key of the variables at
    ``key_idx``, and returns the kept ``(objective, assignment)`` pairs in
    ascending order.  With no key variables every leaf competes for one
    slot, so subtrees whose objective bound exceeds the best leaf so far by
    more than rounding can explain are pruned; otherwise the whole feasible
    tree is walked.  The walk uses an explicit stack, so its depth is not
    bounded by the recursion limit.

    The search reads the oracle's compiled rows (:func:`_program_tables`),
    the objective as the last one, and keeps a ``[lo, hi]`` interval per
    row over all completions of the current partial assignment.  A term
    spans ``[min(0, c), max(0, c)]`` until decided.  Branching follows
    declaration order, so a product is decided by its earlier variable
    fixed to 0, or by its later one once the earlier one is 1.  Before a
    variable is fixed, the intervals of its rows are saved, and
    backtracking assigns them back.  Leaf objectives come from
    :meth:`LinearForm.value`, so they are the oracle's floats bit for bit.
    """
    n = program.num_vars
    tables = _program_tables(program)
    forms = [lhs for lhs, _, _ in tables.rows] + [tables.objective]
    obj_row = len(tables.rows)
    upper = [rhs + _FEAS_TOL if sense != ">=" else math.inf
             for _, sense, rhs in tables.rows]
    lower = [rhs - _FEAS_TOL if sense != "<=" else -math.inf
             for _, sense, rhs in tables.rows]

    # per variable: (row, min(0, c), max(0, c)) of its linear terms, of the
    # products where it is the earlier variable, and (earlier variable, row,
    # min, max) of the products where it is the later one
    linear: list[list] = [[] for _ in range(n)]
    earlier: list[list] = [[] for _ in range(n)]
    later: list[list] = [[] for _ in range(n)]
    lo = [form.const for form in forms]
    hi = list(lo)
    for row, form in enumerate(forms):
        for shift, c in form.terms:
            linear[n - 1 - shift].append((row, min(0.0, c), max(0.0, c)))
        for shift_u, shift_v, c in form.products:
            u, v = sorted((n - 1 - shift_u, n - 1 - shift_v))
            earlier[u].append((row, min(0.0, c), max(0.0, c)))
            later[v].append((u, row, min(0.0, c), max(0.0, c)))
        for *_, c in form.terms + form.products:
            lo[row] += min(0.0, c)
            hi[row] += max(0.0, c)
    zero_moves = [linear[v] + earlier[v] for v in range(n)]
    rows_of = [sorted({move[0] for move in zero_moves[v]}
                      | {move[1] for move in later[v]}) for v in range(n)]
    checks = [[row for row in rows if row != obj_row] for rows in rows_of]

    # a bound and a leaf value sum the same k terms in different orders, so
    # they may differ by about 3k * eps * sum|c| (Higham, Accuracy and
    # Stability of Numerical Algorithms, 2nd ed., sec. 4.2); this slack covers
    # that for k up to about a million
    objective = tables.objective
    slack = _FEAS_TOL * (abs(objective.const)
                         + sum(abs(c) for *_, c in objective.terms + objective.products))
    prune_objective = not key_idx
    incumbent = math.inf
    best: dict[tuple[int, ...], tuple[float, tuple[int, ...]]] = {}

    # catches constraints that are violated before any variable is fixed,
    # including ones that reference no variables at all
    if any(lo[row] > upper[row] or hi[row] < lower[row] for row in range(obj_row)):
        return []
    if n == 0:
        return [(objective.value(0), ())]

    values = [0] * n
    prefix = [0] * (n + 1)    # prefix[d] is the code of variables 0..d-1
    saved: list[list] = []    # saved[d] holds (row, lo, hi) from before fixing d
    stack = [(0, 0), (0, 1)]  # (variable, value); the top is visited first
    while stack:
        depth, value = stack.pop()
        while len(saved) > depth:
            for row, row_lo, row_hi in saved.pop():
                lo[row] = row_lo
                hi[row] = row_hi
        saved.append([(row, lo[row], hi[row]) for row in rows_of[depth]])
        values[depth] = value
        prefix[depth + 1] = (prefix[depth] << 1) | value
        # the terms this fix decides now narrow from [neg, pos] to value * c
        moves = linear[depth] if value else zero_moves[depth]
        if later[depth]:
            moves = moves + [move[1:] for move in later[depth] if values[move[0]]]
        if value:
            for row, neg, pos in moves:
                lo[row] += pos
                hi[row] += neg
        else:
            for row, neg, pos in moves:
                lo[row] -= neg
                hi[row] -= pos
        if any(lo[row] > upper[row] or hi[row] < lower[row] for row in checks[depth]):
            continue
        if lo[obj_row] > incumbent:
            continue
        if depth + 1 == n:
            # every row was re-checked when its last variable was fixed,
            # so the leaf is feasible by construction
            bits = tuple(values)
            found = (objective.value(prefix[n]), bits)
            key = tuple(bits[i] for i in key_idx)
            if key not in best or found < best[key]:
                best[key] = found
                if prune_objective:
                    incumbent = found[0] + slack
        else:
            stack += ((depth + 1, 0), (depth + 1, 1))
    return sorted(best.values())


_BB_SOLVERS = {"optimal": "bb", "enumerate_all": "bb-enumerate", "pool": "bb-pool"}


def branch_and_bound(program: BinaryProgram, mode: str = "optimal", *,
                     pool_size: int | None = None) -> SampleSet:
    """Exact depth-first search over a BinaryProgram.

    All modes run the same search.  ``optimal`` prunes it by objective and
    returns one provably optimal assignment.  ``enumerate_all`` walks the
    whole feasible tree and returns the cheapest completion of every
    projected-distinct feasible solution, in objective order; ``pool``
    does the same and keeps the ``pool_size`` best.  Ties always resolve
    to the lexicographically smallest assignment.

    The search reads the rows the oracle compiles, and its objectives are
    the oracle's floats bit for bit, so every mode returns exactly the
    records of :func:`brute_force` (the best ones, for ``optimal`` and
    ``pool``), with the same tie-breaks.
    """
    t0 = time.perf_counter()
    if mode not in _BB_SOLVERS:
        raise ValueError(f"unknown branch-and-bound mode {mode!r}")
    if mode == "pool" and (pool_size is None or pool_size < 1):
        raise ValueError("pool mode needs pool_size >= 1")
    if mode == "optimal":
        found = _bb_search(program, ())
    else:
        position = {name: i for i, name in enumerate(program.var_names)}
        over = program.projection or program.var_names
        found = _bb_search(program, [position[name] for name in over])
        if mode == "pool":
            found = found[:pool_size]
    records = [SampleRecord(assignment=bits, energy=obj, objective=obj, feasible=True)
               for obj, bits in found]
    return SampleSet.build(records, _BB_SOLVERS[mode], tau=time.perf_counter() - t0,
                           status="ok" if records else "infeasible")
