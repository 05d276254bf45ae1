"""Benchmark metrics: time-to-target, success estimation, diversity, Pareto.

The central quantity is the time-to-target estimate

    ttt = tau * log(1 - s) / log(1 - p)

for a solver whose single run takes ``tau`` seconds and hits the target with
probability ``p``: the expected wall-clock time until the target has been
seen at least once with confidence ``s``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

from .errors import ModelError
from .ip import BinaryProgram
from .solvers import SampleSet

__all__ = [
    "ttt",
    "SuccessEstimate",
    "OptimalityTarget",
    "AllFeasibleTarget",
    "estimate_success",
    "DiversityReport",
    "diversity",
    "ParetoPoint",
    "pareto_front",
    "TttReport",
    "build_ttt_report",
    "write_ttt_csv",
    "write_pareto_csv",
]

_Z95 = 1.959963984540054


def ttt(tau: float, p_target: float, s: float = 0.99) -> float:
    """Expected time to reach the target with confidence ``s``.

    ``p_target >= s`` returns ``tau`` exactly (one run already reaches the
    confidence ``s``, so a deterministic solver needs one run as well);
    ``p_target == 0`` returns infinity (the target was never observed, so
    no finite estimate exists).
    """
    if not (isinstance(tau, (int, float)) and math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be a positive finite number, got {tau!r}")
    if not (isinstance(p_target, (int, float)) and 0.0 <= p_target <= 1.0):
        raise ValueError(f"p_target must lie in [0, 1], got {p_target!r}")
    if not (isinstance(s, (int, float)) and 0.0 < s < 1.0):
        raise ValueError(f"s must lie strictly between 0 and 1, got {s!r}")
    if p_target == 0.0:
        return math.inf
    if p_target >= s:
        return float(tau)
    return tau * math.log(1.0 - s) / math.log(1.0 - p_target)


@dataclass(frozen=True)
class SuccessEstimate:
    """Success probability: per read with a 95% Wilson interval ("counting"),
    or per batch as observed, with ``ci == (p, p)`` ("coverage")."""

    p: float
    ci: tuple[float, float]
    method: str


@dataclass(frozen=True)
class OptimalityTarget:
    """Hit = a read at or below the reference energy (within ``tol``)."""

    energy: float
    tol: float = 1e-9


@dataclass(frozen=True)
class AllFeasibleTarget:
    """Hit = one batch of reads covering every reference configuration.

    The reference's feasible records, assignments of ``program``'s width
    projected onto it, are the configurations; it should be exhaustive
    (oracle, ``enumerate_all`` or a full pool).
    """

    reference: SampleSet
    program: BinaryProgram


def _wilson(hits: int, total: int) -> tuple[float, float]:
    if total <= 0:
        return (0.0, 1.0)
    z2 = _Z95 * _Z95
    phat = hits / total
    denom = 1.0 + z2 / total
    center = (phat + z2 / (2.0 * total)) / denom
    half = _Z95 * math.sqrt(phat * (1.0 - phat) / total
                            + z2 / (4.0 * total * total)) / denom
    # cancellation can leave dust at the exact boundaries
    low = 0.0 if hits == 0 else max(0.0, center - half)
    high = 1.0 if hits == total else min(1.0, center + half)
    return (low, high)


def _feasible_configurations(samples: SampleSet, program: BinaryProgram) -> dict:
    """Occurrences of each feasible configuration of ``samples``, keyed by
    :meth:`~flowqubo.ip.BinaryProgram.project` in the order of each
    configuration's first record."""
    counts: dict = {}
    for rec in samples.records:
        if rec.feasible:
            key = program.project(rec.assignment)
            counts[key] = counts.get(key, 0) + rec.occurrences
    return counts


def _coverage(samples: SampleSet, target: AllFeasibleTarget):
    """Observed coverage estimate and the :func:`diversity` report it is
    read from."""
    if not samples.records:
        raise ModelError("cannot estimate success from an empty sample set")
    report = diversity(samples, target.reference, target.program)
    p = 1.0 if report.found_count == report.total else 0.0
    return SuccessEstimate(p=p, ci=(p, p), method="coverage"), report


def estimate_success(samples: SampleSet, target) -> SuccessEstimate:
    """Probability of hitting ``target``.

    Optimality targets use the exact occurrence-weighted hit fraction per
    read.  The all-feasible target is a batch property and is observed: ``p``
    is 1 when the batch reached every reference configuration, else 0 (a
    resample of the reads cannot reach a configuration the batch missed); a
    feasible configuration the reference lacks raises, as in :func:`diversity`.
    """
    if isinstance(target, AllFeasibleTarget):
        return _coverage(samples, target)[0]
    if not samples.records:
        raise ModelError("cannot estimate success from an empty sample set")
    if isinstance(target, OptimalityTarget):
        total = samples.num_reads
        hits = sum(r.occurrences for r in samples.records
                   if r.energy <= target.energy + target.tol)
        return SuccessEstimate(p=hits / total, ci=_wilson(hits, total),
                               method="counting")
    raise TypeError(f"unsupported target type {type(target)!r}")


@dataclass(frozen=True)
class DiversityReport:
    total: int
    found_count: int
    coverage: float
    rank_hits: Mapping[int, int]
    found_ranks: tuple[int, ...]
    mean_rank: float | None


def diversity(samples: SampleSet, reference: SampleSet,
              program: BinaryProgram) -> DiversityReport:
    """How much of the reference's feasible configurations the samples recovered.

    Those configurations, the ones the all-feasible target counts, rank
    1..total in the order of their first records.  ``rank_hits`` counts
    sample occurrences per recovered rank.  Both sets hold assignments of
    the model's width, which :meth:`~flowqubo.ip.BinaryProgram.project`
    reads; a feasible record of any other width raises
    :class:`~flowqubo.errors.DimensionError`.  A reference with no feasible
    record, or a feasible sample outside it (different models), raises
    :class:`~flowqubo.errors.ModelError`.
    """
    configs = _feasible_configurations(reference, program)
    if not configs:
        raise ModelError("reference sample set has no feasible records")
    key_rank = {key: rank for rank, key in enumerate(configs, 1)}
    rank_hits: dict[int, int] = {}
    for key, occurrences in _feasible_configurations(samples, program).items():
        rank = key_rank.get(key)
        if rank is None:
            raise ModelError(
                "feasible sample configuration missing from the reference "
                "set; the sample sets describe different models")
        rank_hits[rank] = occurrences
    found_ranks = tuple(sorted(rank_hits))
    return DiversityReport(
        total=len(key_rank),
        found_count=len(found_ranks),
        coverage=len(found_ranks) / len(key_rank),
        rank_hits=dict(sorted(rank_hits.items())),
        found_ranks=found_ranks,
        mean_rank=sum(found_ranks) / len(found_ranks) if found_ranks else None,
    )


# -- Pareto analysis -----------------------------------------------------------


@dataclass(frozen=True)
class ParetoPoint:
    config_id: str
    discrete_objective: float
    continuous_objective: float


def pareto_front(points: Iterable[ParetoPoint]) -> tuple[ParetoPoint, ...]:
    """Non-dominated subset under minimization of both objectives.

    Duplicate (discrete, continuous) pairs collapse onto the
    lexicographically smallest config id.  The result is sorted by discrete
    objective with strictly decreasing continuous objective.
    """
    ordered = sorted(points, key=lambda p: (p.discrete_objective,
                                            p.continuous_objective,
                                            p.config_id))
    front: list[ParetoPoint] = []
    best_cont = math.inf
    for p in ordered:
        if p.continuous_objective < best_cont:
            front.append(p)
            best_cont = p.continuous_objective
    return tuple(front)


# -- report assembly -----------------------------------------------------------


@dataclass(frozen=True)
class TttReport:
    """One benchmark row; None marks quantities that were not computed."""

    solver: str
    s: float
    tau: float | None
    p_opt: float | None = None
    p_feas: float | None = None
    ttt_opt: float | None = None
    ttt_feas: float | None = None
    coverage_found: int | None = None
    coverage_total: int | None = None


def build_ttt_report(
    samples: SampleSet,
    *,
    s: float = 0.99,
    optimal_target: OptimalityTarget | None = None,
    feasible_target: AllFeasibleTarget | None = None,
) -> TttReport:
    tau = samples.tau
    p_opt = ttt_opt = None
    if optimal_target is not None:
        p_opt = estimate_success(samples, optimal_target).p
        if tau is not None:
            # tau times the whole batch of reads, so the hit rate is per batch,
            # as the coverage p_feas already is
            ttt_opt = ttt(tau, 1.0 - (1.0 - p_opt) ** samples.num_reads, s)
    report = TttReport(solver=samples.solver, s=s, tau=tau, p_opt=p_opt, ttt_opt=ttt_opt)
    if feasible_target is not None:
        report = _with_coverage(report, samples, feasible_target)[0]
    return report


def _with_coverage(report: TttReport, samples: SampleSet,
                   target: AllFeasibleTarget) -> tuple[TttReport, DiversityReport]:
    """``report`` with the fields of the all-feasible ``target`` filled in,
    and the :func:`diversity` report of ``samples`` they are read from, so
    a caller that writes both reads the reference once."""
    estimate, found = _coverage(samples, target)
    ttt_feas = None if report.tau is None else ttt(report.tau, estimate.p, report.s)
    return replace(report, p_feas=estimate.p, ttt_feas=ttt_feas,
                   coverage_found=found.found_count, coverage_total=found.total), found


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return str(value)


def write_ttt_csv(reports: Sequence[TttReport], path, s: float = 0.99) -> None:
    """Columns: solver, tau, ttopt<pct>, ttfeas<pct>, coverage.

    Unobserved or uncomputed entries show as "-", a target that was never
    hit shows as "inf", and coverage is written as found/total.
    """
    pct = f"{(reports[0].s if reports else s) * 100:g}"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["solver", "tau", f"ttopt{pct}", f"ttfeas{pct}", "coverage"])
        for rep in reports:
            cov = None
            if rep.coverage_found is not None and rep.coverage_total is not None:
                cov = f"{rep.coverage_found}/{rep.coverage_total}"
            writer.writerow([
                rep.solver,
                _cell(rep.tau),
                _cell(rep.ttt_opt),
                _cell(rep.ttt_feas),
                _cell(cov),
            ])


def write_pareto_csv(rows: Sequence[Mapping], front_ids, path) -> None:
    """Columns: config_id, discrete_objective, continuous_objective, status,
    on_front.  Rows come out sorted by configuration id."""
    front_ids = set(front_ids)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["config_id", "discrete_objective",
                         "continuous_objective", "status", "on_front"])
        for row in sorted(rows, key=lambda r: r["config_id"]):
            cont = row.get("continuous_objective")
            writer.writerow([
                row["config_id"],
                _cell(row.get("discrete_objective")),
                "inf" if cont is None else _cell(cont),
                row.get("status", "ok"),
                "true" if row["config_id"] in front_ids else "false",
            ])
