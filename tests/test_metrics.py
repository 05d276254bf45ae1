import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowqubo import (
    AllFeasibleTarget,
    BinaryProgram,
    Constraint,
    DimensionError,
    ModelError,
    OptimalityTarget,
    ParetoPoint,
    SaParams,
    SampleRecord,
    SampleSet,
    branch_and_bound,
    brute_force,
    build_ttt_report,
    diversity,
    estimate_success,
    pareto_front,
    simulated_annealing,
    ttt,
    write_pareto_csv,
    write_ttt_csv,
)


# -- time to target ------------------------------------------------------------


def test_ttt_certain_success_is_tau():
    assert ttt(0.003, 1.0) == 0.003
    assert ttt(2.5, 1.0, s=0.5) == 2.5


def test_ttt_frozen_values():
    assert ttt(1.0, 0.5, 0.99) == pytest.approx(6.643856189774724, abs=1e-12)
    assert ttt(0.34, 0.012) == pytest.approx(129.6953677802878, abs=1e-10)


def test_ttt_is_at_least_tau_and_non_increasing_in_p():
    ps = [k / 1000 for k in range(1, 1001)]
    for s in (0.5, 0.9, 0.99):
        values = [ttt(1.0, p, s) for p in ps]
        assert min(values) >= 1.0
        assert all(a >= b for a, b in zip(values, values[1:]))
    assert ttt(1.0, 0.999, 0.99) == 1.0


def test_ttt_zero_probability_is_infinite():
    assert math.isinf(ttt(1.0, 0.0))


@pytest.mark.parametrize("tau,p,s", [
    (-1.0, 0.5, 0.99), (1.0, -0.1, 0.99), (1.0, 1.5, 0.99),
    (1.0, 0.5, 0.0), (1.0, 0.5, 1.0),
])
def test_ttt_validates_arguments(tau, p, s):
    with pytest.raises(ValueError):
        ttt(tau, p, s)


def test_ttt_scales_linearly_in_tau():
    assert ttt(2.0, 0.3) == pytest.approx(2.0 * ttt(1.0, 0.3))


# -- success estimation --------------------------------------------------------


def _samples(records, **kw):
    return SampleSet.build(records, kw.pop("solver", "sa"), **kw)


def test_counting_estimate_weighs_occurrences():
    ss = _samples([
        SampleRecord((0, 0), 1.0, occurrences=8),
        SampleRecord((1, 1), 2.0, occurrences=2),
    ])
    est = estimate_success(ss, OptimalityTarget(energy=1.0))
    assert est.method == "counting"
    assert est.p == pytest.approx(0.8)
    assert est.ci[0] == pytest.approx(0.49016247153664183)
    assert est.ci[1] == pytest.approx(0.9433178485456247)


def test_counting_estimate_tolerance():
    ss = _samples([SampleRecord((0,), 1.0 + 5e-10)])
    assert estimate_success(ss, OptimalityTarget(energy=1.0)).p == 1.0
    assert estimate_success(ss, OptimalityTarget(energy=1.0, tol=0.0)).p == 0.0


def test_estimate_rejects_empty_sampleset():
    empty = SampleSet.build([], "sa", status="infeasible")
    with pytest.raises(ModelError):
        estimate_success(empty, OptimalityTarget(energy=0.0))


def _cover_program():
    return BinaryProgram(
        var_names=("a", "b"),
        objective={"a": 1.0, "b": 2.0},
        constraints=(Constraint({"a": 1.0, "b": 1.0}, ">=", 1.0),),
    )


def test_coverage_estimate_full_coverage():
    prog = _cover_program()
    reference = brute_force(prog)
    ss = _samples([
        SampleRecord((1, 0), 1.0, occurrences=3, feasible=True, objective=1.0),
        SampleRecord((0, 1), 2.0, occurrences=2, feasible=True, objective=2.0),
        SampleRecord((1, 1), 3.0, occurrences=1, feasible=True, objective=3.0),
    ])
    est = estimate_success(ss, AllFeasibleTarget(reference=reference, program=prog))
    assert est.method == "coverage"
    assert est.p == 1.0
    assert est.ci == (1.0, 1.0)


def test_coverage_estimate_partial_coverage_is_observed_zero():
    # (1, 1) is never read, so this batch did not cover the reference
    prog = _cover_program()
    reference = brute_force(prog)
    ss = _samples([
        SampleRecord((1, 0), 1.0, occurrences=40, feasible=True, objective=1.0),
        SampleRecord((0, 1), 2.0, occurrences=40, feasible=True, objective=2.0),
    ])
    est = estimate_success(ss, AllFeasibleTarget(reference=reference, program=prog))
    assert est.method == "coverage"
    assert est.p == 0.0
    assert est.ci == (0.0, 0.0)


def test_coverage_target_rejects_reference_without_feasible_records():
    prog = _cover_program()
    unflagged = _samples([SampleRecord((1, 0), 1.0)])
    ss = _samples([SampleRecord((1, 0), 1.0, feasible=True, objective=1.0)])
    target = AllFeasibleTarget(reference=unflagged, program=prog)
    with pytest.raises(ModelError):
        estimate_success(ss, target)
    with pytest.raises(ModelError):
        build_ttt_report(ss, feasible_target=target)
    with pytest.raises(ModelError):
        diversity(ss, unflagged, prog)


# -- diversity -----------------------------------------------------------------


def test_diversity_ranks_and_coverage():
    prog = _cover_program()
    reference = brute_force(prog)          # ranks: (1,0)=1, (0,1)=2, (1,1)=3
    ss = _samples([
        SampleRecord((1, 0), 1.0, occurrences=5, feasible=True, objective=1.0),
        SampleRecord((1, 1), 3.0, occurrences=2, feasible=True, objective=3.0),
        SampleRecord((0, 0), 9.0, occurrences=1, feasible=False, objective=None),
    ])
    rep = diversity(ss, reference, prog)
    assert rep.total == 3
    assert rep.found_count == 2
    assert rep.coverage == pytest.approx(2.0 / 3.0)
    assert rep.found_ranks == (1, 3)
    assert rep.rank_hits == {1: 5, 3: 2}
    assert rep.mean_rank == 2.0


def test_diversity_rejects_foreign_solutions():
    prog = BinaryProgram(
        var_names=("a", "b"), objective={"a": 1.0},
        constraints=(Constraint({"a": 1.0}, "=", 1.0),))
    reference = brute_force(prog)
    foreign = _samples([SampleRecord((0, 0), 0.0, feasible=True, objective=0.0)])
    with pytest.raises(ModelError):
        diversity(foreign, reference, prog)


def test_coverage_rejects_foreign_solutions():
    # the coverage target reads diversity, so a feasible configuration the
    # reference lacks raises here too, not a coverage of 1 of 2
    prog = BinaryProgram(
        var_names=("a", "b"), objective={"a": 1.0},
        constraints=(Constraint({"a": 1.0}, "=", 1.0),))
    target = AllFeasibleTarget(reference=brute_force(prog), program=prog)
    foreign = _samples([
        SampleRecord((0, 0), 0.0, feasible=True, objective=0.0),
        SampleRecord((1, 0), 1.0, feasible=True, objective=1.0),
    ])
    with pytest.raises(ModelError, match="missing from the reference"):
        estimate_success(foreign, target)
    with pytest.raises(ModelError, match="missing from the reference"):
        build_ttt_report(foreign, feasible_target=target)


def test_diversity_ranks_only_feasible_reference_configurations():
    # an annealer's batch as its own reference: the infeasible record takes
    # no rank, so the ranks are 1..3 and match the ttt.csv coverage
    prog = _cover_program()
    ss = _samples([
        SampleRecord((1, 0), 1.0, occurrences=4, feasible=True, objective=1.0),
        SampleRecord((0, 1), 2.0, occurrences=3, feasible=True, objective=2.0),
        SampleRecord((1, 1), 3.0, occurrences=2, feasible=True, objective=3.0),
        SampleRecord((0, 0), 4.0, occurrences=1, feasible=False, objective=None),
    ])
    rep = diversity(ss, ss, prog)
    assert rep.total == 3
    assert rep.found_ranks == (1, 2, 3)
    assert rep.rank_hits == {1: 4, 2: 3, 3: 2}
    report = build_ttt_report(
        ss, feasible_target=AllFeasibleTarget(reference=ss, program=prog))
    assert (report.coverage_found, report.coverage_total) == (3, 3)


@pytest.mark.parametrize("case", ["il", "ds"])
def test_diversity_and_ttt_coverage_read_one_reference_set(case, request):
    program = request.getfixturevalue(f"{case}_program")
    reform = request.getfixturevalue(f"{case}_reform")
    sa = reform.decode_sampleset(simulated_annealing(
        reform.qubo, SaParams(num_reads=120, num_sweeps=150, seed=9)))
    references = {
        "oracle": request.getfixturevalue(f"{case}_oracle"),
        "bb-pool": branch_and_bound(program, "pool", pool_size=512),
        "sa": sa,
    }
    for name, reference in references.items():
        rep = diversity(sa, reference, program)
        report = build_ttt_report(
            sa, feasible_target=AllFeasibleTarget(reference=reference,
                                                  program=program))
        assert rep.total == report.coverage_total, name
        assert rep.found_count == report.coverage_found, name
        assert set(rep.found_ranks) <= set(range(1, rep.total + 1)), name
    # against itself every configuration is found, so the ranks are 1..total
    assert rep.found_ranks == tuple(range(1, rep.total + 1))
    assert report.p_feas == 1.0


def test_diversity_projects_full_assignments():
    prog = BinaryProgram(
        var_names=("a", "b", "c"),
        objective={"a": 1.0, "b": 2.0, "c": 1.0},
        constraints=(Constraint({"a": 1.0, "b": 1.0}, ">=", 1.0),),
        projection=("a", "b"),
    )
    reference = brute_force(prog)
    # same projected configuration reached through a different completion
    ss = _samples([SampleRecord((1, 0, 1), 2.0, feasible=True, objective=2.0)])
    rep = diversity(ss, reference, prog)
    assert rep.found_ranks == (1,)


def test_diversity_refuses_projection_width_records():
    prog = BinaryProgram(
        var_names=("a", "b", "c"),
        objective={"a": 1.0, "b": 2.0, "c": 1.0},
        constraints=(Constraint({"a": 1.0, "b": 1.0}, ">=", 1.0),),
        projection=("a", "b"),
    )
    reference = brute_force(prog)
    projected = _samples([SampleRecord((1, 0), 1.0, feasible=True, objective=1.0)])
    with pytest.raises(DimensionError, match="assignment has 2 entries, program has 3"):
        diversity(projected, reference, prog)
    with pytest.raises(DimensionError):
        diversity(reference, projected, prog)
    with pytest.raises(DimensionError):
        build_ttt_report(projected, feasible_target=AllFeasibleTarget(reference, prog))


# -- pareto --------------------------------------------------------------------


def _pt(cid, d, c):
    return ParetoPoint(config_id=cid, discrete_objective=d, continuous_objective=c)


def test_pareto_front_frozen_example():
    pts = [_pt("a", 1.0, 5.0), _pt("b", 2.0, 3.0), _pt("c", 3.0, 4.0)]
    front = pareto_front(pts)
    assert [(p.discrete_objective, p.continuous_objective) for p in front] == \
        [(1.0, 5.0), (2.0, 3.0)]


def test_pareto_duplicates_collapse_to_smallest_id():
    pts = [_pt("z", 1.0, 1.0), _pt("a", 1.0, 1.0)]
    front = pareto_front(pts)
    assert [p.config_id for p in front] == ["a"]


def test_pareto_equal_discrete_keeps_single_best():
    pts = [_pt("a", 1.0, 5.0), _pt("b", 1.0, 3.0)]
    front = pareto_front(pts)
    assert [p.config_id for p in front] == ["b"]


points_strategy = st.lists(
    st.builds(
        _pt,
        st.text(alphabet="01", min_size=1, max_size=4),
        st.integers(min_value=-5, max_value=5).map(float),
        st.integers(min_value=-5, max_value=5).map(float),
    ),
    min_size=1, max_size=24,
)


@given(points_strategy)
@settings(max_examples=100, deadline=None)
def test_pareto_front_is_non_dominated_and_idempotent(pts):
    front = pareto_front(pts)
    for member in front:
        for other in pts:
            strictly_better = (
                other.discrete_objective <= member.discrete_objective
                and other.continuous_objective <= member.continuous_objective
                and (other.discrete_objective < member.discrete_objective
                     or other.continuous_objective < member.continuous_objective))
            assert not strictly_better
    assert pareto_front(front) == front


@given(points_strategy, st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_pareto_front_is_permutation_stable(pts, rnd):
    shuffled = list(pts)
    rnd.shuffle(shuffled)
    assert pareto_front(shuffled) == pareto_front(pts)


# -- report files --------------------------------------------------------------


def test_build_ttt_report_fields():
    ss = _samples([
        SampleRecord((0,), 0.0, occurrences=1, feasible=True, objective=0.0),
        SampleRecord((1,), 1.0, occurrences=3, feasible=True, objective=1.0),
    ], tau=0.5)
    prog = BinaryProgram(var_names=("a",), objective={"a": 1.0})
    reference = brute_force(prog)
    report = build_ttt_report(
        ss, s=0.99,
        optimal_target=OptimalityTarget(energy=0.0),
        feasible_target=AllFeasibleTarget(reference=reference, program=prog))
    assert report.p_opt == pytest.approx(0.25)
    assert report.p_feas == 1.0
    # tau times the batch of 4 reads, so the hit rate is per batch too
    assert report.ttt_opt == pytest.approx(ttt(0.5, 1 - 0.75 ** 4, 0.99))
    assert report.ttt_feas == 0.5
    assert report.coverage_found == 2
    assert report.coverage_total == 2
    assert report.tau == 0.5
    assert report.solver == "sa"


def test_ttt_opt_uses_the_batch_hit_rate():
    # 5 optimal reads in 1000: one batch of tau 2.32 s already reaches the
    # optimum with more than 99% confidence, so ttt_opt is one batch, not
    # ttt(2.32, 0.005) = 2132 s
    ss = _samples([
        SampleRecord((0,), 0.0, occurrences=5),
        SampleRecord((1,), 1.0, occurrences=995),
    ], tau=2.32)
    report = build_ttt_report(ss, optimal_target=OptimalityTarget(energy=0.0))
    assert report.p_opt == pytest.approx(0.005)
    assert report.ttt_opt == 2.32


def test_build_ttt_report_without_tau_leaves_ttt_unset():
    ss = _samples([SampleRecord((0,), 0.0)])
    report = build_ttt_report(ss, optimal_target=OptimalityTarget(energy=0.0))
    assert report.p_opt == 1.0
    assert report.ttt_opt is None
    assert report.tau is None


def test_write_ttt_csv_golden(tmp_path):
    ss = _samples([
        SampleRecord((0,), 0.0, occurrences=1, feasible=True, objective=0.0),
        SampleRecord((1,), 1.0, occurrences=1, feasible=True, objective=1.0),
    ], tau=2.0)
    reports = [
        build_ttt_report(ss, optimal_target=OptimalityTarget(energy=0.0)),
        build_ttt_report(_samples([SampleRecord((1,), 5.0)], solver="bb"),
                         optimal_target=OptimalityTarget(energy=0.0)),
    ]
    path = tmp_path / "ttt.csv"
    write_ttt_csv(reports, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "solver,tau,ttopt99,ttfeas99,coverage"
    assert lines[1] == f"sa,2.0,{ttt(2.0, 0.75, 0.99)},-,-"
    assert lines[2] == "bb,-,-,-,-"


def test_write_ttt_csv_renders_infinite(tmp_path):
    ss = _samples([SampleRecord((1,), 5.0)], tau=1.0)
    report = build_ttt_report(ss, optimal_target=OptimalityTarget(energy=0.0))
    path = tmp_path / "ttt.csv"
    write_ttt_csv([report], path)
    assert path.read_text().splitlines()[1] == "sa,1.0,inf,-,-"


def test_write_ttt_csv_header_tracks_s(tmp_path):
    path = tmp_path / "ttt.csv"
    write_ttt_csv([], path, s=0.5)
    assert path.read_text().splitlines() == ["solver,tau,ttopt50,ttfeas50,coverage"]
    # a confidence that is not a whole percent keeps its decimals
    write_ttt_csv([], path, s=0.999)
    assert path.read_text().splitlines() == ["solver,tau,ttopt99.9,ttfeas99.9,coverage"]


def test_write_pareto_csv_golden(tmp_path):
    rows = [
        {"config_id": "10", "discrete_objective": 2.0,
         "continuous_objective": 3.5, "status": "ok"},
        {"config_id": "01", "discrete_objective": 1.0,
         "continuous_objective": None, "status": "continuous-infeasible"},
    ]
    path = tmp_path / "pareto.csv"
    write_pareto_csv(rows, front_ids=["10"], path=path)
    assert path.read_text().splitlines() == [
        "config_id,discrete_objective,continuous_objective,status,on_front",
        "01,1.0,inf,continuous-infeasible,false",
        "10,2.0,3.5,ok,true",
    ]
