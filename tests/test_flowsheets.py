import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowqubo import (
    BlackBoxObjective,
    Constraint,
    DsDesignSpace,
    DsNode,
    IlDesignSpace,
    ModelError,
    brute_force,
    build_ds_discrete,
    build_il_discrete,
    il_continuous_solve,
    pattern_search,
    run_blackbox,
    sweep_il,
)
from flowqubo import flowsheets
from flowqubo.flowsheets import (
    _COARSE_SHRINKS,
    _INITIAL_STEP_FRAC,
    _SHRINK,
    _STOP_MESH,
    _IL_TOL,
    _BudgetSpent,
    _compile_il,
    _parse_selection,
)


def _single_path_space(**overrides):
    base = dict(
        reactors=("R1",), separators=("S1",), cations=("c1",), anions=("a1",),
        c_fixed={"R1": 2.0, "S1": 1.0},
        c_oper_reactor={"R1": 1.0},
        c_oper_separator={"S1": 1.0},
        c_invest={"R1": 0.5, "S1": 0.25},
        c_energy={"S1": 0.125},
        alpha={"R1": 0.8},
        beta={"S1": {"c1": {"a1": 1.0}}},
        f_lower={"R1": 1.0, "S1": 1.0},
        f_upper={"R1": 20.0, "S1": 16.0},
        demand=5.0,
    )
    base.update(overrides)
    return IlDesignSpace(**base)


_SINGLE_SELECTION = {"y[R1]": 1, "y[S1]": 1, "z[c1]": 1, "z[a1]": 1}


# -- references: the numpy poll loop and the dict evaluator ---------------------


def _reference_pattern_search(func, bounds, *, seed=None, starts=20, budget=None,
                              full_refinement=False):
    """The pattern search with its poll scalars held as numpy values.

    A start tracks the factor its steps have shrunk by; at the coarse factor a
    failed poll ends it unless it holds the best value.  ``full_refinement``
    drops that stop, so that every start refines down to ``_STOP_MESH``.
    """
    lb = np.array([b[0] for b in bounds], dtype=float)
    ub = np.array([b[1] for b in bounds], dtype=float)
    rng = np.random.default_rng(seed)
    dim = lb.size
    coarse = np.float64(_SHRINK) ** _COARSE_SHRINKS
    evals = 0
    best_val = math.inf
    best_x = None
    limit = math.inf if budget is None else budget

    def evaluate(point):
        nonlocal evals, best_val, best_x
        if evals >= limit:
            raise _BudgetSpent
        value = float(func(point))
        evals += 1
        if value < best_val:
            best_val = value
            best_x = point.copy()
        return value

    try:
        for start_index in range(starts):
            x = (lb + ub) / 2.0 if start_index == 0 else rng.uniform(lb, ub)
            fx = evaluate(x)
            step = _INITIAL_STEP_FRAC * (ub - lb)
            factor = np.float64(1.0)
            while True:
                accepted = False
                for i in range(dim):
                    for sgn in (1.0, -1.0):
                        cand_i = min(max(x[i] + sgn * step[i], lb[i]), ub[i])
                        if cand_i == x[i]:
                            continue
                        cand = x.copy()
                        cand[i] = cand_i
                        fc = evaluate(cand)
                        if fc < fx:
                            x, fx = cand, fc
                            accepted = True
                            break
                    if accepted:
                        break
                if accepted:
                    continue
                if step.max() < _STOP_MESH:
                    break
                if not full_refinement and factor == coarse and fx > best_val:
                    break
                step = step * _SHRINK
                factor = factor * _SHRINK
    except _BudgetSpent:
        pass
    return best_x, best_val, evals


def _reference_il_model(space, fixed):
    """The il evaluator on dicts, fed numpy scalars by ``zip(pairs, x)``."""
    sel_r, sel_s, cation, anion = _parse_selection(space, fixed)
    pairs = [(r, s) for r in sel_r for s in sel_s]
    bounds = tuple(
        (0.0, min(space.f_upper[s], space.alpha[r] * space.f_upper[r]))
        for r, s in pairs
    )
    beta_s = {s: space.beta[s][cation][anion] for s in sel_s}
    fixed_cost = sum(space.c_fixed[u] for u in sel_r + sel_s)
    tol = 1e-9

    def throughputs(x):
        feed = {r: 0.0 for r in sel_r}
        intake = {s: 0.0 for s in sel_s}
        for (r, s), v in zip(pairs, x):
            feed[r] += v / space.alpha[r]
            intake[s] += v
        return feed, intake

    def flows(x):
        feed, intake = throughputs(x)
        named = {f"src->{r}": float(feed[r]) for r in sel_r}
        named.update({f"{r}->{s}": float(v) for (r, s), v in zip(pairs, x)})
        named.update({f"{s}->out": float(beta_s[s] * intake[s]) for s in sel_s})
        return named

    def admissible(level, unit):
        if level > space.f_upper[unit] + tol:
            return False
        return level <= tol or level >= space.f_lower[unit] - tol

    def evaluate(_fixed, x):
        if (x < 0).any():
            return math.inf, "negative flow"
        feed, intake = throughputs(x)
        for levels in (feed, intake):
            for unit, level in levels.items():
                if not admissible(level, unit):
                    return math.inf, "throughput outside its window"
        # left to right, as the compiled evaluator adds; from Python 3.12 on
        # ``sum`` compensates float sums and could differ in the last bit
        recovered = 0
        for s in sel_s:
            recovered += beta_s[s] * intake[s]
        if recovered < space.demand - tol:
            return math.inf, "demand shortfall"
        value = fixed_cost
        for r in sel_r:
            value += space.c_invest[r] * feed[r] ** 0.6
        for s in sel_s:
            value += (space.c_invest[s] * intake[s] ** 0.6
                      + space.c_energy[s] * intake[s])
        return value, "ok"

    return pairs, bounds, flows, evaluate


def _reference_il_continuous_solve(space, fixed, *, seed=None, budget=None,
                                   starts=20):
    _, bounds, flows, evaluate = _reference_il_model(space, fixed)
    result = run_blackbox(BlackBoxObjective(evaluate, bounds, budget), fixed,
                          seed, starts=starts)
    evals = result["evaluations"]
    if result["status"] != "ok":
        return {"flows": {}, "objective": None,
                "status": "continuous-infeasible", "evaluations": evals}
    return {"flows": flows(result["best_params"]), "objective": result["best_score"],
            "status": "ok", "evaluations": evals}


_TOL = _IL_TOL
_coeff = st.floats(0.0, 10.0, allow_nan=False)


@st.composite
def _il_spaces(draw):
    """A valid il design space and a valid selection on it.

    The demand is a drawn share of the most the selection could recover at
    its separators' upper limits, so that many draws have feasible flows.
    """
    reactors = tuple(f"R{i}" for i in range(draw(st.integers(1, 2))))
    separators = tuple(f"S{i}" for i in range(draw(st.integers(1, 3))))
    cations = tuple(f"c{i}" for i in range(draw(st.integers(1, 2))))
    anions = tuple(f"a{i}" for i in range(draw(st.integers(1, 2))))
    units = reactors + separators
    f_lower, f_upper = {}, {}
    for u in units:
        lower = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 5.0))
        f_lower[u] = lower
        f_upper[u] = lower + draw(st.sampled_from([4.0, 10.0])
                                  | st.floats(0.0, 15.0))
    beta = {s: {c: {a: draw(st.sampled_from([1.0, 0.5]) | st.floats(0.0, 1.0))
                    for a in anions} for c in cations} for s in separators}
    picked_r = draw(st.lists(st.sampled_from(reactors), min_size=1, unique=True))
    picked_s = draw(st.lists(st.sampled_from(separators), min_size=1, unique=True))
    cation, anion = draw(st.sampled_from(cations)), draw(st.sampled_from(anions))
    reach = sum(beta[s][cation][anion] * f_upper[s] for s in picked_s)
    share = draw(st.sampled_from([1.0, 0.5]) | st.floats(0.01, 1.2))
    space = IlDesignSpace(
        reactors=reactors, separators=separators, cations=cations, anions=anions,
        c_fixed={u: draw(_coeff) for u in units},
        c_oper_reactor={r: draw(_coeff) for r in reactors},
        c_oper_separator={s: draw(_coeff) for s in separators},
        c_invest={u: draw(_coeff) for u in units},
        c_energy={s: draw(_coeff) for s in separators},
        alpha={r: draw(st.sampled_from([1.0, 0.8]) | st.floats(0.05, 1.0))
               for r in reactors},
        beta=beta, f_lower=f_lower, f_upper=f_upper,
        demand=share * reach if share * reach > 0.0 else 0.5,
    )
    selection = {f"y[{u}]": 1 for u in picked_r + picked_s}
    selection[f"z[{cation}]"] = 1
    selection[f"z[{anion}]"] = 1
    return space, selection


@st.composite
def _il_points(draw, space, bounds, pairs):
    """Points on and around the window edges of every pair's units.

    Negative entries, outside every search box, are included: -1, -2 tol,
    and the reactor edge ``(f_lower - tol) * alpha``, which lies in
    ``[-tol, 0)`` when ``f_lower`` is 0.  Half the points send flow down one pair only, so that single units sit
    exactly on their edges.
    """
    point = []
    single = draw(st.none() | st.integers(0, len(pairs) - 1))
    for k, ((r, s), (_, ub)) in enumerate(zip(pairs, bounds)):
        if single is not None and k != single:
            point.append(0.0)
            continue
        alpha = space.alpha[r]
        edges = [0.0, _TOL, ub, -2 * _TOL, -1.0, space.demand - _TOL,
                 space.f_lower[s] - _TOL, space.f_upper[s] + _TOL,
                 space.f_lower[s], space.f_upper[s],
                 (space.f_lower[r] - _TOL) * alpha,
                 (space.f_upper[r] + _TOL) * alpha]
        point.append(draw(st.sampled_from(edges) | st.floats(0.0, max(ub, 1e-3))))
    return np.array(point, dtype=float)


# -- design spaces -------------------------------------------------------------


def test_default_il_space_shape(il_space):
    assert il_space.reactors == ("R1", "R2")
    assert il_space.separators == ("S1", "S2", "S3")
    assert il_space.cations == ("c1", "c2")
    assert il_space.anions == ("a1", "a2")
    assert il_space.provenance == "synthetic"
    assert il_space.demand == 5.0


def test_default_ds_space_shape(ds_space):
    assert len(ds_space.flows) == 19
    assert len(ds_space.nodes) == 10
    assert ds_space.source == "f00"
    assert ds_space.sink == "f18"
    assert len(ds_space.configuration_flows) == 11
    assert len(ds_space.logic_rules) == 5
    assert ds_space.provenance == "synthetic"


# coefficients that are not numbers at all; they used to escape as TypeError
_NON_NUMBERS = [
    ({"c_fixed": {"R1": "2", "S1": 1.0}}, r"c_fixed\[R1\]"),
    ({"alpha": {"R1": None}}, r"alpha\[R1\]"),
    ({"f_upper": {"R1": 10 ** 400, "S1": 16.0}}, r"f_upper\[R1\]"),
    ({"beta": {"S1": {"c1": {"a1": "0.5"}}}}, r"beta\[S1\]\[c1\]\[a1\]"),
    ({"demand": "5"}, "demand"),
]


@pytest.mark.parametrize("overrides", [
    {"alpha": {"R1": 0.0}},
    {"alpha": {"R1": 1.3}},
    {"beta": {"S1": {"c1": {}}}},
    {"beta": {"S1": {"c1": {"a1": 1.2}}}},
    {"f_lower": {"R1": 5.0, "S1": 1.0}, "f_upper": {"R1": 2.0, "S1": 16.0}},
    {"demand": 0.0},
    {"c_energy": {}},
    {"separators": ()},
    # non-finite coefficients; an infinite window or a nan cost used to pass
    {"f_upper": {"R1": math.inf, "S1": 16.0}},
    {"c_invest": {"R1": 0.5, "S1": math.nan}},
    {"c_fixed": {"R1": -math.inf, "S1": 1.0}},
    {"c_oper_reactor": {"R1": math.nan}},
    {"c_oper_separator": {"S1": math.inf}},
    {"c_energy": {"S1": math.nan}},
    {"alpha": {"R1": math.nan}},
    {"beta": {"S1": {"c1": {"a1": math.nan}}}},
    {"f_lower": {"R1": math.nan, "S1": 1.0}},
    {"demand": math.inf},
    {"demand": math.nan},
    *(overrides for overrides, _ in _NON_NUMBERS),
])
def test_il_space_validation(overrides):
    with pytest.raises(ModelError):
        _single_path_space(**overrides)


@pytest.mark.parametrize("overrides, field", _NON_NUMBERS)
def test_il_space_names_a_field_that_is_not_a_number(overrides, field):
    with pytest.raises(ModelError, match=field):
        _single_path_space(**overrides)


def test_il_space_json_round_trip(tmp_path, il_space):
    path = tmp_path / "space.json"
    il_space.save(path)
    assert IlDesignSpace.load(path) == il_space
    # design spaces saved with the retired big_m key still load
    saved = il_space.to_json_dict()
    assert "big_m" not in saved
    assert IlDesignSpace.from_json_dict({**saved, "big_m": 100.0}) == il_space


def test_ds_space_json_round_trip(tmp_path, ds_space):
    path = tmp_path / "space.json"
    ds_space.save(path)
    again = DsDesignSpace.load(path)
    assert again == ds_space
    assert again.logic_rules == ds_space.logic_rules


def test_ds_space_validation():
    with pytest.raises(ModelError):
        DsDesignSpace(
            flows=("f0", "f1"), nodes=(DsNode("N1", ("f0",), ("f9",)),),
            costs={}, source="f0", sink="f1", configuration_flows=())
    with pytest.raises(ModelError):
        DsDesignSpace(
            flows=("f0",), nodes=(), costs={}, source="f0", sink="f9",
            configuration_flows=())
    with pytest.raises(ModelError):
        DsDesignSpace(
            flows=("f0",), nodes=(), costs={}, source="f0", sink="f0",
            configuration_flows=(),
            logic_rules=(Constraint({"nope": 1.0}, ">=", 0.0),))


# -- discrete builders ---------------------------------------------------------


def test_il_model_dimensions(il_program):
    assert il_program.num_vars == 24
    assert len(il_program.constraints) == 30
    assert len(il_program.projection) == 9
    assert il_program.projection == (
        "y[R1]", "y[R2]", "y[S1]", "y[S2]", "y[S3]",
        "z[c1]", "z[c2]", "z[a1]", "z[a2]")


def test_il_objective_surrogate_coefficients(il_program):
    # fixed cost plus operating cost at minimum sustained throughput
    assert il_program.objective["y[R1]"] == 17.5    # 10 + 5 * 0.75 * 2
    assert il_program.objective["y[R2]"] == 17.0    # 13 + 4 * 0.50 * 2
    assert il_program.objective["y[S1]"] == 6.0
    products = {(u, v): q for u, v, q in il_program.objective_products}
    assert products[("y[S1]", "w[c1,a1]")] == 3.0   # 3 * 0.5 * 2
    assert products[("y[S3]", "w[c2,a2]")] == 7.5   # 4 * 0.9375 * 2
    assert len(products) == 12


def test_il_constraint_labels(il_program):
    labels = [c.label for c in il_program.constraints]
    assert labels[0] == "source flow equals reactor selection [R1]"
    assert labels[4] == "sink flow equals separator selection [S3]"
    assert labels[5] == "at least one reactor fed"
    assert labels[6] == "at least one separator to sink"
    assert labels[7] == "flow only from fed reactor [R1,S1]"
    assert labels[13] == "flow only into active separator [R1,S1]"
    assert labels[24] == "one cation selected"
    assert labels[29] == "pair indicator equals product [c2,a2]"


def test_il_feasible_set_structure(il_oracle, il_program):
    assert len(il_oracle.records) == 84
    for rec in il_oracle.records:
        bits = il_program.as_map(rec.assignment)
        assert bits["y[R1]"] + bits["y[R2]"] >= 1
        assert bits["z[c1]"] + bits["z[c2]"] == 1
        assert bits["z[a1]"] + bits["z[a2]"] == 1


def test_ds_model_dimensions(ds_program):
    assert ds_program.num_vars == 19
    assert len(ds_program.constraints) == 17
    assert len(ds_program.projection) == 11
    assert ds_program.constraints[0].label == "source/sink activation"
    assert ds_program.constraints[1].label == "source/sink activation"
    assert ds_program.constraints[2].label == "node balance [N1]"


def test_ds_feasible_configurations_obey_tank_logic(ds_oracle, ds_program):
    assert len(ds_oracle.records) == 36
    for rec in ds_oracle.records:
        bits = ds_program.as_map(rec.assignment)
        assert bits["f06"] == (bits["f10"] and (bits["f01"] or bits["f02"]))
        # the two parallel sections each pick exactly one branch
        assert bits["f01"] + bits["f02"] + bits["f03"] == 1
        assert bits["f08"] + bits["f09"] + bits["f10"] == 1
        assert bits["f13"] + bits["f14"] + bits["f15"] + bits["f16"] == 1


def test_ds_objective_is_stream_cost(ds_space, ds_program, ds_oracle):
    best = ds_oracle.best()
    bits = ds_program.as_map(best.assignment)
    total = sum(ds_space.costs.get(f, 0.0) for f, b in bits.items() if b)
    assert best.objective == total == 138.0


# -- pattern search ------------------------------------------------------------


def test_pattern_search_quadratic():
    best_x, best_val, evals = pattern_search(
        lambda x: (x[0] - 0.3) ** 2, [(0.0, 1.0)], seed=1, budget=200)
    assert evals <= 200
    assert abs(best_x[0] - 0.3) <= 1e-4
    assert best_val <= 1e-8


def test_pattern_search_budget_is_exact():
    calls = []

    def f(x):
        calls.append(tuple(x))
        return float(x[0] ** 2)

    pattern_search(f, [(-1.0, 1.0)], seed=0, budget=17)
    assert len(calls) == 17


def test_pattern_search_budget_prefix_property():
    # the evaluation sequence for a larger budget extends the smaller one,
    # which is what makes the best value non-increasing in budget
    def run(budget):
        calls = []

        def f(x):
            calls.append(round(float(x[0]), 12))
            return (x[0] - 0.7) ** 2

        _, val, _ = pattern_search(f, [(0.0, 2.0)], seed=5, budget=budget)
        return calls, val

    calls_small, val_small = run(23)
    calls_large, val_large = run(61)
    assert calls_large[:len(calls_small)] == calls_small
    assert val_large <= val_small


def test_pattern_search_barrier_handles_all_infeasible():
    best_x, best_val, evals = pattern_search(
        lambda x: math.inf, [(0.0, 1.0)], seed=0, starts=2, budget=40)
    assert best_x is None
    assert math.isinf(best_val)
    assert evals == 40


@pytest.mark.parametrize("kwargs", [
    {"bounds": []},
    {"bounds": [(1.0, 0.0)]},
    {"bounds": [(0.0, 1.0)], "budget": 0},
    {"bounds": [(0.0, 1.0)], "starts": 0},
    {"bounds": [(0.0, 1.0)], "starts": -3},
])
def test_pattern_search_validates_arguments(kwargs):
    bounds = kwargs.pop("bounds")
    with pytest.raises(ValueError):
        pattern_search(lambda x: 0.0, bounds, **kwargs)


def test_pattern_search_respects_bounds():
    seen = []

    def f(x):
        seen.append(x.copy())
        return -x[0]

    pattern_search(f, [(0.25, 0.75)], seed=2, starts=3, budget=60)
    arr = np.array(seen)
    assert (arr >= 0.25).all() and (arr <= 0.75).all()


@st.composite
def _boxes(draw, max_dim=6):
    bounds = []
    for _ in range(draw(st.integers(1, max_dim))):
        lower = draw(st.floats(-5.0, 5.0))
        width = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 10.0))
        bounds.append((lower, lower + width))
    return bounds


def _traced(target, cap):
    """A convex target behind a linear cap, and the list of points it saw."""
    seen = []

    def f(x):
        assert isinstance(x, np.ndarray)
        seen.append(x.tolist())
        if x.sum() > cap:
            return math.inf
        return float(((x - target) ** 2).sum())

    return seen, f


@settings(max_examples=80, deadline=None)
@given(bounds=_boxes(), seed=st.integers(0, 2**32 - 1),
       starts=st.integers(1, 4), budget=st.none() | st.integers(1, 400),
       target=st.lists(st.floats(-6.0, 16.0), min_size=6, max_size=6),
       cap=st.floats(-20.0, 60.0))
# several starts, no budget and no cap on a convex target: every later start
# ends at the coarse mesh
@example(bounds=[(0.0, 4.0), (-1.0, 1.0)], seed=7, starts=3, budget=None,
         target=[1.0, 0.25, 0.0, 0.0, 0.0, 0.0], cap=60.0)
def test_pattern_search_matches_the_numpy_poll_loop(bounds, seed, starts,
                                                    budget, target, cap):
    target = target[:len(bounds)]
    seen, f = _traced(target, cap)
    best_x, best_val, evals = pattern_search(f, bounds, seed=seed,
                                             starts=starts, budget=budget)
    ref_seen, ref_f = _traced(target, cap)
    ref_x, ref_val, ref_evals = _reference_pattern_search(
        ref_f, bounds, seed=seed, starts=starts, budget=budget)
    assert seen == ref_seen
    assert (None if best_x is None else best_x.tolist()) == \
        (None if ref_x is None else ref_x.tolist())
    assert (best_val, evals) == (ref_val, ref_evals)


@settings(max_examples=40, deadline=None)
@given(bounds=_boxes(max_dim=3), seed=st.integers(0, 2**32 - 1),
       target=st.lists(st.floats(-6.0, 16.0), min_size=3, max_size=3),
       cap=st.floats(-20.0, 60.0))
def test_one_start_refines_down_to_the_stop_mesh(bounds, seed, target, cap):
    # one start always holds the best point, so it never ends at the coarse
    # mesh: its evaluations are those of the full refinement
    target = target[:len(bounds)]
    seen, f = _traced(target, cap)
    pattern_search(f, bounds, seed=seed, starts=1)
    full_seen, full_f = _traced(target, cap)
    _reference_pattern_search(full_f, bounds, seed=seed, starts=1,
                              full_refinement=True)
    assert seen == full_seen


def test_later_starts_end_at_the_coarse_mesh():
    # the @example above: the first start is the whole one-start search in
    # both, and the later ones spend fewer evaluations for the same optimum
    bounds, target = [(0.0, 4.0), (-1.0, 1.0)], [1.0, 0.25]
    first, f = _traced(target, 60.0)
    pattern_search(f, bounds, seed=7, starts=1)
    seen, f = _traced(target, 60.0)
    best_x, best_val, evals = pattern_search(f, bounds, seed=7, starts=3)
    full_seen, full_f = _traced(target, 60.0)
    _, full_val, full_evals = _reference_pattern_search(
        full_f, bounds, seed=7, starts=3, full_refinement=True)
    assert seen[:len(first)] == full_seen[:len(first)] == first
    assert len(first) < evals < full_evals
    assert full_val <= best_val <= 1e-12
    assert np.allclose(best_x, target, atol=1e-6)


@settings(max_examples=60, deadline=None)
@given(bounds=_boxes(max_dim=3), seed=st.integers(0, 2**32 - 1),
       starts=st.integers(1, 4), budget=st.integers(1, 300),
       cap=st.floats(-10.0, 30.0))
def test_pattern_search_never_changes_an_evaluated_point(bounds, seed, starts,
                                                         budget, cap):
    def barred(x):
        return x.sum() > cap

    calls = []

    def f(x):
        calls.append((x, x.copy()))
        return math.inf if barred(x) else float((x ** 2).sum())

    pattern_search(f, bounds, seed=seed, starts=starts, budget=budget)
    # every call got its own array, and none was written to afterwards
    assert len({id(x) for x, _ in calls}) == len(calls)
    for x, at_call in calls:
        assert x.tobytes() == at_call.tobytes()

    failures = []

    def evaluate(_fixed, x):
        if barred(x):
            failures.append(tuple(float(v) for v in x))
            return 0.0, "barred"
        return float((x ** 2).sum()), "ok"

    out = run_blackbox(BlackBoxObjective(evaluate, tuple(bounds), budget), {},
                       seed, starts=starts)
    assert out["last_failure"] == ((failures[-1], "barred") if failures else None)


# -- continuous stage ----------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(case=_il_spaces(), data=st.data())
def test_compiled_il_evaluator_matches_the_dict_reference(case, data):
    space, selection = case
    objective, flows = _compile_il(space, selection, None)
    pairs, bounds, ref_flows, evaluate = _reference_il_model(space, selection)
    assert objective.bounds == bounds
    for _ in range(8):
        x = data.draw(_il_points(space, bounds, pairs))
        assert objective.evaluate(selection, x) == evaluate(selection, x)
        # every stream, in the reference's order, equal to the last bit
        assert list(flows(x.tolist()).items()) == list(ref_flows(x).items())


def test_il_evaluator_bars_every_negative_flow():
    evaluate = _compile_il(_single_path_space(), _SINGLE_SELECTION, None)[0].evaluate
    assert evaluate(_SINGLE_SELECTION, np.array([-1e-9])) == \
        (math.inf, "negative flow")
    # a flow in [-tol, 0) next to one that meets the demand once cost nan
    space = _single_path_space(
        separators=("S1", "S2"),
        c_fixed={"R1": 2.0, "S1": 1.0, "S2": 1.0},
        c_oper_separator={"S1": 1.0, "S2": 1.0},
        c_invest={"R1": 0.5, "S1": 0.25, "S2": 0.25},
        c_energy={"S1": 0.125, "S2": 0.125},
        beta={"S1": {"c1": {"a1": 1.0}}, "S2": {"c1": {"a1": 1.0}}},
        f_lower={"R1": 1.0, "S1": 1.0, "S2": 1.0},
        f_upper={"R1": 20.0, "S1": 16.0, "S2": 16.0})
    selection = dict(_SINGLE_SELECTION, **{"y[S2]": 1})
    evaluate = _compile_il(space, selection, None)[0].evaluate
    assert evaluate(selection, np.array([-1e-9, 5.0])) == \
        (math.inf, "negative flow")
    assert evaluate(selection, np.array([0.0, 5.0]))[1] == "ok"


@settings(max_examples=60, deadline=None)
@given(case=_il_spaces(), seed=st.integers(0, 2**32 - 1),
       budget=st.none() | st.integers(1, 600), starts=st.integers(1, 6))
def test_il_continuous_solve_matches_the_dict_reference(case, seed, budget,
                                                        starts):
    space, selection = case
    assert il_continuous_solve(
        space, selection, seed=seed, budget=budget, starts=starts) == \
        _reference_il_continuous_solve(
            space, selection, seed=seed, budget=budget, starts=starts)


def test_il_continuous_solve_matches_the_reference_on_the_default_space(il_space):
    selection = {"y[R1]": 1, "y[R2]": 1, "y[S1]": 1, "y[S3]": 1,
                 "z[c2]": 1, "z[a1]": 1}
    for seed in range(3):
        res = il_continuous_solve(il_space, selection, seed=seed, starts=4)
        assert res["status"] == "ok"
        assert res == _reference_il_continuous_solve(il_space, selection,
                                                     seed=seed, starts=4)




def test_sweep_matches_the_reference_on_the_default_space(il_space):
    # all 84 configurations, with 1, 2, 3, 4 or 6 transfers each
    rows = sweep_il(il_space, seed=1, starts=2)
    assert len(rows) == 84
    transfers = set()
    for pos, row in enumerate(rows):
        bits = tuple(int(b) for b in row["config_id"])
        sel_r, sel_s, _, _ = _parse_selection(il_space, bits)
        transfers.add(len(sel_r) * len(sel_s))
        ref = _reference_il_continuous_solve(
            il_space, bits, starts=2,
            seed=np.random.SeedSequence(entropy=1, spawn_key=(pos,)))
        assert (row["continuous_objective"], row["status"], row["evaluations"]) == \
            (ref["objective"], ref["status"], ref["evaluations"])
    assert transfers == {1, 2, 3, 4, 6}


def test_continuous_single_path_matches_closed_form():
    space = _single_path_space()
    res = il_continuous_solve(space, _SINGLE_SELECTION, seed=0)
    assert res["status"] == "ok"
    # with beta 1 the cheapest admissible transfer is exactly the demand
    assert abs(res["flows"]["R1->S1"] - 5.0) <= 1e-6
    assert abs(res["flows"]["src->R1"] - 6.25) <= 1e-6
    expected = 3.0 + 0.5 * 6.25 ** 0.6 + 0.25 * 5.0 ** 0.6 + 0.125 * 5.0
    assert res["objective"] == pytest.approx(expected, abs=1e-6)


def test_continuous_accepts_projection_bits():
    space = _single_path_space()
    by_name = il_continuous_solve(space, _SINGLE_SELECTION, seed=0)
    by_bits = il_continuous_solve(space, (1, 1, 1, 1), seed=0)
    assert by_bits == by_name


def test_continuous_selection_validation():
    space = _single_path_space()
    # a bare unit name is no projection key, so it selects nothing
    with pytest.raises(ModelError, match="no reactor or no separator"):
        il_continuous_solve(space, {"R1": 1, "S1": 1, "c1": 1, "a1": 1})
    with pytest.raises(ModelError):
        il_continuous_solve(space, {"y[S1]": 1, "z[c1]": 1, "z[a1]": 1})
    with pytest.raises(ModelError):
        il_continuous_solve(space, {"y[R1]": 1, "y[S1]": 1, "z[a1]": 1})
    with pytest.raises(ModelError):
        il_continuous_solve(space, (1, 1, 1))


def test_continuous_semicontinuous_window(il_space):
    # demand far below the turndown limit: the separator cannot run below
    # f_lower, so the optimum sits exactly on the window edge
    small = IlDesignSpace.from_json_dict({**il_space.to_json_dict(), "demand": 0.5})
    res = il_continuous_solve(small, {"y[R1]": 1, "y[S1]": 1, "z[c1]": 1, "z[a1]": 1},
                              seed=0)
    assert res["status"] == "ok"
    assert res["flows"]["R1->S1"] == pytest.approx(2.0, abs=1e-6)


def test_continuous_infeasible_demand():
    space = _single_path_space(demand=50.0)    # max transfer is 16 < 50
    res = il_continuous_solve(space, _SINGLE_SELECTION, seed=0, starts=4)
    assert res["status"] == "continuous-infeasible"
    assert res["objective"] is None
    assert res["flows"] == {}


def test_continuous_respects_constraints_everywhere(il_space):
    res = il_continuous_solve(
        il_space, {"y[R1]": 1, "y[R2]": 1, "y[S2]": 1, "z[c2]": 1, "z[a1]": 1},
        seed=3)
    assert res["status"] == "ok"
    tol = 1e-6
    feed_r1 = res["flows"]["src->R1"]
    assert feed_r1 <= tol or il_space.f_lower["R1"] - tol <= feed_r1 <= il_space.f_upper["R1"] + tol
    intake = res["flows"]["R1->S2"] + res["flows"]["R2->S2"]
    assert il_space.f_lower["S2"] - tol <= intake <= il_space.f_upper["S2"] + tol
    recovered = il_space.beta["S2"]["c2"]["a1"] * intake
    assert recovered >= il_space.demand - tol


# -- black-box hook ------------------------------------------------------------


def test_run_blackbox_optimizes_stub():
    def evaluate(fixed, params):
        assert fixed == {"config": "x"}
        return float((params[0] - 0.25) ** 2), "ok"

    objective = BlackBoxObjective(evaluate=evaluate, bounds=((0.0, 1.0),),
                                  budget=150)
    out = run_blackbox(objective, {"config": "x"}, seed=0)
    assert out["status"] == "ok"
    assert out["evaluations"] <= 150
    assert abs(out["best_params"][0] - 0.25) <= 1e-4
    assert out["last_failure"] is None


def test_run_blackbox_reports_failures():
    seen = []

    def evaluate(fixed, params):
        seen.append(tuple(float(v) for v in params))
        return 0.0, "solver crashed"

    objective = BlackBoxObjective(evaluate=evaluate, bounds=((0.0, 1.0),),
                                  budget=10)
    out = run_blackbox(objective, {}, seed=0)
    assert out["status"] == "no-feasible-evaluation"
    assert out["best_params"] is None
    assert out["best_score"] is None
    assert out["last_failure"][1] == "solver crashed"
    assert len(seen) == out["evaluations"] == 10
    assert out["last_failure"][0] == seen[-1]


# -- sweep ---------------------------------------------------------------------


def test_sweep_single_configuration():
    space = _single_path_space()
    rows = sweep_il(space, seed=0, budget_per_config=150, starts=4)
    assert len(rows) == 1
    row = rows[0]
    assert row["config_id"] == "1111"
    assert row["status"] == "ok"
    program = build_il_discrete(space)
    oracle = brute_force(program)
    assert row["discrete_objective"] == oracle.best().objective
    direct = il_continuous_solve(
        space, (1, 1, 1, 1), budget=150, starts=4,
        seed=np.random.SeedSequence(entropy=0, spawn_key=(0,)))
    assert row["continuous_objective"] == direct["objective"]


def _two_reactor_space():
    return _single_path_space(
        reactors=("R1", "R2"),
        c_fixed={"R1": 2.0, "R2": 3.0, "S1": 1.0},
        c_oper_reactor={"R1": 1.0, "R2": 0.5},
        c_invest={"R1": 0.5, "R2": 0.4, "S1": 0.25},
        alpha={"R1": 0.8, "R2": 0.6},
        f_lower={"R1": 1.0, "R2": 1.0, "S1": 1.0},
        f_upper={"R1": 20.0, "R2": 20.0, "S1": 16.0},
    )


def test_sweep_rows_are_sorted_and_reproducible():
    space = _two_reactor_space()
    rows = sweep_il(space, seed=9, budget_per_config=80, starts=3)
    assert [r["config_id"] for r in rows] == sorted(r["config_id"] for r in rows)
    assert len(rows) == 3    # R1, R2, or both
    again = sweep_il(space, seed=9, budget_per_config=80, starts=3)
    assert rows == again


def test_sweep_configurations_match_the_oracle(il_space, il_oracle):
    # the sweep lists its configurations by branch and bound; the oracle is
    # the independent reference for which ones exist and what they cost
    program = build_il_discrete(il_space)
    expected = sorted(
        ("".join(map(str, program.project(rec.assignment))), rec.objective)
        for rec in il_oracle.records)
    rows = sweep_il(il_space, seed=0, budget_per_config=50)
    assert [(r["config_id"], r["discrete_objective"]) for r in rows] == expected


def test_sweep_rows_carry_the_evaluations_of_their_solves():
    space = _two_reactor_space()
    rows = sweep_il(space, seed=4, starts=2)
    assert len(rows) == 3
    for pos, row in enumerate(rows):
        direct = il_continuous_solve(
            space, tuple(int(b) for b in row["config_id"]), starts=2,
            seed=np.random.SeedSequence(entropy=4, spawn_key=(pos,)))
        assert row["evaluations"] == direct["evaluations"] > 0
        assert row["continuous_objective"] == direct["objective"]


@pytest.mark.parametrize("seed", [0, 1])
def test_sweep_keeps_what_the_full_refinement_found(il_space, seed, monkeypatch):
    # ending the starts that do not hold the best point at the coarse mesh
    # keeps every status, costs at most 1e-6 relative and saves evaluations
    rows = sweep_il(il_space, seed=seed)
    monkeypatch.setattr(flowsheets, "pattern_search", functools.partial(
        _reference_pattern_search, full_refinement=True))
    full = sweep_il(il_space, seed=seed)
    assert [r["config_id"] for r in rows] == [r["config_id"] for r in full]
    for row, ref in zip(rows, full):
        assert row["status"] == ref["status"]
        assert row["evaluations"] <= ref["evaluations"]
        if ref["status"] == "ok":
            value, ref_value = row["continuous_objective"], ref["continuous_objective"]
            assert ref_value <= value <= (1 + 1e-6) * ref_value
    assert sum(r["evaluations"] for r in rows) < sum(r["evaluations"] for r in full)
