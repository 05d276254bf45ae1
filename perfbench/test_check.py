"""The benchmark's checks reject corrupted outputs.

    python3 -m pytest perfbench/test_check.py

Each check gets a true output, which it must accept, and a corrupted copy:
a flipped bit, a wrong energy or objective, a dropped record, a dominated
point placed on the front.  The inputs are hand-made objects with the same
fields as the program's, so these tests do not need the program.
"""

import itertools
from types import SimpleNamespace as NS

import numpy as np
import pytest

import check
from check import CheckError


def _program():
    con = [
        NS(linear={"a": 1.0, "b": 1.0, "c": 1.0}, products=(), sense=">=", rhs=1.0),
        NS(linear={"a": 1.0, "c": 1.0}, products=(("b", "c", 1.0),), sense="<=", rhs=1.0),
    ]
    return NS(var_names=("a", "b", "c"), objective={"a": 1.0, "b": 2.0, "c": 3.0},
              objective_products=(("a", "b", -1.5),), objective_constant=0.5,
              constraints=con, projection=("a", "b"))


def _true_records(view):
    """(bits, objective, feasible) of the cheapest completion per configuration."""
    best = {}
    for bits in itertools.product((0, 1), repeat=view.n):
        if view.feasible(bits):
            key = view.key(bits)
            obj = view.objective(bits)
            if key not in best or obj < best[key][1]:
                best[key] = (bits, obj, True)
    return list(best.values())


def test_evaluator_by_hand():
    view = check.Program(_program())
    assert view.feasible((1, 0, 0)) and not view.feasible((0, 0, 0))
    assert not view.feasible((1, 0, 1))           # a + c <= 1
    assert not view.feasible((0, 1, 1))           # b*c counts in the second row
    assert view.objective((1, 1, 0)) == 0.5 + 1.0 + 2.0 - 1.5


def test_feasible_set_matches_enumeration():
    view = check.Program(_program())
    expected = {view.key(bits): obj for bits, obj, _ in _true_records(view)}
    assert view.feasible_set() == expected
    assert view.feasible_mask().sum() == sum(
        view.feasible(bits) for bits in itertools.product((0, 1), repeat=view.n))


def test_record_set_rejects_a_flipped_bit():
    view = check.Program(_program())
    records = _true_records(view)
    check.record_set(view, records)
    bits, obj, feasible = records[0]
    flipped = (1 - bits[0],) + tuple(bits[1:])
    with pytest.raises(CheckError):
        check.record_set(view, [(flipped, obj, feasible)] + records[1:])


def test_record_set_rejects_a_wrong_objective():
    view = check.Program(_program())
    records = _true_records(view)
    bits, obj, feasible = records[0]
    with pytest.raises(CheckError):
        check.record_set(view, [(bits, obj + 1.0, feasible)] + records[1:])


def test_same_sets_rejects_a_dropped_record():
    view = check.Program(_program())
    full = check.record_set(view, _true_records(view))
    check.same_sets({"reference": view.feasible_set(), "solver": full})
    dropped = dict(list(full.items())[1:])
    with pytest.raises(CheckError):
        check.same_sets({"reference": view.feasible_set(), "solver": dropped})


def test_decoded_records_reject_a_wrong_flag():
    view = check.Program(_program())
    rows = [((0, 0, 0), view.objective((0, 0, 0)), False),
            ((1, 0, 0), view.objective((1, 0, 0)), True)]
    check.decoded_records(view, rows)
    with pytest.raises(CheckError):
        check.decoded_records(view, [((0, 0, 0), rows[0][1], True)])


def test_raw_energies_reject_a_wrong_energy():
    qubo = NS(num_vars=3, offset=1.25, terms={(0, 0): 2.0, (0, 1): -3.0, (1, 2): 4.0,
                                              (2, 2): -1.0})
    states = list(itertools.product((0, 1), repeat=3))
    energies = [check.qubo_energy(qubo, s) for s in states]
    assert energies[states.index((1, 1, 0))] == 1.25 + 2.0 - 3.0
    assert np.allclose(check.qubo_energies(qubo, np.array(states)), energies)
    check.raw_energies(qubo, list(zip(states, energies)))
    wrong = list(zip(states, energies))
    wrong[5] = (wrong[5][0], wrong[5][1] + 0.5)
    with pytest.raises(CheckError):
        check.raw_energies(qubo, wrong)


def test_pareto_rejects_a_dominated_front_point():
    points = {"p": (1.0, 5.0), "q": (2.0, 3.0), "r": (3.0, 4.0), "s": (2.0, 3.0)}
    check.pareto(points, {"p", "q"})
    with pytest.raises(CheckError):
        check.pareto(points, {"p", "q", "r"})      # r is dominated by q
    with pytest.raises(CheckError):
        check.pareto(points, {"p"})                # q is missing
    with pytest.raises(CheckError):
        check.pareto(points, {"p", "q", "s"})      # a duplicate kept twice


def _space():
    return NS(reactors=("R1", "R2"), separators=("S1",), cations=("c",), anions=("a",),
              alpha={"R1": 0.5, "R2": 0.8}, beta={"S1": {"c": {"a": 0.5}}},
              f_lower={"R1": 2.0, "R2": 2.0, "S1": 2.0},
              f_upper={"R1": 30.0, "R2": 30.0, "S1": 20.0}, demand=5.0)


def test_il_flows_reject_a_broken_balance():
    space = _space()
    selection = {"y[R1]": 1, "y[R2]": 1, "y[S1]": 1, "z[c]": 1, "z[a]": 1}
    flows = check.il_single_path(space, selection)
    check.il_flows(space, selection, flows)
    assert flows["S1->out"] >= space.demand
    broken = dict(flows, **{"S1->out": flows["S1->out"] * 1.1})
    with pytest.raises(CheckError):
        check.il_flows(space, selection, broken)
    short = {k: v / 2 for k, v in flows.items()}
    with pytest.raises(CheckError):
        check.il_flows(space, selection, short)


def test_single_path_none_when_demand_unreachable():
    space = _space()
    space.demand = 50.0
    selection = {"y[R1]": 1, "y[S1]": 1, "z[c]": 1, "z[a]": 1}
    assert check.il_single_path(space, selection) is None
