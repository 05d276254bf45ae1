import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowqubo import (
    BinaryProgram,
    Constraint,
    DimensionError,
    ModelError,
    no_good_cut,
    normalize_constraint,
)


def test_constraint_value_and_satisfied():
    con = Constraint({"a": 2.0, "b": -1.0}, "<=", 1.0,
                     products=(("a", "b", 3.0),), label="cap")
    assert con.value({"a": 1, "b": 0}) == 2.0
    assert con.value({"a": 1, "b": 1}) == 4.0
    assert not con.satisfied({"a": 1, "b": 1})
    assert con.satisfied({"a": 0, "b": 1})


@pytest.mark.parametrize("sense,rhs,values,ok", [
    ("=", 1.0, {"x": 1, "y": 0}, True),
    ("=", 1.0, {"x": 1, "y": 1}, False),
    (">=", 1.0, {"x": 0, "y": 1}, True),
    ("<=", 0.0, {"x": 0, "y": 0}, True),
    ("<=", 0.0, {"x": 1, "y": 0}, False),
])
def test_senses(sense, rhs, values, ok):
    con = Constraint({"x": 1.0, "y": 1.0}, sense, rhs)
    assert con.satisfied(values) is ok


def test_bad_sense_rejected():
    with pytest.raises(ModelError):
        Constraint({"x": 1.0}, "<", 1.0)


def test_constraint_json_round_trip():
    con = Constraint({"a": 1.0}, ">=", 2.0, products=(("a", "b", -1.5),),
                     label="rule")
    again = Constraint.from_json_dict(con.to_json_dict())
    assert again == con


def _small_program():
    return BinaryProgram(
        var_names=("a", "b", "c"),
        objective={"a": 1.0, "c": 2.0},
        constraints=(
            Constraint({"a": 1.0, "b": 1.0}, ">=", 1.0, label="pick one"),
            Constraint({"c": 1.0, "a": -1.0}, "<=", 0.0, label="c needs a"),
        ),
        objective_constant=0.5,
        projection=("a", "c"),
    )


def test_program_objective_and_feasibility():
    prog = _small_program()
    assert prog.objective_value((1, 0, 1)) == 3.5
    assert prog.is_feasible((1, 0, 1))
    assert prog.violations((0, 0, 1)) == ["pick one", "c needs a"]
    assert prog.project((1, 0, 1)) == (1, 1)


def test_empty_projection_projects_onto_all_variables():
    prog = BinaryProgram(var_names=("a", "b"), objective={})
    assert prog.project((1, 0)) == (1, 0)


def test_configuration_key_follows_the_projection_order():
    prog = BinaryProgram(var_names=("a", "b", "c"), objective={},
                         projection=("c", "a"))
    assert prog.key_indices == (2, 0)
    assert prog.project((1, 0, 0)) == (0, 1)
    assert BinaryProgram(var_names=("a", "b"), objective={}).key_indices == (0, 1)
    # a key has the model's width only; the projection's own width is none
    with pytest.raises(DimensionError):
        prog.project((0, 1))


def test_program_objective_products():
    prog = BinaryProgram(
        var_names=("u", "v"),
        objective={"u": 1.0},
        objective_products=(("u", "v", 10.0),),
    )
    assert prog.objective_value((1, 0)) == 1.0
    assert prog.objective_value((1, 1)) == 11.0


def test_program_rejects_unknown_names():
    with pytest.raises(ModelError):
        BinaryProgram(var_names=("a",), objective={"zz": 1.0})
    with pytest.raises(ModelError):
        BinaryProgram(var_names=("a",), objective={},
                      constraints=(Constraint({"b": 1.0}, "=", 0.0),))
    with pytest.raises(ModelError):
        BinaryProgram(var_names=("a",), objective={}, projection=("b",))


def test_program_rejects_duplicate_names():
    with pytest.raises(ModelError):
        BinaryProgram(var_names=("a", "a"), objective={})


def test_program_assignment_length_check():
    prog = _small_program()
    with pytest.raises(DimensionError):
        prog.objective_value((1, 0))


def test_with_constraints_appends():
    prog = _small_program()
    grown = prog.with_constraints([Constraint({"b": 1.0}, "=", 0.0, label="no b")])
    assert len(grown.constraints) == 3
    assert len(prog.constraints) == 2
    assert grown.constraints[-1].label == "no b"


def test_program_json_round_trip(tmp_path):
    prog = _small_program()
    path = tmp_path / "prog.json"
    prog.save(path)
    assert BinaryProgram.load(path) == prog


def test_no_good_cut_removes_exactly_one_point():
    over = ("a", "b", "c")
    values = {"a": 1, "b": 0, "c": 1}
    cut = no_good_cut(values, over)
    assert cut.sense == ">="
    assert cut.rhs == -1.0
    assert cut.linear == {"a": -1.0, "b": 1.0, "c": -1.0}
    removed = [bits for bits in itertools.product((0, 1), repeat=3)
               if not cut.satisfied(dict(zip(over, bits)))]
    assert removed == [(1, 0, 1)]


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=60, deadline=None)
def test_no_good_cut_soundness(n, data):
    names = tuple(f"x{i}" for i in range(n))
    bits = data.draw(st.tuples(*([st.integers(0, 1)] * n)))
    cut = no_good_cut(dict(zip(names, bits)), names)
    for other in itertools.product((0, 1), repeat=n):
        sat = cut.satisfied(dict(zip(names, other)))
        assert sat == (other != bits)


def test_no_good_cut_requires_coverage():
    with pytest.raises(ModelError):
        no_good_cut({"a": 1}, ("a", "b"))
    with pytest.raises(ValueError):
        no_good_cut({"a": 1}, ())


def test_normalize_implication_pattern():
    # q*(x*y) - q*x = 0 is x <= y over binaries
    con = Constraint({"x": -2.0}, "=", 0.0, products=(("x", "y", 2.0),))
    norm = normalize_constraint(con)
    assert norm.products == ()
    assert norm.sense == "<="
    assert norm.linear == {"x": 1.0, "y": -1.0}
    assert norm.rhs == 0.0


def test_normalize_or_pattern():
    # a*x + a*y - a*(x*y) = a is the inclusion-exclusion form of x or y
    con = Constraint({"x": 3.0, "y": 3.0}, "=", 3.0, products=(("x", "y", -3.0),))
    norm = normalize_constraint(con)
    assert norm.products == ()
    assert norm.sense == ">="
    assert norm.linear == {"x": 1.0, "y": 1.0}
    assert norm.rhs == 1.0


def test_normalize_leaves_general_products():
    con = Constraint({"x": 1.0}, "=", 0.0, products=(("x", "y", 5.0),))
    assert normalize_constraint(con) is con
    ineq = Constraint({"x": -1.0}, "<=", 0.0, products=(("x", "y", 1.0),))
    assert normalize_constraint(ineq) is ineq


@st.composite
def product_constraints(draw):
    # below _FEAS_TOL a pattern's rejected point is feasible, so it stays
    q = draw(st.sampled_from([-3.0, -1.0, 1.0, 2.0, -2e-9, -1e-10, 1e-10, 2e-9]))
    kind = draw(st.sampled_from(["implication", "or", "other"]))
    if kind == "implication":
        return Constraint({"x": -q}, "=", 0.0, products=(("x", "y", q),))
    if kind == "or":
        return Constraint({"x": q, "y": q}, "=", q, products=(("x", "y", -q),))
    rhs = draw(st.sampled_from([0.0, 1.0]))
    lin = {"x": draw(st.sampled_from([-1.0, 1.0]))}
    return Constraint(lin, "=", rhs, products=(("x", "y", q),))


@given(product_constraints())
@example(Constraint({"x": -1e-10}, "=", 0.0, products=(("x", "y", 1e-10),)))
@example(Constraint({"x": 1e-10, "y": 1e-10}, "=", 1e-10, products=(("x", "y", -1e-10),)))
@settings(max_examples=80, deadline=None)
def test_normalize_preserves_satisfaction(con):
    norm = normalize_constraint(con)
    for x, y in itertools.product((0, 1), repeat=2):
        values = {"x": x, "y": y}
        assert con.satisfied(values) == norm.satisfied(values)
