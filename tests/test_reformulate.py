import dataclasses
import importlib
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_solvers import count_row_evaluators, solvable_programs

from flowqubo import (
    BinaryProgram,
    Constraint,
    DimensionError,
    ExhaustiveLimitError,
    QuboModel,
    Reformulation,
    ReformulationError,
    VerificationReport,
    brute_force,
    default_penalty,
    reformulate,
    rosenberg_penalty,
    verify,
)
from flowqubo import solvers
from flowqubo.reformulate import (
    _completion_energies,
    _row_penalty,
    _row_slack,
    _ScanRow,
    _ScanTables,
)


def _program(objective, constraints, names=None, products=()):
    if names is None:
        names = sorted({n for c in constraints for n in c.variables()}
                       | set(objective))
    return BinaryProgram(var_names=tuple(names), objective=objective,
                         constraints=tuple(constraints),
                         objective_products=tuple(products))


def test_default_penalty_sums_objective_magnitudes():
    prog = _program({"a": 1.0, "b": -2.0},
                    [Constraint({"a": 1.0, "b": 1.0}, "=", 1.0)])
    assert default_penalty(prog) == 4.0
    with_products = BinaryProgram(
        var_names=("a", "b"), objective={"a": 1.0},
        objective_products=(("a", "b", -3.0),))
    assert default_penalty(with_products) == 5.0


def test_equality_penalty_frozen_energies():
    prog = _program({"a": 1.0, "b": 2.0},
                    [Constraint({"a": 1.0, "b": 1.0}, "=", 1.0, label="one")])
    reform = reformulate(prog, rho=10.0)
    assert reform.qubo.num_vars == 2
    expected = {(0, 0): 10.0, (1, 0): 1.0, (0, 1): 2.0, (1, 1): 13.0}
    for bits, energy in expected.items():
        assert reform.qubo.energy(bits) == energy


def test_rho_must_be_positive():
    prog = _program({"a": 1.0}, [Constraint({"a": 1.0}, "=", 1.0)])
    with pytest.raises(ValueError):
        reformulate(prog, rho=0.0)
    with pytest.raises(ValueError):
        reformulate(prog, rho=-3.0)


def test_inequality_slack_layout():
    prog = _program({"y1": 1.0, "y2": 2.0, "y3": 4.0},
                    [Constraint({"y1": 1.0, "y2": 1.0, "y3": 1.0}, ">=", 1.0,
                                label="cover")])
    reform = reformulate(prog)
    assert reform.rho == 8.0
    assert reform.qubo.var_names == ("y1", "y2", "y3", "slack[0.0]", "slack[0.1]")
    assert reform.slack_groups == ((3, 4),)
    group, = reform.sidecar_json_dict()["slack_groups"]
    assert (group["sense"], group["weights"], group["sign"]) == (">=", [1, 2], -1)
    # every feasible source point has a slack level with zero penalty
    obj = {"y1": 1.0, "y2": 2.0, "y3": 4.0}
    for bits in itertools.product((0, 1), repeat=3):
        total = sum(bits)
        best = min(reform.qubo.energy(bits + s)
                   for s in itertools.product((0, 1), repeat=2))
        plain = sum(b * obj[n] for b, n in zip(bits, ("y1", "y2", "y3")))
        if total >= 1:
            assert best == plain
        else:
            assert best >= plain + reform.rho


def test_le_constraint_span_counts_negative_coefficients():
    # span = rhs - sum of negative coefficients = 1 - (-2) = 3 -> 2 bits
    prog = _program({"a": 1.0},
                    [Constraint({"a": 1.0, "b": -2.0}, "<=", 1.0)],
                    names=("a", "b"))
    reform = reformulate(prog)
    assert reform.slack_groups == ((2, 3),)
    group, = reform.sidecar_json_dict()["slack_groups"]
    assert (group["weights"], group["sign"]) == ([1, 2], 1)


def test_unsatisfiable_span_rejected():
    prog = _program({}, [Constraint({"a": 1.0}, "<=", -1.0)], names=("a",))
    with pytest.raises(ReformulationError):
        reformulate(prog)


def test_non_integer_inequality_rejected():
    prog = _program({}, [Constraint({"a": 0.5}, "<=", 1.0)], names=("a",))
    with pytest.raises(ReformulationError):
        reformulate(prog)
    prog = _program({}, [Constraint({"a": 1.0}, ">=", 0.5)], names=("a",))
    with pytest.raises(ReformulationError):
        reformulate(prog)
    # equalities may carry fractional data, the square handles them exactly
    ok = _program({}, [Constraint({"a": 0.5}, "=", 0.5)], names=("a",))
    assert reformulate(ok).qubo.energy((1,)) == 0.0


@pytest.mark.parametrize("xi,xj,w,value", [
    (0, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 0, 1),
    (0, 0, 1, 3), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 1, 0),
])
def test_rosenberg_truth_table(xi, xj, w, value):
    assert rosenberg_penalty(xi, xj, w) == value
    assert (value == 0) == (w == xi * xj)


def test_gadget_shares_aux_between_constraints():
    cons = [
        Constraint({"x": 1.0}, "=", 0.0, products=(("x", "y", 1.0),), label="p1"),
        Constraint({"y": -1.0}, "=", 0.0, products=(("y", "x", 1.0),), label="p2"),
    ]
    prog = _program({"x": 1.0, "y": 1.0}, cons, names=("x", "y"))
    reform = reformulate(prog)
    assert list(reform.aux_products) == [(0, 1)]
    assert "aux[x*y]" in reform.qubo.var_names


def test_objective_products_map_to_quadratic_terms():
    # bilinear objective terms are natively quadratic, no auxiliary needed
    prog = BinaryProgram(
        var_names=("u", "v"), objective={"u": 1.0},
        objective_products=(("u", "v", 4.0),))
    reform = reformulate(prog)
    assert reform.qubo.num_vars == 2
    assert reform.qubo.terms[(0, 1)] == 4.0
    for bits in itertools.product((0, 1), repeat=2):
        assert reform.qubo.energy(bits) == prog.objective_value(bits)


def test_constraint_rho_overrides_by_label():
    cons = [
        Constraint({"a": 1.0, "b": 1.0}, "=", 1.0, label="strict"),
        Constraint({"a": 1.0}, "=", 0.0, label="loose"),
    ]
    prog = _program({"a": 1.0, "b": 2.0}, cons)
    reform = reformulate(prog, rho=10.0, constraint_rho={"loose": 2.0})
    assert reform.constraint_weight("strict") == 10.0
    assert reform.constraint_weight("loose") == 2.0
    # (1, 0): violates both rows -> 1 + 10*(0) ... check explicit energies
    assert reform.qubo.energy((1, 0)) == 1.0 + 2.0    # strict ok, loose broken
    assert reform.qubo.energy((0, 0)) == 10.0         # strict broken, loose ok


def test_constraint_rho_unknown_label_rejected():
    prog = _program({"a": 1.0}, [Constraint({"a": 1.0}, "=", 1.0, label="only")])
    with pytest.raises(ReformulationError):
        reformulate(prog, constraint_rho={"missing": 5.0})


def test_decode_strips_slack_and_checks_source_program():
    prog = _program({"y1": 1.0, "y2": 2.0, "y3": 4.0},
                    [Constraint({"y1": 1.0, "y2": 1.0, "y3": 1.0}, ">=", 1.0)])
    reform = reformulate(prog)
    d = reform.decode((1, 0, 1, 0, 0))
    assert d.assignment == (1, 0, 1)
    assert d.feasible
    assert d.objective == 5.0
    bad = reform.decode((0, 0, 0, 1, 0))
    assert not bad.feasible
    assert bad.violations
    with pytest.raises(DimensionError):
        reform.decode((1, 0, 1))


def test_decode_feasible_count_matches_source():
    prog = _program({"y1": 1.0, "y2": 2.0, "y3": 4.0},
                    [Constraint({"y1": 1.0, "y2": 1.0, "y3": 1.0}, ">=", 1.0)])
    reform = reformulate(prog)
    feasible = {
        reform.decode(bits).assignment
        for bits in itertools.product((0, 1), repeat=reform.qubo.num_vars)
        if reform.decode(bits).feasible
    }
    assert len(feasible) == 7


def test_verify_passes_on_small_models():
    prog = _program({"a": 1.0, "b": 2.0},
                    [Constraint({"a": 1.0, "b": 1.0}, "=", 1.0)])
    report = verify(reformulate(prog, rho=10.0))
    assert report.passed
    assert report.num_source_assignments == 4
    assert report.feasible_count == 2
    assert report.feasible_optimum == 1.0
    assert report.qubo_minimum == 1.0
    assert report.qubo_argmin[:2] == (1, 0)
    assert report.argmin_feasible
    assert report.argmin_objective == 1.0
    assert report.exactness_failures == ()
    assert report.dominance_failures == ()


def test_verify_detects_weak_penalty():
    # with rho below the objective pull, the infeasible point wins
    prog = _program({"a": -3.0}, [Constraint({"a": 1.0}, "=", 0.0)], names=("a",))
    report = verify(reformulate(prog, rho=2.0))
    assert not report.passed
    assert not report.argmin_feasible
    assert report.qubo_minimum == -1.0
    assert report.dominance_failures
    bits, energy = report.dominance_failures[0]
    assert bits == (1,)
    assert energy == -1.0


def test_verify_respects_scan_limits():
    names = tuple(f"v{i}" for i in range(25))
    prog = _program({n: 1.0 for n in names},
                    [Constraint({names[0]: 1.0}, "=", 1.0)], names=names)
    with pytest.raises(ExhaustiveLimitError, match="25 source variables"):
        verify(reformulate(prog))
    # 17 products of x in one row: one auxiliary component of 17 pairs
    ys = tuple(f"y{i}" for i in range(17))
    gadget = _program(
        {"x": 1.0},
        [Constraint({}, "=", 0.0, products=tuple(("x", y, 1.0) for y in ys))],
        names=("x",) + ys)
    with pytest.raises(ExhaustiveLimitError, match="size 17"):
        verify(reformulate(gadget))


def test_sidecar_shape():
    prog = _program({"y1": 1.0, "y2": 2.0, "y3": 4.0},
                    [Constraint({"y1": 1.0, "y2": 1.0, "y3": 1.0}, ">=", 1.0,
                                label="cover")])
    side = reformulate(prog).sidecar_json_dict()
    assert side["num_source_vars"] == 3
    assert side["num_qubo_vars"] == 5
    assert side["rho"] == 8.0
    assert side["constraint_rho"] is None
    assert side["var_map"] == {"y1": 0, "y2": 1, "y3": 2}
    assert side["aux_products"] == []
    group, = side["slack_groups"]
    assert group == {"constraint_index": 0, "label": "cover", "sense": ">=",
                     "indices": [3, 4], "weights": [1, 2], "sign": -1}


@st.composite
def random_programs(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    names = tuple(f"x{i}" for i in range(n))
    coeff = st.integers(min_value=-3, max_value=3)
    objective = {names[i]: float(draw(coeff)) for i in range(n)}
    m = draw(st.integers(min_value=0, max_value=2))
    witness = draw(st.tuples(*([st.integers(0, 1)] * n)))
    cons = []
    for ci in range(m):
        lin = {names[i]: float(draw(coeff)) for i in range(n)}
        lhs = sum(lin[names[i]] * witness[i] for i in range(n))
        sense = draw(st.sampled_from(("=", "<=", ">=")))
        margin = draw(st.integers(min_value=0, max_value=2))
        rhs = lhs if sense == "=" else (lhs + margin if sense == "<=" else lhs - margin)
        cons.append(Constraint(lin, sense, float(rhs), label=f"c{ci}"))
    return BinaryProgram(var_names=names, objective=objective,
                         constraints=tuple(cons))


@given(random_programs())
@settings(max_examples=60, deadline=None)
def test_reformulation_recovers_planted_optimum(prog):
    reform = reformulate(prog)
    oracle = brute_force(prog)
    assert oracle.records, "witness construction keeps the program feasible"
    best = oracle.best()
    qubo_oracle = brute_force(reform.qubo)
    decoded = reform.decode(qubo_oracle.best().assignment)
    assert decoded.feasible
    assert decoded.objective == pytest.approx(best.objective, abs=1e-9)
    assert qubo_oracle.best().energy == pytest.approx(best.objective, abs=1e-9)


def _penalty_row(sense, weight, bits):
    return _ScanRow(evaluate=None, sense=sense, rhs=0.0, form=None, span=None,
                    weight=weight, slack=tuple(range(bits)), pairs={})


@given(st.sampled_from(("<=", ">=")), st.integers(0, 4),
       st.floats(1e-3, 1e6), st.lists(st.integers(-60, 60), max_size=8))
@settings(max_examples=200, deadline=None)
def test_row_slack_is_the_best_of_every_slack_setting(sense, bits, weight, drawn):
    """On integer residuals, below, inside and above a row's slack range,
    ``_row_slack`` is the one setting ``s`` of the row's ``bits`` slack
    bits that minimizes ``w * (r + sign * s)^2`` (sign +1 on ``<=``, -1 on
    ``>=``), and ``_row_penalty`` equals that minimum exactly."""
    row = _penalty_row(sense, weight, bits)
    top = (1 << bits) - 1
    residual = np.array([*range(-top - 3, top + 4), *drawn], dtype=float)
    sign = 1 if sense == "<=" else -1
    energies = np.array([weight * np.square(residual + sign * s) for s in range(top + 1)])
    least = energies.min(axis=0)
    assert (_row_penalty(row, residual) == least).all()
    assert ((energies == least).sum(axis=0) == 1).all()
    assert (_row_slack(row, residual) == energies.argmin(axis=0)).all()


@given(st.floats(1e-3, 1e6), st.lists(st.floats(-50, 50), min_size=1, max_size=8))
@example(3.0, [0.5, -0.25, 1e-9, 0.0])
@settings(max_examples=100, deadline=None)
def test_equality_row_penalty_has_no_slack(weight, residuals):
    """An equality row has the one, empty, slack setting: its penalty is
    ``w * r^2`` at any residual, fractional ones included."""
    residual = np.array(residuals)
    assert (_row_penalty(_penalty_row("=", weight, 0), residual)
            == weight * np.square(residual)).all()


# -- verify against the dense scan it replaced ----------------------------------


def _reference_verify(reform, tol=1e-9, max_failures=20):
    """``verify`` as it was before the survivor-filtered scan.

    One float 0/1 matrix holds every source assignment.  Every row is
    evaluated on every assignment, the product-free rows' slack penalties
    in closed form by sense group, the auxiliary components by enumeration,
    and the completion of the argmin with the scalar slack routine.
    """
    program = reform.source
    n = program.num_vars
    index = {name: i for i, name in enumerate(program.var_names)}
    pairs = sorted(reform.aux_products)
    pair_pos = {p: k for k, p in enumerate(pairs)}
    rows = []
    A = np.zeros((len(reform.normalized), n))
    for ci, con in enumerate(reform.normalized):
        for name, coeff in con.linear.items():
            A[ci, index[name]] += coeff
        slack = reform.slack_groups[ci]
        pair_coeffs = {}
        for u, v, q in con.products:
            key = (min(index[u], index[v]), max(index[u], index[v]))
            pair_coeffs[key] = pair_coeffs.get(key, 0.0) + q
        rows.append({
            "rhs": con.rhs, "sense": con.sense,
            "weight": reform.constraint_weight(con.label),
            "max_slack": (1 << len(slack)) - 1,
            "slack_indices": slack,
            "pair_pos": [(pair_pos[key], q) for key, q in pair_coeffs.items() if q != 0.0],
        })
    parent = list(range(len(pairs)))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for row in rows:
        positions = [p for p, _ in row["pair_pos"]]
        for other in positions[1:]:
            ra, rb = find(positions[0]), find(other)
            if ra != rb:
                parent[rb] = ra
    comp_pairs = {}
    for p in range(len(pairs)):
        comp_pairs.setdefault(find(p), []).append(p)
    components = []
    for _, members in sorted(comp_pairs.items()):
        member_set = set(members)
        row_ids = [ci for ci, row in enumerate(rows) if row["pair_pos"]
                   and {p for p, _ in row["pair_pos"]} & member_set]
        components.append((sorted(members), row_ids))
    simple = [ci for ci, row in enumerate(rows) if not row["pair_pos"]]

    def row_penalty(row, residual):
        if row["sense"] == "=":
            return row["weight"] * np.square(residual)
        if row["sense"] == "<=":
            slack = np.clip(np.rint(-residual), 0.0, float(row["max_slack"]))
            return row["weight"] * np.square(residual + slack)
        slack = np.clip(np.rint(residual), 0.0, float(row["max_slack"]))
        return row["weight"] * np.square(residual - slack)

    def row_penalty_scalar(row, residual):
        if row["sense"] == "=":
            return row["weight"] * residual * residual, 0
        if row["sense"] == "<=":
            slack = int(min(max(round(-residual), 0), row["max_slack"]))
            return row["weight"] * (residual + slack) ** 2, slack
        slack = int(min(max(round(residual), 0), row["max_slack"]))
        return row["weight"] * (residual - slack) ** 2, slack

    ks = np.arange(1 << n, dtype=np.int64)
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    X = ((ks[None, :] >> shifts[:, None]) & 1).astype(np.float64).T
    lin = X @ A.T
    pair_vals = [X[:, i] * X[:, j] for i, j in pairs]
    lhs = lin.copy()
    for ci, row in enumerate(rows):
        for p, q in row["pair_pos"]:
            lhs[:, ci] += q * pair_vals[p]
    mask = np.ones(len(ks), dtype=bool)
    for ci, row in enumerate(rows):
        if row["sense"] == "=":
            mask &= np.abs(lhs[:, ci] - row["rhs"]) <= tol
        elif row["sense"] == "<=":
            mask &= lhs[:, ci] <= row["rhs"] + tol
        else:
            mask &= lhs[:, ci] >= row["rhs"] - tol
    obj = X @ np.array([program.objective.get(name, 0.0) for name in program.var_names])
    obj = obj + program.objective_constant
    for u, v, q in program.objective_products:
        obj += q * X[:, index[u]] * X[:, index[v]]
    energy = obj.copy()
    for sense in ("=", "<=", ">="):
        ids = [ci for ci in simple if rows[ci]["sense"] == sense]
        for ci in ids:
            energy += row_penalty(rows[ci], lin[:, ci] - rows[ci]["rhs"])
    for members, row_ids in components:
        best = None
        for w_tuple in itertools.product((0, 1), repeat=len(members)):
            acc = np.zeros(len(ks))
            for w, p in zip(w_tuple, members):
                i, j = pairs[p]
                if w:
                    acc += reform.rho * (pair_vals[p] - 2.0 * X[:, i] - 2.0 * X[:, j] + 3.0)
                else:
                    acc += reform.rho * pair_vals[p]
            w_at = dict(zip(members, w_tuple))
            for ci in row_ids:
                shift = sum(q * w_at[p] for p, q in rows[ci]["pair_pos"])
                acc += row_penalty(rows[ci], lin[:, ci] - rows[ci]["rhs"] + shift)
            best = acc if best is None else np.minimum(best, acc)
        energy += best

    bits_of = [tuple(int(b) for b in x) for x in X]
    feasible_count = int(mask.sum())
    feasible_opt = float(obj[mask].min()) if feasible_count else None
    exactness = [(bits_of[k], float(energy[k]), float(obj[k]))
                 for k in np.nonzero(mask & (np.abs(energy - obj) > tol))[0]]
    dominance = []
    if feasible_count:
        flagged = sorted((float(energy[k]), int(k)) for k in np.nonzero(~mask)[0]
                         if energy[k] <= feasible_opt + tol)
        dominance = [(bits_of[k], e) for e, k in flagged[:max_failures]]
    best_k = int(np.argmin(energy))

    source_bits = bits_of[best_k]
    full = list(source_bits) + [0] * (reform.qubo.num_vars - n)
    w_chosen = {}
    for members, row_ids in components:
        best = None
        for w_tuple in itertools.product((0, 1), repeat=len(members)):
            acc = 0.0
            for w, p in zip(w_tuple, members):
                i, j = pairs[p]
                acc += reform.rho * rosenberg_penalty(source_bits[i], source_bits[j], w)
            w_at = dict(zip(members, w_tuple))
            for ci in row_ids:
                shift = sum(q * w_at[p] for p, q in rows[ci]["pair_pos"])
                acc += row_penalty_scalar(rows[ci], float(lin[best_k, ci])
                                          - rows[ci]["rhs"] + shift)[0]
            if best is None or acc < best[0]:
                best = (acc, w_tuple)
        for w, p in zip(best[1], members):
            w_chosen[p] = w
            full[reform.aux_products[pairs[p]]] = w
    for ci, row in enumerate(rows):
        shift = sum(q * w_chosen[p] for p, q in row["pair_pos"])
        _, slack = row_penalty_scalar(row, float(lin[best_k, ci]) - row["rhs"] + shift)
        for k, idx in enumerate(row["slack_indices"]):
            full[idx] = (slack >> k) & 1

    return VerificationReport(
        passed=feasible_count > 0 and not exactness and not dominance,
        num_source_assignments=1 << n,
        feasible_count=feasible_count,
        feasible_optimum=feasible_opt,
        qubo_minimum=float(energy[best_k]),
        qubo_argmin=tuple(full),
        argmin_objective=program.objective_value(source_bits),
        argmin_feasible=program.is_feasible(source_bits),
        exactness_failures=tuple(exactness[:max_failures]),
        dominance_failures=tuple(dominance),
        rho=reform.rho,
    )


def _with_terms(reform, terms, offset=None):
    """``reform`` with its QUBO's terms, and offset if given, replaced."""
    qubo = reform.qubo
    offset = qubo.offset if offset is None else offset
    return dataclasses.replace(reform, qubo=QuboModel.from_terms(
        qubo.num_vars, terms, offset, qubo.var_names))


def _short_slack(reform):
    """``reform`` with the top slack bit of every inequality row left out,
    from its QUBO terms as well as its slack groups.

    The reformulation is then wrong: a feasible point whose row needs the
    missing slack keeps a penalty, which ``verify`` must report.
    """
    groups = tuple(g[:-1] for g in reform.slack_groups)
    dropped = {g[-1] for g in reform.slack_groups if g}
    terms = {key: q for key, q in reform.qubo.terms.items() if not dropped & set(key)}
    return _with_terms(dataclasses.replace(reform, slack_groups=groups), terms)


def _reports_agree(reform):
    report = verify(reform)
    assert report == _reference_verify(reform)
    return report


@given(solvable_programs(), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_verify_matches_dense_reference(prog, chunk_bits):
    """As one chunk, and in chunks of 2^chunk_bits whose rows read low-bit
    tables: the reports match the reference field for field."""
    reform = reformulate(prog)
    reforms = (reform, reformulate(prog, rho=0.5), _short_slack(reform))
    one_chunk = [_reports_agree(r) for r in reforms]
    assert one_chunk[0].passed
    with mock.patch.object(solvers, "_CHUNK_BITS", chunk_bits):
        assert [_reports_agree(r) for r in reforms] == one_chunk


def test_verify_matches_dense_reference_on_failures():
    # (1, 1, 1) is feasible with slack 2 on the first row, so dropping the
    # 2-bit leaves it a penalty; rho = 0.5 lets the infeasible (0, 0, 0)
    # undercut the optimum 1
    prog = _program({"x": 1.0, "y": 2.0, "z": 3.0},
                    [Constraint({"x": 1.0, "y": 1.0, "z": 1.0}, ">=", 1.0),
                     Constraint({"x": 1.0}, ">=", 0.0, products=(("y", "z", -1.0),))],
                    names=("x", "y", "z"))
    short = _reports_agree(_short_slack(reformulate(prog)))
    assert short.exactness_failures and not short.dominance_failures
    weak = _reports_agree(reformulate(prog, rho=0.5))
    assert weak.dominance_failures and not weak.exactness_failures


def test_verify_matches_dense_reference_without_feasible_points():
    # no point is feasible, so nothing is pruned and every code is completed
    prog = _program({"a": 1.0, "b": -2.0},
                    [Constraint({"a": 1.0, "b": 1.0}, "=", 1.0),
                     Constraint({"a": 1.0, "b": 1.0}, "=", 0.0,
                                products=(("a", "c", 1.0),))],
                    names=("a", "b", "c"))
    report = _reports_agree(reformulate(prog))
    assert report.feasible_count == 0
    assert report.feasible_optimum is None
    assert not report.argmin_feasible
    assert not report.passed


def test_verify_makes_one_set_of_row_tables(il_reform, monkeypatch):
    """verify reads the oracle's compiled rows: on il, a scan of many
    chunks, one call makes one row evaluator, and so one low-bit table, per
    row, and the next call makes its own."""
    assert il_reform.source.num_vars > solvers._CHUNK_BITS
    made = count_row_evaluators(monkeypatch)
    assert verify(il_reform).passed
    assert len(made) == len(il_reform.normalized)
    assert verify(il_reform).passed
    assert len(made) == 2 * len(il_reform.normalized)


@st.composite
def chunked_programs(draw):
    """Programs in the style of A3 for scans of many chunks: mixed senses,
    equality rows whose right-hand side may be fractional, inequality rows
    with slack or tight, product rows, and rows that no point may satisfy."""
    n = draw(st.integers(min_value=4, max_value=6))
    names = tuple(f"x{i}" for i in range(n))
    coeff = st.integers(min_value=-4, max_value=4)
    objective = {name: float(draw(coeff)) for name in names}
    witness = draw(st.tuples(*([st.integers(0, 1)] * n)))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    cons = []
    for ci in range(draw(st.integers(min_value=1, max_value=3))):
        lin = {name: float(draw(coeff)) for name in names}
        products = ()
        if draw(st.booleans()):
            u, v = draw(st.sampled_from(pairs))
            products = ((names[u], names[v], float(draw(st.integers(-3, 3)) or 1)),)
        coeffs = list(lin.values()) + [q for *_, q in products]
        lhs = sum(c * x for c, x in zip(lin.values(), witness)) \
            + sum(q * witness[names.index(u)] * witness[names.index(v)] for u, v, q in products)
        sense = draw(st.sampled_from(("=", "<=", ">=")))
        if sense == "=":
            rhs = lhs + draw(st.sampled_from((0.0, 0.0, 0.25, 0.5, 1.0)))
        elif sense == "<=":
            rhs = max(lhs + draw(st.integers(-1, 2)), sum(min(0.0, c) for c in coeffs))
        else:
            rhs = min(lhs - draw(st.integers(-1, 2)), sum(max(0.0, c) for c in coeffs))
        cons.append(Constraint(lin, sense, float(rhs), products=products, label=f"c{ci}"))
    return BinaryProgram(var_names=names, objective=objective, constraints=tuple(cons))


# x0 * x5 and x3 * x4 have a bit on each side of the cut at 2, and each
# row holds only where its product is 1; the second program has no
# feasible point
@example(BinaryProgram(
    var_names=("x0", "x1", "x2", "x3", "x4", "x5"), objective={"x0": 2.0, "x3": -1.0},
    constraints=(Constraint({"x1": 1.0}, ">=", 3.0, products=(("x0", "x5", 3.0),)),
                 Constraint({"x2": 1.0}, "<=", -2.0, products=(("x3", "x4", -3.0),)))),
         2, None)
@example(BinaryProgram(
    var_names=("x0", "x1", "x2", "x3"), objective={"x0": 1.0},
    constraints=(Constraint({"x0": 1.0, "x3": 1.0}, "=", 0.5),)), 1, 0.5)
@given(chunked_programs(), st.integers(1, 3), st.sampled_from((None, 0.5)))
@settings(max_examples=100, deadline=None)
def test_verify_chunk_skips_are_sound(prog, chunk_bits, rho):
    """Every chunk holding a feasible code passes the feasibility pass's
    chunk test, and every chunk holding a code that survives
    ``_completion_energies`` at a bound passes the threshold pass's chunk
    test at that bound, for bounds at and just below the codes' energies."""
    reform = reformulate(prog, rho=rho)
    n = prog.num_vars
    feasible = [k for k, bits in enumerate(itertools.product((0, 1), repeat=n))
                if prog.is_feasible(bits)]
    with mock.patch.object(solvers, "_CHUNK_BITS", chunk_bits):
        scan = _ScanTables(reform)
        keep = scan.feasible_chunks()
        assert keep.shape == (1 << (n - chunk_bits),)
        assert all(keep[k >> chunk_bits] for k in feasible)
        chunks = list(solvers._code_chunks(n))
        energies = np.sort(np.concatenate(
            [_completion_energies(scan, codes)[2] for codes in chunks]))
        for energy in energies[[0, len(energies) // 8, len(energies) // 4, len(energies) // 2]]:
            for bound in (energy, np.nextafter(energy, -np.inf)):
                within = scan.chunks_within(bound)
                for chunk, codes in enumerate(chunks):
                    if _completion_energies(scan, codes, bound)[0].size:
                        assert within[chunk]


def test_verify_reads_21_of_1024_il_chunks_per_pass(il_reform, monkeypatch):
    """On il each pass of verify reads at most 344,064 of its 2^24 codes
    whole, 21 chunks of 2^14; the row spans rule out the rest.  The bound
    is in codes, so it holds at any chunk size.  The feasibility pass reads
    a chunk through ``_feasible_codes`` and the threshold pass through
    ``_completion_energies`` with a finite bound; the other calls of each
    get only a chunk's survivors."""
    module = importlib.import_module("flowqubo.reformulate")
    whole = 1 << solvers._CHUNK_BITS
    assert il_reform.source.num_vars == 24
    feasible_reads, threshold_reads = [], []
    rows, energies = module._feasible_codes, module._completion_energies

    def reading_rows(checks, codes):
        if codes.size == whole:
            feasible_reads.append(codes.size)
        return rows(checks, codes)

    def reading_energies(scan, codes, bound=np.inf):
        if bound < np.inf:
            assert codes.size == whole
            threshold_reads.append(codes.size)
        return energies(scan, codes, bound)

    monkeypatch.setattr(module, "_feasible_codes", reading_rows)
    monkeypatch.setattr(module, "_completion_energies", reading_energies)
    assert verify(il_reform).passed
    assert 0 < sum(feasible_reads) <= 21 << 14
    assert 0 < sum(threshold_reads) <= 21 << 14


def test_verify_fails_without_feasible_point():
    # no variables and an unsatisfiable row: no penalty or dominance failure
    # can show, yet there is no feasible optimum to certify
    prog = BinaryProgram(var_names=(), objective={},
                         constraints=(Constraint({}, "=", 1.0),))
    report = _reports_agree(reformulate(prog))
    assert report.feasible_count == 0
    assert not report.exactness_failures and not report.dominance_failures
    assert not report.passed


def test_reformulation_stores_only_its_encoding_choices():
    assert [f.name for f in dataclasses.fields(Reformulation)] == [
        "source", "qubo", "aux_products", "slack_groups", "rho", "constraint_rho"]


def test_verify_rejects_a_qubo_without_the_penalty():
    # the QUBO is the bare objective: (0, 0) reaches 0 below the feasible
    # optimum 1, and a scan of the bookkeeping alone would pass it
    prog = _program({"a": 1.0, "b": 1.0},
                    [Constraint({"a": 1.0, "b": 1.0}, "=", 1.0, label="one")])
    bare = Reformulation(
        source=prog, qubo=QuboModel.from_terms(2, {(0, 0): 1.0, (1, 1): 1.0}),
        aux_products={}, slack_groups=((),),
        rho=3.0)
    assert brute_force(bare.qubo).best().energy == 0.0
    with pytest.raises(ReformulationError, match=r"term \(0, 0\)"):
        verify(bare)
    # with the penalty QUBO the hand-built object passes, its rows derived
    # from the source program
    report = verify(dataclasses.replace(bare, qubo=reformulate(prog, rho=3.0).qubo))
    assert report.passed
    assert (report.feasible_count, report.feasible_optimum) == (2, 1.0)


def test_verify_rejects_a_wrong_slack_coupling_on_il(il_reform):
    names = il_reform.qubo.var_names
    key = (names.index("slack[6.0]"), names.index("slack[6.1]"))
    terms = dict(il_reform.qubo.terms)
    terms[key] -= 1e5
    with pytest.raises(ReformulationError,
                       match=r"term \(slack\[6\.0\], slack\[6\.1\]\)"):
        verify(_with_terms(il_reform, terms))


def _one_slack_row():
    # two variables and one <= row: the QUBO has one slack bit, index 2
    return reformulate(_program({"a": 1.0, "b": 1.0},
                                [Constraint({"a": 1.0, "b": 1.0}, "<=", 1.0)]))


def _one_product_row():
    # b*c in a <= row: auxiliary 3 and slack bit 4
    return reformulate(_program({"a": 1.0}, [Constraint({"a": 1.0}, "<=", 1.0,
                                                         products=(("b", "c", 1.0),))],
                                names=("a", "b", "c")))


def _one_equality_row():
    # a + b + c = 1: three variables, no slack and no auxiliary
    return reformulate(_program({"a": 1.0}, [Constraint({"a": 1.0, "b": 1.0, "c": 1.0},
                                                         "=", 1.0)]))


@pytest.mark.parametrize("make, fields, message", [
    (_one_slack_row, {"slack_groups": ()}, "0 slack groups for 1 constraints"),
    (_one_slack_row, {"slack_groups": ((7,),)},
     r"auxiliary or slack index 7 lies outside \[2, 3\)"),
    (_one_slack_row, {"aux_products": {(0, 1): 9}},
     r"auxiliary or slack index 9 lies outside \[2, 3\)"),
    (_one_product_row, {"aux_products": {}}, r"product pair \(1, 2\) has no auxiliary"),
    (_one_product_row, {"slack_groups": ((3,),)}, "index 3 is used twice"),
    (_one_equality_row, {"qubo": QuboModel.from_terms(2, {(0, 0): 1.0})},
     "the QUBO has 2 variables, fewer than the 3 source variables"),
], ids=["no-slack-groups", "slack-past-qubo", "auxiliary-past-qubo",
        "pair-without-auxiliary", "index-used-twice", "qubo-narrower-than-source"])
def test_verify_rejects_malformed_bookkeeping(make, fields, message):
    """A hand-built Reformulation whose slack groups, auxiliaries or QUBO
    do not fit its program is refused before the scan reads them."""
    reform = make()
    assert verify(reform).passed
    with pytest.raises(ReformulationError, match=message):
        verify(dataclasses.replace(reform, **fields))


def test_sidecar_of_an_unnamed_qubo():
    """The sidecar names auxiliary pairs by the source variables, so a QUBO
    without var_names publishes the same mapping."""
    reform = _one_product_row()
    qubo = reform.qubo
    unnamed = dataclasses.replace(reform, qubo=QuboModel.from_terms(
        qubo.num_vars, qubo.terms, qubo.offset, var_names=None))
    assert verify(unnamed).passed
    side = unnamed.sidecar_json_dict()
    assert side == reform.sidecar_json_dict()
    assert side["aux_products"] == [["b", "c", 3]]
    assert side["slack_groups"] == [{"constraint_index": 0, "label": "", "sense": "<=",
                                     "indices": [4], "weights": [1], "sign": 1}]


def test_verify_checks_the_variable_limit_first(monkeypatch):
    """A program past the exhaustive bound is refused before any row is
    compiled."""
    names = tuple(f"x{i}" for i in range(solvers._VAR_LIMIT + 1))
    prog = _program({}, [Constraint({name: 1.0 for name in names}, "<=", 1.0)], names=names)
    made = count_row_evaluators(monkeypatch)
    with pytest.raises(ExhaustiveLimitError, match="exceed the exhaustive bound"):
        verify(reformulate(prog))
    assert made == []


@given(solvable_programs(), st.data())
@settings(max_examples=100, deadline=None)
def test_verify_rejects_any_moved_qubo_term(prog, data):
    """Moving one QUBO term, or the offset, by 1e-6 * (1 + |value|) fails
    the term-by-term check against the scanned penalty model."""
    reform = reformulate(prog, rho=data.draw(st.sampled_from((None, 0.5, 1 / 3))))
    verify(reform)
    terms = dict(reform.qubo.terms)
    key = data.draw(st.sampled_from(sorted(terms) + ["offset"]))
    sign = data.draw(st.sampled_from((-1.0, 1.0)))
    if key == "offset":
        offset = reform.qubo.offset
        moved = _with_terms(reform, terms, offset + sign * 1e-6 * (1 + abs(offset)))
    else:
        terms[key] += sign * 1e-6 * (1 + abs(terms[key]))
        moved = _with_terms(reform, terms)
    with pytest.raises(ReformulationError, match="penalty model"):
        verify(moved)
