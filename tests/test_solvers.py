import importlib
import itertools
import json
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowqubo import (
    BinaryProgram,
    Constraint,
    EnergyMismatchError,
    ExhaustiveLimitError,
    ModelError,
    QuboModel,
    SampleFormatError,
    SampleRecord,
    SampleSet,
    SaParams,
    SolverError,
    branch_and_bound,
    brute_force,
    derived_beta_schedule,
    import_samples,
    no_good_cut,
    reformulate,
    simulated_annealing,
    verify,
)
from flowqubo import solvers
from flowqubo.solvers import _anneal, _colour_classes, _log_thresholds


def _tiny_qubo():
    # E = x0 - 2 x0 x1 + x1, two degenerate minima
    return QuboModel.from_terms(2, {(0, 0): 1.0, (0, 1): -2.0, (1, 1): 1.0})


# -- sample sets ---------------------------------------------------------------


def test_build_merges_duplicates_and_sorts():
    records = [
        SampleRecord(assignment=(1, 0), energy=1.0, occurrences=2),
        SampleRecord(assignment=(0, 0), energy=0.0),
        SampleRecord(assignment=(1, 0), energy=1.0, occurrences=3),
    ]
    ss = SampleSet.build(records, "test")
    assert [r.assignment for r in ss.records] == [(0, 0), (1, 0)]
    assert ss.records[1].occurrences == 5
    assert ss.num_reads == 6


def test_best_returns_lowest_energy():
    ss = SampleSet.build([SampleRecord((0,), 4.0), SampleRecord((1,), -1.0)], "t")
    assert ss.best().assignment == (1,)
    empty = SampleSet.build([], "t", status="infeasible")
    assert empty.best() is None


def test_sampleset_json_round_trip(tmp_path):
    ss = SampleSet.build(
        [SampleRecord((1, 0), 1.5, occurrences=2, objective=1.5, feasible=True)],
        "sa", tau=0.25, seed=7, metadata={"num_reads": 2})
    path = tmp_path / "s.json"
    ss.save(path)
    again = SampleSet.load(path)
    assert again.records == ss.records
    assert again.tau == 0.25
    assert again.seed == 7
    assert again.solver == "sa"
    assert again.metadata["num_reads"] == 2


def test_zero_variable_sample_sets_round_trip(tmp_path):
    """Every solver answers a zero-variable program with assignment ``()``,
    saved as the empty 0/1 string; each sample set loads back unchanged."""
    prog = BinaryProgram(var_names=(), objective={}, objective_constant=1.5)
    path = tmp_path / "s.json"
    for ss in (brute_force(prog), branch_and_bound(prog),
               simulated_annealing(reformulate(prog).qubo,
                                   SaParams(num_reads=3, num_sweeps=2, seed=1))):
        assert [r.assignment for r in ss.records] == [()]
        ss.save(path)
        assert json.loads(path.read_text())["records"][0]["assignment"] == ""
        assert SampleSet.load(path).to_json_dict() == ss.to_json_dict()


def test_save_can_blank_tau(tmp_path):
    ss = SampleSet.build([SampleRecord((0,), 0.0)], "t", tau=9.9)
    path = tmp_path / "s.json"
    ss.save(path, include_tau=False)
    with open(path) as fh:
        data = json.load(fh)
    assert data["tau_seconds"] is None


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("records"),
    lambda d: d["records"].append({"assignment": "01", "energy": "bad",
                                   "occurrences": 1}),
    lambda d: d["records"].append({"assignment": "0", "energy": 0.0,
                                   "occurrences": 1}),
    lambda d: d["records"].append({"assignment": "02", "energy": 0.0,
                                   "occurrences": 1}),
    lambda d: d["records"].append({"assignment": "01", "energy": 0.0,
                                   "occurrences": 0}),
])
def test_malformed_sample_files_rejected(tmp_path, mutate):
    base = SampleSet.build([SampleRecord((0, 1), 1.0)], "x").to_json_dict()
    mutate(base)
    path = tmp_path / "bad.json"
    with open(path, "w") as fh:
        json.dump(base, fh)
    with pytest.raises(SampleFormatError):
        SampleSet.load(path)


@pytest.mark.parametrize("field, what", [
    ("energy", "record 0: energy must be a finite number"),
    ("objective", "record 0: objective must be a finite number or null"),
])
def test_sample_number_out_of_float_range_names_the_field(field, what):
    data = SampleSet.build([SampleRecord((0, 1), 1.0)], "x").to_json_dict()
    data["records"][0][field] = 10 ** 400
    with pytest.raises(SampleFormatError, match=re.escape(what)):
        SampleSet.from_json_dict(data)


def test_import_samples_checks_energies(tmp_path):
    q = _tiny_qubo()
    good = SampleSet.build([SampleRecord((1, 1), 0.0), SampleRecord((1, 0), 1.0)], "ext")
    path = tmp_path / "ok.json"
    good.save(path)
    ss = import_samples(path, qubo=q)
    assert len(ss.records) == 2

    bad = SampleSet.build([SampleRecord((1, 1), 0.5)], "ext")
    bad_path = tmp_path / "bad.json"
    bad.save(bad_path)
    with pytest.raises(EnergyMismatchError) as err:
        import_samples(bad_path, qubo=q)
    (assignment, stated, recomputed), = err.value.mismatches
    assert assignment == (1, 1)
    assert stated == 0.5
    assert recomputed == 0.0
    # without a model the file is taken at face value
    assert import_samples(bad_path).records[0].energy == 0.5


# -- exhaustive oracle ---------------------------------------------------------


def test_brute_force_qubo_orders_by_energy_then_lex():
    ss = brute_force(_tiny_qubo())
    assert [r.assignment for r in ss.records] == [(0, 0), (1, 1), (0, 1), (1, 0)]
    assert [r.energy for r in ss.records] == [0.0, 0.0, 1.0, 1.0]
    assert ss.solver == "oracle"


def test_brute_force_var_limit():
    q = QuboModel.from_terms(25, {(0, 0): 1.0})
    with pytest.raises(ExhaustiveLimitError):
        brute_force(q)


def test_brute_force_program_keeps_distinct_projections():
    prog = BinaryProgram(
        var_names=("a", "b", "c"),
        objective={"a": 1.0, "b": 2.0, "c": 1.0},
        constraints=(Constraint({"a": 1.0, "b": 1.0}, ">=", 1.0),),
        projection=("a", "b"),
    )
    ss = brute_force(prog)
    # three projected classes, each represented by its cheapest completion
    assert [(r.assignment, r.objective) for r in ss.records] == [
        ((1, 0, 0), 1.0),
        ((0, 1, 0), 2.0),
        ((1, 1, 0), 3.0),
    ]
    assert all(r.feasible for r in ss.records)
    assert all(r.energy == r.objective for r in ss.records)


def test_brute_force_infeasible_program():
    prog = BinaryProgram(
        var_names=("a",), objective={"a": 1.0},
        constraints=(Constraint({"a": 1.0}, "=", 2.0),))
    ss = brute_force(prog)
    assert ss.status == "infeasible"
    assert ss.records == ()


_SEVEN = tuple(f"x{i}" for i in range(7))
_CHUNKING_PROGRAMS = (
    BinaryProgram(
        var_names=_SEVEN,
        objective={name: float((3 * i) % 5 - 2) for i, name in enumerate(_SEVEN)},
        constraints=(
            Constraint({name: 1.0 for name in _SEVEN}, "<=", 4.0),
            Constraint({"x0": 1.0, "x6": 1.0}, ">=", 1.0),
            # x3 and x4 sit on bits 3 and 2: a split at bit 3 parts them
            Constraint({"x2": 1.0}, "=", 0.0, products=(("x3", "x4", 1.0),)),
        ),
        objective_products=(("x1", "x5", -3.0),),
        projection=_SEVEN[:5],
    ),
    # tenths are not integral, so the row keeps LinearForm.values: at the
    # optimum x1 = x4 = x6 = 1 its residual is 0.1 + 0.2 - 0.3 = 5.6e-17,
    # but 0.2 - 0.3 + 0.1 = 2.8e-17, and verify's QUBO minimum is the
    # squared residual times rho
    BinaryProgram(
        var_names=_SEVEN,
        objective={"x1": -1.0, "x4": -1.0, "x6": -1.0},
        constraints=(Constraint({"x1": 0.1, "x4": 0.2, "x6": -0.3}, "=", 0.0),
                     Constraint({name: 1.0 for name in _SEVEN}, ">=", 2.0)),
        objective_constant=3.0,
    ),
    # x0 is the top bit and x6 the bottom one, so the row product spans
    # every split
    BinaryProgram(
        var_names=_SEVEN,
        objective={name: float(2 - i) for i, name in enumerate(_SEVEN)},
        constraints=(Constraint({"x3": 1.0}, "=", 1.0, products=(("x0", "x6", -1.0),)),
                     Constraint({"x1": 2.0, "x5": -1.0}, "<=", 1.0,
                                products=(("x6", "x2", 3.0),))),
        projection=("x0", "x3", "x6"),
    ),
    # no feasible point: verify completes every code
    BinaryProgram(
        var_names=_SEVEN,
        objective={name: 1.0 for name in _SEVEN},
        constraints=(Constraint({"x0": 1.0, "x6": 1.0}, "=", 1.0),
                     Constraint({"x0": 1.0, "x6": 1.0}, ">=", 2.0)),
    ),
)


# past the exact bound of 2^53 the row keeps LinearForm.values: at x0 = x5 =
# x6 = 1 it sums 2^53 + 1 + 1 to 2^53 and holds, but 1 + 1 + 2^53 is 2^53 + 2
# (the QUBO of this row is too coarse for verify's completion check)
_INEXACT_PROGRAM = BinaryProgram(
    var_names=_SEVEN,
    objective={name: 1.0 for name in _SEVEN},
    constraints=(Constraint({"x0": 2.0 ** 53, "x5": 1.0, "x6": 1.0}, "=", 2.0 ** 53),),
)


@pytest.mark.parametrize("chunk_bits", [1, 2, 3, 5, 18])
def test_brute_force_chunking_invariant(chunk_bits, monkeypatch):
    """Scans of many chunks, whose rows read low-bit tables, give what a scan
    of one chunk, without tables, gives: records, statuses and verify
    reports compare equal field for field."""
    q = QuboModel.from_terms(
        6, {(i, j): ((i + 2 * j) % 5) - 2.0 for i in range(6) for j in range(i, 6)})

    def scans():
        out = [brute_force(q).records, brute_force(q).records[:10],
               brute_force(_INEXACT_PROGRAM).records]
        for prog in _CHUNKING_PROGRAMS:
            oracle = brute_force(prog)
            out.append((oracle.status, oracle.records, verify(reformulate(prog))))
        return out

    monkeypatch.setattr(solvers, "_CHUNK_BITS", 24)
    one_chunk = scans()
    assert [status for status, *_ in one_chunk[3:]] == ["ok", "ok", "ok", "infeasible"]
    assert (1, 0, 0, 0, 0, 1, 1) in [r.assignment for r in one_chunk[2]]
    monkeypatch.setattr(solvers, "_CHUNK_BITS", chunk_bits)
    assert scans() == one_chunk


def count_row_evaluators(monkeypatch) -> list:
    """Patch ``_row_evaluator`` where the oracle and verify call it; the
    returned list gains one entry per call."""
    made = []
    make = solvers._row_evaluator

    def counting(form, n):
        made.append(form)
        return make(form, n)

    for module in (solvers, importlib.import_module("flowqubo.reformulate")):
        monkeypatch.setattr(module, "_row_evaluator", counting)
    return made


def test_brute_force_makes_one_row_evaluator_per_row(il_program, monkeypatch):
    """The row evaluators, and their low-bit tables, belong to one scan call."""
    assert il_program.num_vars > solvers._CHUNK_BITS
    made = count_row_evaluators(monkeypatch)
    brute_force(il_program)
    assert len(made) == len(il_program.constraints)
    brute_force(il_program)
    assert len(made) == 2 * len(il_program.constraints)


@pytest.mark.parametrize("mode", ["optimal", "enumerate_all", "pool"])
def test_branch_and_bound_makes_no_row_evaluator(mode, ds_program, monkeypatch):
    made = count_row_evaluators(monkeypatch)
    assert branch_and_bound(ds_program, mode, pool_size=3).records
    assert made == []


def _per_code_qubo_reference(qubo, limit=None):
    """``brute_force(qubo)`` as it was before the bulk bit rows, with its
    former top-``limit`` path.

    Energies come from a transposed float 0/1 matrix per chunk of 2^14
    codes, each chunk keeps its ``limit`` lowest, the survivors are sorted
    by energy and code, and each record's bit tuple is built from its code
    one bit at a time.
    """
    n = qubo.num_vars
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    kept_k, kept_e = [], []
    for start in range(0, 1 << n, 1 << 14):
        ks = np.arange(start, min(start + (1 << 14), 1 << n), dtype=np.int64)
        X = ((ks[None, :] >> shifts[:, None]) & 1).astype(np.float64).T
        energies = qubo.energies(X)
        if limit is not None:
            order = np.argsort(energies, kind="stable")[:limit]
            ks, energies = ks[order], energies[order]
        kept_k.append(ks)
        kept_e.append(energies)
    ks = np.concatenate(kept_k)
    energies = np.concatenate(kept_e)
    order = np.lexsort((ks, energies))
    if limit is not None:
        order = order[:limit]
    return tuple(
        SampleRecord(assignment=tuple((int(ks[i]) >> (n - 1 - j)) & 1
                                      for j in range(n)),
                     energy=float(energies[i]))
        for i in order)


@st.composite
def _scan_qubos(draw):
    """A QUBO of 0-16 variables with integer, tenth or normal coefficients,
    and how many lowest records to compare: all, below one chunk of codes,
    or above 2^n."""
    n = draw(st.integers(0, 16))
    kind = draw(st.sampled_from(["integer", "tenth", "normal"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    terms = {}
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.5:
                continue
            if kind == "integer":
                terms[(i, j)] = float(rng.integers(-5, 6))
            elif kind == "tenth":
                terms[(i, j)] = int(rng.integers(-50, 51)) / 10
            else:
                terms[(i, j)] = float(rng.normal())
    offset = float(rng.normal()) if kind == "normal" else 0.0
    limit = draw(st.none() | st.integers(1, (1 << 14) - 1)
                 | st.integers((1 << n) + 1, (1 << n) + 100))
    return QuboModel.from_terms(n, terms, offset), limit


@settings(max_examples=40, deadline=None)
@given(case=_scan_qubos())
@example(case=(QuboModel.from_terms(0, {}, 1.5), None))
@example(case=(QuboModel.from_terms(0, {}, 1.5), 1))
@example(case=(QuboModel.from_terms(
    16, {(i, j): ((3 * i + j) % 7 - 3) / 10 for i in range(16) for j in range(i, 16)}),
    None))
@example(case=(QuboModel.from_terms(
    16, {(i, j): float((i * j) % 5 - 2) for i in range(16) for j in range(i, 16)}),
    100))
def test_brute_force_qubo_matches_the_per_code_reference(case):
    qubo, limit = case
    assert brute_force(qubo).records[:limit] == _per_code_qubo_reference(qubo, limit)


def test_brute_force_zero_variable_program():
    prog = BinaryProgram(var_names=(), objective={}, objective_constant=2.5)
    ss = brute_force(prog)
    assert [(r.assignment, r.energy, r.objective) for r in ss.records] == \
        [((), 2.5, 2.5)]
    assert ss.records == _float_matrix_reference(prog).records
    blocked = BinaryProgram(var_names=(), objective={},
                            constraints=(Constraint({}, "=", 1.0),))
    assert brute_force(blocked).status == "infeasible"
    assert brute_force(blocked).records == ()


def _float_matrix_reference(prog):
    """The exhaustive scan as it was before the integer-code kernel.

    Builds the float 0/1 matrix of all 2^n assignments (variable 0 most
    significant), evaluates every row on every assignment, and keeps the
    cheapest feasible completion per projected configuration, ties to the
    first assignment in lexicographic order.
    """
    n = prog.num_vars
    index = {name: i for i, name in enumerate(prog.var_names)}
    ks = np.arange(1 << n, dtype=np.int64)
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    X = ((ks[None, :] >> shifts[:, None]) & 1).astype(np.float64).T

    mask = np.ones(X.shape[0], dtype=bool)
    for con in prog.constraints:
        a = np.zeros(n)
        for name, coeff in con.linear.items():
            a[index[name]] += coeff
        lhs = X @ a
        for u, v, q in con.products:
            lhs += q * (X[:, index[u]] * X[:, index[v]])
        if con.sense == "=":
            mask &= np.abs(lhs - con.rhs) <= 1e-9
        elif con.sense == "<=":
            mask &= lhs <= con.rhs + 1e-9
        else:
            mask &= lhs >= con.rhs - 1e-9
    c = np.zeros(n)
    for name, coeff in prog.objective.items():
        c[index[name]] += coeff
    obj = X @ c + prog.objective_constant
    for u, v, q in prog.objective_products:
        obj += q * X[:, index[u]] * X[:, index[v]]

    proj_idx = [index[name] for name in prog.projection or prog.var_names]
    pool = {}
    for k in np.nonzero(mask)[0]:
        bits = tuple(int(b) for b in X[k])
        key = tuple(bits[i] for i in proj_idx)
        if key not in pool or obj[k] < pool[key][0]:
            pool[key] = (float(obj[k]), bits)
    records = [SampleRecord(assignment=bits, energy=value, objective=value, feasible=True)
               for value, bits in pool.values()]
    return SampleSet.build(records, "oracle", status="ok" if records else "infeasible")


def _assert_matches_float_matrix_reference(prog):
    reference = _float_matrix_reference(prog)
    found = brute_force(prog)
    assert found.records == reference.records
    assert found.status == reference.status
    return found


_EDGE_PROGRAMS = {
    "infeasible": BinaryProgram(
        var_names=("a", "b", "c"), objective={"a": 1.0, "c": -2.0},
        constraints=(Constraint({"a": 1.0, "b": 1.0}, "=", 1.0),
                     Constraint({"a": 1.0, "b": 1.0}, ">=", 2.0))),
    "no-constraints": BinaryProgram(
        var_names=("a", "b", "c"), objective={"a": -1.0, "b": 2.0},
        objective_constant=0.5, objective_products=(("a", "c", -1.5),),
        projection=("a", "c")),
    "product-rows": BinaryProgram(
        var_names=("x", "y", "z", "w"),
        objective={"x": 1.0, "y": -2.0, "z": 3.0, "w": -1.0},
        constraints=(
            Constraint({"w": 1.0}, "=", 0.0, products=(("x", "y", -1.0),)),
            Constraint({"z": 1.0}, "<=", 1.0, products=(("y", "w", 2.0),)),
            Constraint({"x": 1.0, "z": 1.0}, ">=", 1.0,
                       products=(("x", "z", -1.0), ("z", "y", 1.0))),
        ),
        objective_products=(("x", "w", 2.5),)),
}


@pytest.mark.parametrize("name", sorted(_EDGE_PROGRAMS))
def test_brute_force_matches_float_matrix_reference_on_edge_programs(name):
    found = _assert_matches_float_matrix_reference(_EDGE_PROGRAMS[name])
    assert (found.status == "infeasible") == (name == "infeasible")


# -- simulated annealing -------------------------------------------------------


def test_sa_deterministic_for_seed():
    q = _tiny_qubo()
    a = simulated_annealing(q, SaParams(num_reads=50, num_sweeps=40, seed=3))
    b = simulated_annealing(q, SaParams(num_reads=50, num_sweeps=40, seed=3))
    c = simulated_annealing(q, SaParams(num_reads=50, num_sweeps=40, seed=4))
    assert a.records == b.records
    assert a.records != c.records


def test_sa_finds_degenerate_minima():
    q = _tiny_qubo()
    ss = simulated_annealing(q, SaParams(num_reads=200, num_sweeps=100, seed=0))
    found = {r.assignment for r in ss.records if r.energy == 0.0}
    assert found == {(0, 0), (1, 1)}
    assert ss.num_reads == 200
    assert ss.metadata["num_sweeps"] == 100


def test_sa_validates_params():
    q = _tiny_qubo()
    with pytest.raises(SolverError):
        simulated_annealing(q, SaParams(num_reads=0))
    with pytest.raises(SolverError):
        simulated_annealing(q, SaParams(beta_hot=5.0, beta_cold=1.0))
    huge = QuboModel.from_terms(2, {(0, 0): 1e39, (0, 1): -1.0})
    with pytest.raises(SolverError):
        simulated_annealing(huge, SaParams(num_reads=2, num_sweeps=2, beta_hot=1.0,
                                           beta_cold=2.0))


def test_sa_empty_model():
    q = QuboModel.from_terms(0, {}, offset=2.0)
    ss = simulated_annealing(q, SaParams(num_reads=5, num_sweeps=5, seed=1))
    assert ss.records == (SampleRecord(assignment=(), energy=2.0, occurrences=5),)


def test_derived_schedule_brackets_coefficients():
    q = QuboModel.from_terms(2, {(0, 0): 4.0, (0, 1): -0.5})
    hot, cold = derived_beta_schedule(q)
    assert hot == pytest.approx(0.1 / 4.5)
    assert cold == pytest.approx(10.0 / 0.5)
    flat = QuboModel.from_terms(2, {})
    assert derived_beta_schedule(flat) == (0.1, 10.0)


def test_sa_records_timings_and_acceptance_bands(tmp_path):
    q = _tiny_qubo()
    params = SaParams(num_reads=50, num_sweeps=40, seed=3)
    ss = simulated_annealing(q, params)
    assert set(ss.time_breakdown) == {"schedule", "sweeps", "tally"}
    assert all(seconds >= 0.0 for seconds in ss.time_breakdown.values())
    bands = ss.metadata["acceptance_by_band"]
    assert len(bands) == 10
    assert all(0.0 <= rate <= 1.0 for rate in bands)
    assert bands[0] > bands[-1]                       # hot accepts more than cold
    assert simulated_annealing(q, params).metadata == ss.metadata
    short = simulated_annealing(q, SaParams(num_reads=5, num_sweeps=3, seed=1))
    assert len(short.metadata["acceptance_by_band"]) == 3

    plain, timed = tmp_path / "plain.json", tmp_path / "timed.json"
    ss.save(plain, include_tau=False)
    ss.save(timed)
    assert "time_breakdown" not in json.loads(plain.read_text())
    assert json.loads(plain.read_text())["metadata"]["acceptance_by_band"] == bands
    assert SampleSet.load(timed).time_breakdown == ss.time_breakdown


@st.composite
def integer_qubos(draw, max_vars=10):
    """Random QUBOs with small integer coefficients, exact in float32."""
    n = draw(st.integers(1, max_vars))
    coeff = st.integers(-20, 20).map(float)
    terms = {(i, i): draw(coeff) for i in range(n)}
    density = draw(st.sampled_from((0.0, 0.3, 0.6, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < density:
            terms[i, j] = draw(coeff)
    return QuboModel.from_terms(n, terms)


def _kernel_inputs(qubo, reads, sweeps, seed):
    """The permuted fields, classes, schedule and start states of the kernel."""
    h, w = qubo.fields()
    order, bounds = _colour_classes(w)
    h, w = h[order], w[np.ix_(order, order)]
    betas = np.geomspace(*derived_beta_schedule(qubo), num=sweeps).astype(np.float32)
    rng = np.random.default_rng(seed)
    X0 = rng.integers(0, 2, size=(qubo.num_vars, reads)).astype(np.float32)
    return h, w, bounds, betas, X0


def _run_kernel(h, w, bounds, betas, X0, seed):
    w32 = w.astype(np.float32)
    X = X0.copy()
    F = h.astype(np.float32)[:, None] + w32 @ X
    accepted = _anneal(w32, bounds, betas, X, F, np.random.default_rng(seed))
    return X, F, accepted


def _sequential_reference(h, w, betas, X0, seed):
    """The sweeps one spin at a time in the kernel's order, in float64.

    Each spin's field ``h + W x`` is recomputed from the current state, and
    each spin and read consumes the threshold the kernel gives it.  The
    acceptance test is the kernel's float32 ``beta * dE < E``; on integer
    coefficients ``dE`` is exact in float32.
    """
    X = X0.astype(np.float64)
    rng = np.random.default_rng(seed)
    thresholds = np.empty(X.shape, dtype=np.float32)
    accepted = []
    for beta in betas:
        _log_thresholds(rng, thresholds)
        flips = 0
        for i in range(len(X)):
            d_energy = (1.0 - 2.0 * X[i]) * (h[i] + w[i] @ X)
            flip = beta * d_energy.astype(np.float32) < -thresholds[i]
            X[i] = np.where(flip, 1.0 - X[i], X[i])
            flips += int(flip.sum())
        accepted.append(flips)
    return X, accepted


def _assert_proper_colouring(w, bounds):
    n = len(w)
    assert bounds[0] == 0 and bounds[-1] == n
    assert np.all(np.diff(bounds) > 0)              # no empty class
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        assert not w[lo:hi, lo:hi].any()            # no coupling inside a class


def _assert_kernel_matches_reference(qubo, reads=16, sweeps=30, seed=0):
    h, w, bounds, betas, X0 = _kernel_inputs(qubo, reads, sweeps, seed)
    _assert_proper_colouring(w, bounds)
    X, F, accepted = _run_kernel(h, w, bounds, betas, X0, seed)
    X_ref, accepted_ref = _sequential_reference(h, w, betas, X0, seed)
    assert np.array_equal(X, X_ref)
    assert accepted.tolist() == accepted_ref
    assert np.array_equal(F, h[:, None] + w @ X_ref)   # exact on integers
    return bounds


@given(integer_qubos(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_anneal_kernel_matches_sequential_reference(qubo, seed):
    _assert_kernel_matches_reference(qubo, seed=seed)


@pytest.mark.parametrize("name, qubo, classes", [
    ("one variable", QuboModel.from_terms(1, {(0, 0): -3.0}), 1),
    ("no couplings", QuboModel.from_terms(5, {(i, i): (-1.0) ** i * i for i in range(5)}), 1),
    ("complete graph",
     QuboModel.from_terms(6, {(i, j): float((i + 2 * j) % 7 - 3) or 1.0
                              for i in range(6) for j in range(i, 6)}), 6),
])
def test_anneal_kernel_edge_cases(name, qubo, classes):
    bounds = _assert_kernel_matches_reference(qubo, sweeps=50, seed=5)
    assert len(bounds) - 1 == classes


@given(integer_qubos(max_vars=14))
@settings(max_examples=100, deadline=None)
def test_colour_classes_are_proper_and_permute_all_variables(qubo):
    _, w = qubo.fields()
    order, bounds = _colour_classes(w)
    assert sorted(order.tolist()) == list(range(qubo.num_vars))
    _assert_proper_colouring(w[np.ix_(order, order)], bounds)
    assert len(bounds) - 1 <= np.count_nonzero(w, axis=1).max() + 1   # greedy bound


@pytest.mark.parametrize("seed", range(4))
def test_anneal_fields_do_not_drift_on_fractional_coefficients(seed):
    rng = np.random.default_rng(seed)
    n, reads, sweeps = 12, 64, 300
    terms = {(i, j): rng.uniform(-10.0, 10.0)
             for i in range(n) for j in range(i, n) if i == j or rng.random() < 0.5}
    qubo = QuboModel.from_terms(n, terms)
    h, w, bounds, betas, X0 = _kernel_inputs(qubo, reads, sweeps, seed)
    X, F, accepted = _run_kernel(h, w, bounds, betas, X0, seed)
    # Rounding bound, fixed from float32's unit roundoff u = eps / 2 and the
    # largest field magnitude M: the float32 inputs and the initial product
    # are off by at most (n + 1) u M, and each sweep adds to each field at
    # most one update per class, a sum of |C| products plus one addition, so
    # at most (n + classes) u M per sweep; classes <= n
    u = np.finfo(np.float32).eps / 2
    M = float(np.max(np.abs(h) + np.abs(w).sum(axis=1)))
    tol = u * M * (n + 1) * (1 + 2 * sweeps)
    assert accepted.sum() > 0
    assert np.max(np.abs(F - (h[:, None] + w @ X.astype(np.float64)))) <= tol


@pytest.mark.parametrize("seed", range(8))
def test_sa_finds_brute_force_minimum_on_small_qubos(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(3, 11))
    terms = {(i, j): float(rng.integers(-9, 10))
             for i in range(n) for j in range(i, n) if i == j or rng.random() < 0.5}
    qubo = QuboModel.from_terms(n, terms)
    ss = simulated_annealing(qubo, SaParams(num_reads=64, num_sweeps=200, seed=seed))
    assert ss.best().energy == brute_force(qubo).best().energy
    assert ss.num_reads == 64


def _reference_log_thresholds(rng, out):
    """The thresholds by ``Generator.random``, which ``_log_thresholds`` must reproduce."""
    rng.random(out=out, dtype=np.float32)
    np.subtract(1.0, out, out=out)
    np.log(out, out=out)


def _reference_anneal(w, bounds, betas, X, F, rng):
    """The class kernel in its plain form: 0/1 states, ``s`` rebuilt per
    class, neighbour rows updated by fancy index, every sweep run."""
    thresholds = np.empty_like(X)
    classes = []
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        nbr = np.flatnonzero(w[:, lo:hi].any(axis=1))
        classes.append((slice(lo, hi), nbr, w[nbr, lo:hi],
                        np.empty_like(X[lo:hi]), np.empty(X[lo:hi].shape, dtype=bool)))
    accepted = np.zeros(len(betas), dtype=np.int64)
    for t, beta in enumerate(betas):
        _reference_log_thresholds(rng, thresholds)
        total = 0
        for c, nbr, block, s, flip in classes:
            np.multiply(X[c], 2.0, out=s)
            s -= 1.0
            np.less(thresholds[c], beta * (s * F[c]), out=flip)
            flips = np.count_nonzero(flip)
            if flips:
                s *= flip
                X[c] -= s
                F[nbr] -= block @ s
                total += flips
        accepted[t] = total
    return accepted


def _float_qubo(n, density, seed):
    """A random QUBO with non-integer coefficients, whose float32 sums round."""
    rng = np.random.default_rng(seed)
    terms = {(i, i): rng.uniform(-10.0, 10.0) for i in range(n)}
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < density:
            terms[i, j] = rng.uniform(-10.0, 10.0)
    return QuboModel.from_terms(n, terms)


float_qubos = st.builds(_float_qubo, st.integers(1, 12), st.sampled_from((0.1, 0.4, 0.7, 1.0)),
                        st.integers(0, 2 ** 32 - 1))


def _schedule(qubo, sweeps, cold=1.0):
    """The default float32 schedule, with ``beta_cold`` scaled by ``cold``."""
    hot, cold_beta = derived_beta_schedule(qubo)
    return np.geomspace(hot, cold * cold_beta, num=sweeps).astype(np.float32)


def _both_kernels(qubo, reads, betas, seed):
    """The kernel and the reference from one start, as ``simulated_annealing``
    sets it up: the start draw and the thresholds share one generator, so an
    odd ``n * reads`` starts the sweeps with a buffered half."""
    h, w = qubo.fields()
    order, bounds = _colour_classes(w)
    h = h[order].astype(np.float32)
    w = w[np.ix_(order, order)].astype(np.float32)
    runs = []
    for kernel in (_anneal, _reference_anneal):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 2, size=(qubo.num_vars, reads)).astype(np.float32)
        F = h[:, None] + w @ X
        runs.append((X, F, kernel(w, bounds, betas, X, F, rng)))
    return runs


def _assert_same_runs(runs):
    (X, F, accepted), (X_ref, F_ref, accepted_ref) = runs
    assert X.tobytes() == X_ref.tobytes()
    assert np.array_equal(F, F_ref)
    assert accepted.tolist() == accepted_ref.tolist()


@given(float_qubos, st.integers(1, 40), st.integers(1, 60),
       st.sampled_from((1.0, 30.0)), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
@example(QuboModel.from_terms(1, {(0, 0): -0.3}), 1, 5, 1.0, 0)
@example(QuboModel.from_terms(3, {(0, 0): 0.7, (0, 1): -1.1, (1, 2): 2.3}), 5, 9, 1.0, 1)
# one read makes the field update a matrix-vector product; a full-height one
# rounded a row of this QUBO differently from the neighbour-rows product
@example(_float_qubo(12, 0.1, 15), 1, 1, 1.0, 0)
def test_anneal_kernel_matches_the_reference_bit_for_bit(qubo, reads, sweeps, cold, seed):
    _assert_same_runs(_both_kernels(qubo, reads, _schedule(qubo, sweeps, cold), seed))


def _counting_thresholds(monkeypatch):
    calls = []

    def counting(rng, out):
        calls.append(out.size)
        _log_thresholds(rng, out)

    monkeypatch.setattr(solvers, "_log_thresholds", counting)
    return calls


# no local field of this QUBO is below 0.049 in size, so near beta_cold x 100
# every read sits in a local minimum that no threshold can leave
_FREEZING = QuboModel.from_terms(4, {(0, 0): -0.7, (1, 1): 1.3, (2, 2): -0.45,
                                     (3, 3): 0.6, (0, 1): 0.35, (1, 2): -1.6,
                                     (2, 3): 2.1})


def test_anneal_stops_once_frozen_and_matches_the_full_run(monkeypatch):
    calls = _counting_thresholds(monkeypatch)
    runs = _both_kernels(_FREEZING, reads=33, betas=_schedule(_FREEZING, 300, 100.0), seed=3)
    assert 0 < len(calls) < 300
    assert len(calls) % solvers._FROZEN_EVERY == 0
    assert runs[0][2][len(calls):].sum() == 0
    _assert_same_runs(runs)


def test_anneal_does_not_stop_before_a_hotter_sweep(monkeypatch):
    # frozen at the end of the first cold run, then heated again
    betas = _schedule(_FREEZING, 300, 100.0)
    calls = _counting_thresholds(monkeypatch)
    runs = _both_kernels(_FREEZING, reads=33, betas=np.concatenate((betas, betas)), seed=3)
    assert 300 < len(calls) < 600
    assert runs[0][2][300:].sum() > 0
    _assert_same_runs(runs)


def test_sa_stops_early_on_ds_with_the_full_runs_samples(ds_reform, monkeypatch):
    params = SaParams(seed=1)
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_anneal", _reference_anneal)
        full = simulated_annealing(ds_reform.qubo, params)
    calls = _counting_thresholds(monkeypatch)
    early = simulated_annealing(ds_reform.qubo, params)
    assert len(calls) < params.num_sweeps
    assert early.records == full.records
    assert early.metadata == full.metadata


@given(st.integers(0, 9), st.lists(st.integers(0, 9), max_size=5),
       st.lists(st.integers(1, 9), min_size=1, max_size=2), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
@example(3, [1, 4, 2], [3, 5], 0)
def test_log_thresholds_match_the_generators_float32_uniforms(start, sizes, shape, seed):
    """Consecutive calls of odd and even sizes, after a start draw that may
    leave a half buffered, give ``log(1 - random(dtype=float32))`` and leave
    the generator where ``random`` leaves its twin."""
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(rng.integers(0, 2, size=start), twin.integers(0, 2, size=start))
    for size in sizes + [tuple(shape)]:
        out = np.empty(size, dtype=np.float32)
        _log_thresholds(rng, out)
        expected = np.log(1 - twin.random(size, dtype=np.float32))
        assert out.tobytes() == expected.tobytes()
        assert (rng.bit_generator.state["has_uint32"]
                == twin.bit_generator.state["has_uint32"])
    assert np.array_equal(rng.integers(0, 2 ** 32, size=3, dtype=np.uint32),
                          twin.integers(0, 2 ** 32, size=3, dtype=np.uint32))
    assert rng.random() == twin.random()


def test_log_thresholds_need_pcg64():
    rng = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(TypeError):
        _log_thresholds(rng, np.empty(4, dtype=np.float32))


def test_sa_refuses_a_call_too_large_to_hold():
    qubo = QuboModel.from_terms(53, {(i, i): 1.0 for i in range(53)})
    tracemalloc.start()
    try:
        for params in (SaParams(num_reads=solvers._SA_LIMIT // 53 + 1),
                       SaParams(num_reads=1, num_sweeps=solvers._SA_LIMIT)):
            with pytest.raises(ModelError, match="limit"):
                simulated_annealing(qubo, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_sa_limit_counts_variables_times_reads_plus_sweeps(monkeypatch):
    monkeypatch.setattr(solvers, "_SA_LIMIT", 2 * 5 + 2)
    qubo = _tiny_qubo()
    assert simulated_annealing(qubo, SaParams(num_reads=5, num_sweeps=2)).num_reads == 5
    for reads, sweeps in ((6, 2), (5, 3)):
        with pytest.raises(ModelError):
            simulated_annealing(qubo, SaParams(num_reads=reads, num_sweeps=sweeps))


# -- branch and bound ----------------------------------------------------------


def _knapsack_like():
    return BinaryProgram(
        var_names=("a", "b", "c", "d"),
        objective={"a": -5.0, "b": -4.0, "c": -3.0, "d": -6.0},
        constraints=(
            Constraint({"a": 2.0, "b": 3.0, "c": 1.0, "d": 4.0}, "<=", 6.0),
            Constraint({"a": 1.0, "c": 1.0}, ">=", 1.0),
        ),
    )


def test_bb_optimal_matches_oracle():
    prog = _knapsack_like()
    bb = branch_and_bound(prog, "optimal")
    oracle = brute_force(prog)
    assert bb.best().objective == oracle.best().objective
    assert bb.best().assignment == oracle.best().assignment
    assert bb.solver == "bb"


def test_bb_tie_breaks_lexicographically():
    prog = BinaryProgram(
        var_names=("a", "b"), objective={"a": 1.0, "b": 1.0},
        constraints=(Constraint({"a": 1.0, "b": 1.0}, "=", 1.0),))
    assert branch_and_bound(prog, "optimal").best().assignment == (0, 1)


def test_bb_enumerate_matches_oracle_everywhere():
    prog = _knapsack_like()
    enum = branch_and_bound(prog, "enumerate_all")
    oracle = brute_force(prog)
    assert [r.assignment for r in enum.records] == [r.assignment for r in oracle.records]
    assert [r.objective for r in enum.records] == [r.objective for r in oracle.records]
    assert enum.solver == "bb-enumerate"


def test_bb_enumerate_respects_projection():
    prog = BinaryProgram(
        var_names=("a", "b", "c"),
        objective={"a": 1.0, "b": 2.0, "c": 1.0},
        constraints=(Constraint({"a": 1.0, "b": 1.0}, ">=", 1.0),),
        projection=("a", "b"),
    )
    enum = branch_and_bound(prog, "enumerate_all")
    assert [(r.assignment, r.objective) for r in enum.records] == [
        ((1, 0, 0), 1.0),
        ((0, 1, 0), 2.0),
        ((1, 1, 0), 3.0),
    ]


def test_bb_pool_ranks_best_k():
    prog = _knapsack_like()
    pool = branch_and_bound(prog, "pool", pool_size=3)
    oracle = brute_force(prog)
    assert [r.objective for r in pool.records] == \
        [r.objective for r in oracle.records[:3]]
    assert pool.solver == "bb-pool"


def test_bb_pool_requires_size():
    with pytest.raises(ValueError):
        branch_and_bound(_knapsack_like(), "pool")
    with pytest.raises(ValueError):
        branch_and_bound(_knapsack_like(), "pool", pool_size=0)


def test_bb_unknown_mode():
    with pytest.raises(ValueError):
        branch_and_bound(_knapsack_like(), "everything")


def test_bb_infeasible_program():
    prog = BinaryProgram(
        var_names=("a",), objective={},
        constraints=(Constraint({"a": 1.0}, "=", 2.0),))
    ss = branch_and_bound(prog, "optimal")
    assert ss.status == "infeasible"
    assert branch_and_bound(prog, "enumerate_all").records == ()


def test_bb_handles_product_constraints():
    prog = BinaryProgram(
        var_names=("x", "y"),
        objective={"x": -1.0, "y": -1.0},
        constraints=(Constraint({}, "=", 0.0, products=(("x", "y", 1.0),)),),
    )
    enum = branch_and_bound(prog, "enumerate_all")
    assert {r.assignment for r in enum.records} == {(0, 0), (0, 1), (1, 0)}


@st.composite
def solvable_programs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    names = tuple(f"x{i}" for i in range(n))
    coeff = st.integers(min_value=-4, max_value=4)
    objective = {names[i]: float(draw(coeff)) for i in range(n)}
    witness = draw(st.tuples(*([st.integers(0, 1)] * n)))
    cons = []
    for ci in range(draw(st.integers(min_value=0, max_value=3))):
        if n >= 2 and draw(st.booleans()):
            u, v = draw(st.sampled_from(
                [(a, b) for a in range(n) for b in range(n) if a != b]))
            q = float(draw(st.integers(min_value=-2, max_value=2)) or 1)
            lin = {names[u]: float(draw(coeff))}
            lhs = lin[names[u]] * witness[u] + q * witness[u] * witness[v]
            cons.append(Constraint(lin, "=", lhs,
                                   products=((names[u], names[v], q),),
                                   label=f"c{ci}"))
        else:
            lin = {names[i]: float(draw(coeff)) for i in range(n)}
            lhs = sum(lin[names[i]] * witness[i] for i in range(n))
            sense = draw(st.sampled_from(("=", "<=", ">=")))
            slack = draw(st.integers(min_value=0, max_value=2))
            rhs = lhs if sense == "=" else (lhs + slack if sense == "<=" else lhs - slack)
            cons.append(Constraint(lin, sense, float(rhs), label=f"c{ci}"))
    projection = draw(st.lists(st.sampled_from(names), unique=True))
    obj_products = ()
    if n >= 2 and draw(st.booleans()):
        u, v = draw(st.sampled_from(
            [(a, b) for a in range(n) for b in range(a + 1, n)]))
        obj_products = ((names[u], names[v], float(draw(coeff))),)
    return BinaryProgram(var_names=names, objective=objective,
                         constraints=tuple(cons), objective_products=obj_products,
                         projection=tuple(projection))


def _cut_loop_reference(prog):
    """Enumerate by re-solving with one more canonical no-good cut each time.

    Each solve returns the optimum over the configurations not yet cut off
    (Balas & Jeroslow, SIAM J. Appl. Math. 23, 1972), so the records come out
    in (objective, assignment) order, one per projected configuration.
    """
    over = prog.projection or prog.var_names
    records = []
    current = prog
    while True:
        best = branch_and_bound(current, "optimal").best()
        if best is None:
            return records
        records.append(best)
        values = dict(zip(prog.var_names, best.assignment))
        current = current.with_constraints([no_good_cut(values, over)])


@given(solvable_programs(), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_brute_force_matches_float_matrix_reference(prog, chunk_bits):
    """As one chunk, and in chunks of 2^chunk_bits whose rows read low-bit
    tables."""
    _assert_matches_float_matrix_reference(prog)
    with mock.patch.object(solvers, "_CHUNK_BITS", chunk_bits):
        _assert_matches_float_matrix_reference(prog)


@given(solvable_programs())
@settings(max_examples=100, deadline=None)
def test_bb_agrees_with_oracle_on_random_programs(prog):
    oracle = brute_force(prog)
    bb = branch_and_bound(prog, "optimal")
    assert oracle.records, "witness keeps the program feasible"
    assert bb.best().objective == oracle.best().objective
    assert bb.best().assignment == oracle.best().assignment
    enum = branch_and_bound(prog, "enumerate_all")
    assert [r.assignment for r in enum.records] == \
        [r.assignment for r in oracle.records]


@given(solvable_programs())
@settings(max_examples=100, deadline=None)
def test_bb_exhaustive_modes_match_cut_loop_reference(prog):
    reference = [(r.assignment, r.objective) for r in _cut_loop_reference(prog)]
    enum = branch_and_bound(prog, "enumerate_all")
    pool = branch_and_bound(prog, "pool", pool_size=2 ** prog.num_vars)
    assert [(r.assignment, r.objective) for r in enum.records] == reference
    assert [(r.assignment, r.objective) for r in pool.records] == reference


@st.composite
def tenths_programs(draw):
    """Programs with coefficients in tenths, which binary floats cannot hold
    exactly, so sums of them depend on their order; the objective dict comes
    in shuffled order."""
    n = draw(st.integers(min_value=2, max_value=6))
    names = tuple(f"x{i}" for i in range(n))
    tenths = st.integers(min_value=-15, max_value=15).map(lambda k: k / 10)
    objective = dict(draw(st.permutations([(name, draw(tenths)) for name in names])))
    cover = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    cons = [Constraint({name: 1.0 for name in cover}, ">=", 1.0, label="cover")]
    if draw(st.booleans()):
        lin = {name: draw(tenths) for name in names}
        cons.append(Constraint(lin, "<=", sum(max(0.0, c) for c in lin.values()) / 2,
                               label="budget"))
    obj_products = ()
    if draw(st.booleans()):
        u, v = draw(st.permutations(names))[:2]
        obj_products = ((u, v, draw(tenths)),)
    projection = draw(st.lists(st.sampled_from(names), unique=True))
    return BinaryProgram(var_names=names, objective=objective, constraints=tuple(cons),
                         objective_products=obj_products, projection=tuple(projection))


@given(tenths_programs())
@settings(max_examples=200, deadline=None)
def test_bb_objectives_and_ties_are_the_oracles_exactly(prog):
    oracle = brute_force(prog)
    enum = branch_and_bound(prog, "enumerate_all")
    pool = branch_and_bound(prog, "pool", pool_size=2 ** prog.num_vars)
    assert enum.records == oracle.records
    assert pool.records == oracle.records
    best = branch_and_bound(prog, "optimal").best()
    if oracle.records:
        assert (best.assignment, best.objective) == \
            (oracle.best().assignment, oracle.best().objective)
    else:
        assert best is None


def test_bb_optimal_keeps_the_earlier_of_two_tied_optima():
    # the two optima, 0.1 each, must not lose the tie to rounding in the bound
    prog = BinaryProgram(
        var_names=("x0", "x1", "x2", "x3", "x4"),
        objective={"x0": 0.1, "x2": 0.5, "x1": 0.1, "x3": 1.1, "x4": 0.4},
        constraints=(Constraint({"x0": 1.0, "x1": 1.0}, ">=", 1.0),),
        projection=("x0",))
    assert brute_force(prog).best().assignment == (0, 1, 0, 0, 0)
    assert branch_and_bound(prog, "optimal").best().assignment == (0, 1, 0, 0, 0)


def test_bb_objectives_sum_in_the_oracles_order():
    prog = BinaryProgram(
        var_names=("x0", "x1", "x2", "x3"),
        objective={"x2": 0.6, "x0": 0.1, "x3": 1.1, "x1": 0.6},
        constraints=(Constraint({"x0": 1.0, "x1": 1.0}, ">=", 1.0),))
    enum = {r.assignment: r.objective for r in branch_and_bound(prog, "enumerate_all").records}
    assert enum[(1, 1, 0, 1)] == 1.8000000000000003
    assert enum == {r.assignment: r.objective for r in brute_force(prog).records}


def test_bb_search_depth_is_not_bounded_by_recursion():
    # one variable per level: far deeper than Python's default recursion limit
    names = tuple(f"x{i}" for i in range(2000))
    free = BinaryProgram(var_names=names, objective={name: -1.0 for name in names})
    pinned = free.with_constraints(
        Constraint({name: 1.0}, "=", 1.0, label=name) for name in names)
    runs = (branch_and_bound(free, "optimal"),
            branch_and_bound(pinned, "enumerate_all"),
            branch_and_bound(pinned, "pool", pool_size=1))
    for ss in runs:
        assert [(r.assignment, r.objective) for r in ss.records] == \
            [((1,) * len(names), -2000.0)]


def test_bb_modes_agree_on_zero_variable_program():
    prog = BinaryProgram(var_names=(), objective={}, objective_constant=2.5)
    for mode in ("optimal", "enumerate_all", "pool"):
        ss = branch_and_bound(prog, mode, pool_size=1)
        assert [(r.assignment, r.objective) for r in ss.records] == [((), 2.5)]
