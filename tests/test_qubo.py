import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowqubo import (
    DimensionError,
    IsingModel,
    ModelError,
    QuboModel,
    ising_to_qubo,
    qubo_to_ising,
)


def test_energy_two_var_frozen():
    # E(x) = x0 - 2 x0 x1 + x1, zero at (0,0) and (1,1)
    q = QuboModel.from_terms(2, {(0, 0): 1.0, (0, 1): -2.0, (1, 1): 1.0})
    assert q.energy((0, 0)) == 0.0
    assert q.energy((1, 0)) == 1.0
    assert q.energy((0, 1)) == 1.0
    assert q.energy((1, 1)) == 0.0


def test_from_dense_folds_lower_triangle():
    q = QuboModel.from_dense([[1.0, -2.0], [0.0, 1.0]])
    assert q.energy((1, 1)) == 0.0
    mirrored = QuboModel.from_dense([[1.0, -1.0], [-1.0, 1.0]])
    assert mirrored.terms[(0, 1)] == -2.0
    assert mirrored.energy((1, 1)) == 0.0


def test_terms_fold_to_upper_triangle():
    q = QuboModel.from_terms(3, {(2, 0): 5.0, (0, 2): 1.0, (1, 1): -1.0})
    assert q.terms == {(0, 2): 6.0, (1, 1): -1.0}


def test_offset_shifts_every_energy():
    q = QuboModel.from_terms(1, {(0, 0): 2.0}, offset=-3.5)
    assert q.energy((0,)) == -3.5
    assert q.energy((1,)) == -1.5


def test_energies_matches_energy():
    rng = np.random.default_rng(11)
    n = 6
    terms = {(i, j): float(rng.normal()) for i in range(n) for j in range(i, n)}
    q = QuboModel.from_terms(n, terms, offset=0.25)
    states = np.array(list(itertools.product((0, 1), repeat=n)), dtype=float)
    batch = q.energies(states)
    for row, e in zip(states, batch):
        assert math.isclose(q.energy(tuple(int(b) for b in row)), e,
                            rel_tol=0.0, abs_tol=1e-9)


def test_fields_reconstruct_energy():
    q = QuboModel.from_terms(3, {(0, 0): 1.5, (0, 2): -2.0, (1, 2): 0.5}, offset=1.0)
    h, w = q.fields()
    assert np.allclose(w, w.T)
    assert np.diagonal(w).sum() == 0.0
    for bits in itertools.product((0, 1), repeat=3):
        x = np.asarray(bits, dtype=float)
        assert math.isclose(q.energy(bits), h @ x + 0.5 * x @ w @ x + q.offset,
                            abs_tol=1e-12)


def test_dense_round_trip():
    q = QuboModel.from_terms(3, {(0, 1): -4.0, (2, 2): 2.0}, offset=0.5)
    d = q.dense()
    assert d.shape == (3, 3)
    assert np.triu(d).tolist() == d.tolist()
    again = QuboModel.from_dense(d, offset=q.offset)
    assert again.terms == q.terms


def test_energy_rejects_wrong_length():
    q = QuboModel.from_terms(2, {(0, 1): 1.0})
    with pytest.raises(DimensionError):
        q.energy((0, 1, 1))


def test_invalid_indices_rejected():
    with pytest.raises(ModelError):
        QuboModel.from_terms(2, {(0, 2): 1.0})
    # the raw constructor insists on canonical keys, from_terms folds them
    with pytest.raises(ModelError):
        QuboModel(2, {(1, 0): 1.0})
    assert QuboModel.from_terms(2, {(1, 0): 1.0}).terms == {(0, 1): 1.0}


def test_json_round_trip_includes_var_names_key(tmp_path):
    q = QuboModel.from_terms(2, {(0, 1): -1.0}, offset=2.0, var_names=("a", "b"))
    payload = q.to_json_dict()
    assert payload["var_names"] == ["a", "b"]
    bare = QuboModel.from_terms(1, {(0, 0): 1.0})
    assert "var_names" in bare.to_json_dict()
    assert bare.to_json_dict()["var_names"] is None

    path = tmp_path / "q.json"
    q.save(path)
    with open(path) as fh:
        raw = json.load(fh)
    assert set(raw) == {"num_vars", "terms", "offset", "var_names"}
    again = QuboModel.load(path)
    assert again == q


def test_qubo_loader_rejects_non_numbers():
    # num_vars 2.7, index 1.9 and the string "2.5" once loaded as 2, 1 and 2.5
    with pytest.raises(ModelError, match="malformed QUBO JSON"):
        QuboModel.from_json_dict({"num_vars": 2.7, "terms": [[1.9, 1, "2.5"], [0, 0, True]]})


@pytest.mark.parametrize("path, value", [
    (("num_vars",), 2.0), (("num_vars",), True), (("num_vars",), "2"),
    (("terms", 0, 0), 0.0), (("terms", 0, 1), False), (("terms", 0, 1), "1"),
    (("terms", 1, 2), True), (("terms", 1, 2), "2.5"), (("terms", 1, 2), float("nan")),
    (("terms", 1, 2), 10 ** 400), (("offset",), "0.5"), (("offset",), False),
    (("offset",), float("inf")),
])
def test_qubo_loader_takes_json_numbers_only(path, value):
    doc = {"num_vars": 2, "terms": [[0, 1, -1.0], [1, 1, 2]], "offset": 0.5}
    assert QuboModel.from_json_dict(doc) == QuboModel.from_terms(
        2, {(0, 1): -1.0, (1, 1): 2.0}, 0.5)
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    with pytest.raises(ModelError, match="malformed QUBO JSON"):
        QuboModel.from_json_dict(doc)


def test_ising_transform_frozen_example():
    q = QuboModel.from_terms(2, {(0, 0): 1.0, (0, 1): -2.0, (1, 1): 1.0})
    ising = qubo_to_ising(q)
    # diagonal terms add h = q/2, the product adds q/4 to both ends
    assert ising.couplings == {(0, 1): -0.5}
    assert ising.h == {}
    assert ising.offset == 0.5
    for bits in itertools.product((0, 1), repeat=2):
        spins = tuple(2 * b - 1 for b in bits)
        assert math.isclose(q.energy(bits), ising.energy(spins), abs_tol=1e-12)


@st.composite
def qubo_models(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    coeff = st.integers(min_value=-8, max_value=8).map(lambda v: v / 2.0)
    terms = {}
    for i in range(n):
        for j in range(i, n):
            value = draw(coeff)
            if value:
                terms[(i, j)] = value
    offset = draw(coeff)
    return QuboModel.from_terms(n, terms, offset=offset)


@given(qubo_models())
@settings(max_examples=80, deadline=None)
def test_ising_round_trip_preserves_energies(q):
    back = ising_to_qubo(qubo_to_ising(q))
    assert back.num_vars == q.num_vars
    for bits in itertools.product((0, 1), repeat=q.num_vars):
        assert math.isclose(q.energy(bits), back.energy(bits), abs_tol=1e-9)


@given(qubo_models())
@settings(max_examples=60, deadline=None)
def test_spin_identity_holds_everywhere(q):
    ising = qubo_to_ising(q)
    for bits in itertools.product((0, 1), repeat=q.num_vars):
        spins = tuple(2 * b - 1 for b in bits)
        assert math.isclose(q.energy(bits), ising.energy(spins), abs_tol=1e-9)


def test_ising_energy_validates_spins():
    ising = IsingModel(2, {0: 1.0}, {(0, 1): 0.5})
    with pytest.raises(ModelError):
        ising.energy((0, 1))
    with pytest.raises(DimensionError):
        ising.energy((1,))
