"""Quadratic unconstrained binary models and their spin-variable twins.

A :class:`QuboModel` stores ``E(x) = sum_{i<=j} Q[i,j] x_i x_j + offset`` over
``x in {0,1}^n`` with coefficients kept sparse and upper-triangular.  Because
``x_i^2 = x_i``, diagonal entries act as linear terms.  :class:`IsingModel`
is the equivalent formulation over spins ``s in {-1,+1}^n``; the two are
linked by the substitution ``s_i = 2 x_i - 1``, and :func:`qubo_to_ising` /
:func:`ising_to_qubo` convert back and forth without changing the energy of
any state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    JSON_SHAPE_ERRORS,
    DimensionError,
    ModelError,
    json_float,
    json_int,
    json_list,
    json_names,
    read_json,
    write_json,
)

__all__ = ["QuboModel", "IsingModel", "qubo_to_ising", "ising_to_qubo"]


def _fold_terms(num_vars: int, terms: Mapping[tuple[int, int], float]) -> dict[tuple[int, int], float]:
    """Canonicalize a coefficient map: indices validated, (i, j) with i <= j,
    symmetric duplicates summed, exact zeros dropped."""
    folded: dict[tuple[int, int], float] = {}
    for (i, j), value in terms.items():
        if not (0 <= i < num_vars and 0 <= j < num_vars):
            raise ModelError(f"term index ({i}, {j}) out of range for {num_vars} variables")
        value = float(value)
        if not math.isfinite(value):
            raise ModelError(f"non-finite coefficient at ({i}, {j})")
        key = (i, j) if i <= j else (j, i)
        folded[key] = folded.get(key, 0.0) + value
    return {k: v for k, v in sorted(folded.items()) if v != 0.0}


@dataclass(frozen=True)
class QuboModel:
    """Immutable sparse QUBO.

    ``terms`` maps ``(i, j)`` with ``i <= j`` to a coefficient; ``(i, i)``
    entries are the linear part.  Build instances through
    :meth:`from_terms` or :meth:`from_dense`, which canonicalize input.
    """

    num_vars: int
    terms: Mapping[tuple[int, int], float]
    offset: float = 0.0
    var_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.num_vars < 0:
            raise ModelError("num_vars must be non-negative")
        if not math.isfinite(self.offset):
            raise ModelError("offset must be finite")
        for (i, j), v in self.terms.items():
            if not (0 <= i <= j < self.num_vars):
                raise ModelError(f"non-canonical or out-of-range term ({i}, {j})")
            if not math.isfinite(v):
                raise ModelError(f"non-finite coefficient at ({i}, {j})")
        if self.var_names is not None and len(self.var_names) != self.num_vars:
            raise DimensionError("var_names length does not match num_vars")

    @classmethod
    def from_terms(
        cls,
        num_vars: int,
        terms: Mapping[tuple[int, int], float],
        offset: float = 0.0,
        var_names: Sequence[str] | None = None,
    ) -> "QuboModel":
        names = tuple(var_names) if var_names is not None else None
        return cls(num_vars, _fold_terms(num_vars, terms), float(offset), names)

    @classmethod
    def from_dense(
        cls,
        matrix: np.ndarray,
        offset: float = 0.0,
        var_names: Sequence[str] | None = None,
    ) -> "QuboModel":
        """Build from a full matrix; ``q_ij`` and ``q_ji`` fold into one term."""
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError("matrix must be square")
        n = m.shape[0]
        terms = {(i, j): m[i, j] for i in range(n) for j in range(n) if m[i, j] != 0.0}
        return cls.from_terms(n, terms, offset, var_names)

    # -- evaluation ---------------------------------------------------------

    def energy(self, assignment: Sequence[int]) -> float:
        if len(assignment) != self.num_vars:
            raise DimensionError(
                f"assignment has {len(assignment)} entries, model has {self.num_vars}")
        total = self.offset
        for (i, j), q in self.terms.items():
            if assignment[i] and assignment[j]:
                total += q
        return total

    def energies(self, states: np.ndarray) -> np.ndarray:
        """Vectorized energies for a ``(m, num_vars)`` 0/1 array."""
        x = np.asarray(states, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.num_vars:
            raise DimensionError("states must be (m, num_vars)")
        upper = self.dense()
        return np.einsum("ij,jk,ik->i", x, upper, x) + self.offset

    def dense(self) -> np.ndarray:
        """Upper-triangular dense coefficient matrix (diagonal included)."""
        q = np.zeros((self.num_vars, self.num_vars))
        for (i, j), v in self.terms.items():
            q[i, j] = v
        return q

    def fields(self) -> tuple[np.ndarray, np.ndarray]:
        """Split into (linear vector h, symmetric off-diagonal matrix W).

        ``E(x) = h . x + 0.5 * x^T W x + offset`` with ``W`` zero-diagonal;
        this is the natural shape for single-flip samplers.
        """
        upper = self.dense()
        w = upper + upper.T
        np.fill_diagonal(w, 0.0)
        return np.diag(upper).copy(), w

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "num_vars": self.num_vars,
            "terms": [[i, j, v] for (i, j), v in sorted(self.terms.items())],
            "offset": self.offset,
            "var_names": list(self.var_names) if self.var_names is not None else None,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "QuboModel":
        try:
            num_vars = json_int(data["num_vars"])
            terms = {(json_int(i), json_int(j)): json_float(v)
                     for i, j, v in map(json_list, json_list(data["terms"]))}
            offset = json_float(data.get("offset", 0.0))
            names = data.get("var_names")
            if names is not None:
                names = json_names(names)
        except JSON_SHAPE_ERRORS as exc:
            raise ModelError(f"malformed QUBO JSON: {exc}") from exc
        return cls.from_terms(num_vars, terms, offset, names)

    def save(self, path) -> None:
        write_json(path, self.to_json_dict())

    @classmethod
    def load(cls, path) -> "QuboModel":
        return cls.from_json_dict(read_json(path, ModelError))


@dataclass(frozen=True)
class IsingModel:
    """Spin model ``H(s) = sum h_i s_i + sum_{i<j} J_ij s_i s_j + offset``."""

    num_spins: int
    h: Mapping[int, float]
    couplings: Mapping[tuple[int, int], float]
    offset: float = 0.0

    def __post_init__(self) -> None:
        for i in self.h:
            if not 0 <= i < self.num_spins:
                raise ModelError(f"field index {i} out of range")
        for (i, j) in self.couplings:
            if not (0 <= i < j < self.num_spins):
                raise ModelError(f"coupling ({i}, {j}) must satisfy 0 <= i < j < n")

    def energy(self, spins: Sequence[int]) -> float:
        if len(spins) != self.num_spins:
            raise DimensionError(
                f"spin vector has {len(spins)} entries, model has {self.num_spins}")
        for s in spins:
            if s not in (-1, 1):
                raise ModelError("spins must be -1 or +1")
        total = self.offset
        for i, hi in self.h.items():
            total += hi * spins[i]
        for (i, j), jij in self.couplings.items():
            total += jij * spins[i] * spins[j]
        return total


def qubo_to_ising(model: QuboModel) -> IsingModel:
    """Rewrite binary variables as spins via ``x_i = (s_i + 1) / 2``."""
    h: dict[int, float] = {}
    couplings: dict[tuple[int, int], float] = {}
    offset = model.offset
    for (i, j), q in model.terms.items():
        if i == j:
            h[i] = h.get(i, 0.0) + q / 2.0
            offset += q / 2.0
        else:
            couplings[(i, j)] = couplings.get((i, j), 0.0) + q / 4.0
            h[i] = h.get(i, 0.0) + q / 4.0
            h[j] = h.get(j, 0.0) + q / 4.0
            offset += q / 4.0
    h = {i: v for i, v in sorted(h.items()) if v != 0.0}
    couplings = {k: v for k, v in sorted(couplings.items()) if v != 0.0}
    return IsingModel(model.num_vars, h, couplings, offset)


def ising_to_qubo(model: IsingModel) -> QuboModel:
    """Inverse transform, ``s_i = 2 x_i - 1``."""
    terms: dict[tuple[int, int], float] = {}
    offset = model.offset
    for i, hi in model.h.items():
        terms[(i, i)] = terms.get((i, i), 0.0) + 2.0 * hi
        offset -= hi
    for (i, j), jij in model.couplings.items():
        terms[(i, j)] = terms.get((i, j), 0.0) + 4.0 * jij
        terms[(i, i)] = terms.get((i, i), 0.0) - 2.0 * jij
        terms[(j, j)] = terms.get((j, j), 0.0) - 2.0 * jij
        offset += jij
    return QuboModel.from_terms(model.num_spins, terms, offset)
