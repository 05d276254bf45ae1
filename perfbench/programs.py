"""Seeded random binary programs with a planted feasible witness.

The shape follows the penalty property suite of the acceptance tests: small
integer coefficients, mixed senses, right-hand sides set from a random
witness so that it is always feasible, and bilinear product terms in some
rows and in the objective.  Each program has 10 to 16 variables and a
projection onto a seeded subset of them, like the bundled cases.

Rows are added one at a time until at most ``MAX_CONFIGS`` projected
configurations stay feasible.  The cost of branch and bound varies several
hundred-fold between programs of one size, so a program is drawn again
unless

* it keeps at least ``MIN_CONFIGS`` configurations (enumeration by no-good
  cuts re-solves once per configuration),
* it needs at most ``MAX_ROWS`` rows (the memory of the exhaustive scans
  grows with the row count), and
* its search tree, the nodes a depth-first search with interval bounds and
  no objective pruning visits, lies within ``TREE_NODES``.  Over 50 random
  programs of 12 to 16 variables this count and the time of
  ``enumerate_all`` had a correlation of 0.94.

Within these bounds a batch of ``PER_SIZE`` programs of each size costs
nearly the same for every seed.  The feasible sets are counted with the
benchmark's own evaluator, which is also the reference for the checks.
"""

from __future__ import annotations

import numpy as np

from check import Program, cube, satisfies

MIN_VARS, MAX_VARS = 10, 16
MIN_CONFIGS, MAX_CONFIGS = 8, 12
MAX_ROWS = 12
TREE_NODES = (150, 600)
PER_SIZE = 16
PRODUCT_ROW_SHARE = 0.3


COEFFS = (-5.0, -4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0, 5.0)


def _coeff(rng) -> float:
    return COEFFS[int(rng.integers(0, len(COEFFS)))]


def _row(rng, n, witness):
    """One ``(linear, products, sense, rhs)`` row the witness satisfies."""
    picked = sorted(rng.choice(n, size=int(rng.integers(2, 5)), replace=False))
    linear = [(int(i), _coeff(rng)) for i in picked]
    products = []
    if rng.random() < PRODUCT_ROW_SHARE:
        u, v = sorted(rng.choice(n, size=2, replace=False))
        products.append((int(u), int(v), _coeff(rng)))
    lhs = sum(c * witness[i] for i, c in linear)
    lhs += sum(q * witness[u] * witness[v] for u, v, q in products)
    sense = ("<=", ">=", "=")[int(rng.integers(0, 3))]
    margin = int(rng.integers(0, 3))
    rhs = lhs + margin if sense == "<=" else lhs - margin if sense == ">=" else lhs
    return linear, products, sense, float(rhs)


def tree_nodes(n: int, rows) -> int:
    """Nodes of a depth-first search that fixes variables in order, tries
    both values, and abandons a partial assignment once some row's
    [lo, hi] range over all completions misses its right-hand side."""
    A = np.zeros((n, len(rows)))  # linear coefficients, one column per row
    for r, (lin, _, _, _) in enumerate(rows):
        for i, c in lin:
            A[i, r] = c
    # bounds of the linear terms of variables k..n-1, for each k
    rest_lo = np.vstack([np.cumsum(np.minimum(A, 0.0)[::-1], axis=0)[::-1], np.zeros(len(rows))])
    rest_hi = np.vstack([np.cumsum(np.maximum(A, 0.0)[::-1], axis=0)[::-1], np.zeros(len(rows))])
    rhs = np.array([row[3] for row in rows])
    upper = np.array([row[2] != ">=" for row in rows])
    lower = np.array([row[2] != "<=" for row in rows])
    nodes = 0
    alive = np.zeros((1, 0), dtype=np.int8)
    for k in range(1, n + 1):
        X = np.concatenate([np.repeat(alive, 2, axis=0),
                            np.tile(np.array([[1], [0]], dtype=np.int8), (len(alive), 1))],
                           axis=1)
        nodes += len(X)
        fixed = X @ A[:k]
        lo = fixed + rest_lo[k]
        hi = fixed + rest_hi[k]
        for r, (_, prod, _, _) in enumerate(rows):
            for u, v, q in prod:
                on = np.ones(len(X))
                if u < k:
                    on *= X[:, u]
                if v < k:
                    on *= X[:, v]
                if u < k and v < k:
                    lo[:, r] += q * on
                    hi[:, r] += q * on
                else:
                    lo[:, r] += min(0.0, q) * on
                    hi[:, r] += max(0.0, q) * on
        ok = ~((upper & (lo > rhs + 1e-9)) | (lower & (hi < rhs - 1e-9))).any(axis=1)
        alive = X[ok]
    return nodes


def random_program(rng, n: int, fq):
    """One program on ``n`` variables; returns (program, witness, reference set)."""
    names = tuple(f"x{i}" for i in range(n))
    X = cube(n)
    while True:
        witness = tuple(int(b) for b in rng.integers(0, 2, size=n))
        size = int(rng.integers(n // 2 + 1, n - 1))
        proj = sorted(int(i) for i in rng.choice(n, size=size, replace=False))
        proj_codes = X[:, proj].astype(np.float64) @ (2.0 ** np.arange(size))
        rows, left, codes = [], X, proj_codes.astype(np.int64)  # still feasible
        while len(rows) < MAX_ROWS:
            rows.append(_row(rng, n, witness))
            keep = satisfies(left, rows[-1:])
            left, codes = left[keep], codes[keep]
            configs = np.count_nonzero(np.bincount(codes))
            if configs <= MAX_CONFIGS:
                break
        objective = {names[i]: _coeff(rng) for i in range(n) if rng.random() < 0.75}
        obj_products = ()
        if rng.random() < 0.5:
            u, v = sorted(rng.choice(n, size=2, replace=False))
            obj_products = ((names[u], names[v], _coeff(rng)),)
        if not MIN_CONFIGS <= configs <= MAX_CONFIGS:
            continue
        if not TREE_NODES[0] <= tree_nodes(n, rows) <= TREE_NODES[1]:
            continue
        constraints = tuple(
            fq.ip.Constraint({names[i]: c for i, c in lin}, sense, rhs,
                             products=tuple((names[u], names[v], q) for u, v, q in prod),
                             label=f"c{k}")
            for k, (lin, prod, sense, rhs) in enumerate(rows))
        program = fq.ip.BinaryProgram(
            var_names=names, objective=objective, constraints=constraints,
            objective_products=obj_products, projection=tuple(names[i] for i in proj))
        return program, witness, Program(program).feasible_set()


def program_batch(seed: int, fq):
    """``PER_SIZE`` programs of each size from ``MIN_VARS`` to ``MAX_VARS``."""
    rng = np.random.default_rng([seed, 0x5EED])
    return [random_program(rng, n, fq)
            for n in range(MIN_VARS, MAX_VARS + 1) for _ in range(PER_SIZE)]
