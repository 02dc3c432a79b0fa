"""Independent brute-force oracles.

These deliberately avoid the fast paths they are used to check: the urn
oracle enumerates every ordered draw, and the LP oracle enumerates candidate
vertices and extreme rays instead of pivoting.  They are shipped (behind the
CLI ``--brute-force`` flag) so the cross-checks used during development stay
available to users; the test suite drives them as well.

Exact throughout; intended for small instances only.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional, Sequence

from .caps import ensure_within_cap
from .errors import InputError
from .measures import ExchangeableLaw
from .ratlp import LinearProgram, LpStatus, _extended_rows, _max_objective
from .typespace import Alphabet, TypeVector, _require_int, type_of

# -- exact dense linear algebra -------------------------------------------------


def _rref(
    rows: list[list[Fraction]], ncols: int, need: int
) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the first ``ncols`` columns, by exact
    Gauss-Jordan elimination; later columns are carried along.

    Returns the reduced rows, pivot rows first and in pivot order, and the
    pivot columns.  The elimination stops early, with fewer than ``need``
    pivots, once the columns left can no longer bring the rank up to
    ``need``; callers that need no rank pass 0.
    """
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(rows) or rank + ncols - col < need:
            break
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
    return rows, pivots


def solve_square(matrix: list[list[Fraction]], rhs: list[Fraction]) -> Optional[list[Fraction]]:
    """Solve ``A x = b`` for square A; None when singular or inconsistent."""
    n = len(matrix)
    rows, pivots = _rref([list(row) + [b] for row, b in zip(matrix, rhs)], n, n)
    if len(pivots) < n:
        return None
    return [row[-1] for row in rows]


def matrix_rank(matrix: list[list[Fraction]]) -> int:
    """Rank by exact Gaussian elimination."""
    if not matrix:
        return 0
    return len(_rref(matrix, len(matrix[0]), 0)[1])


def null_space_generator(matrix: list[list[Fraction]], dim: int) -> Optional[list[Fraction]]:
    """A nonzero generator of the null space when it is one-dimensional."""
    if matrix and len(matrix[0]) != dim:
        raise InputError("null_space_generator: inconsistent dimension")
    rows, pivots = _rref(matrix, dim, dim - 1)
    if dim - len(pivots) != 1:
        return None
    free_col = next(c for c in range(dim) if c not in pivots)
    vec = [Fraction(0)] * dim
    vec[free_col] = Fraction(1)
    for row, pc in zip(rows, pivots):
        vec[pc] = -row[free_col]
    return vec


# -- urn draw enumeration --------------------------------------------------------


def urn_law_by_enumeration(
    nu: TypeVector, n: int, alphabet: Alphabet | None = None
) -> ExchangeableLaw:
    """Type law of ``n`` ordered draws, by enumerating all of them.

    Lays out the urn as labelled balls and walks every injection, so each of
    the ``(N)_n`` ordered draws is counted once.
    """
    if not 1 <= _require_int(n, "urn_law_by_enumeration: n") <= nu.mass:
        raise InputError(f"urn oracle: need 1 <= n <= {nu.mass}, got {n}")
    ensure_within_cap(math.perm(nu.mass, n), "ordered urn draws")
    if alphabet is None:
        alphabet = Alphabet.of_size(nu.width)
    balls: list[int] = []
    for idx, count in enumerate(nu.counts):
        balls.extend([idx] * count)
    counts: dict[TypeVector, int] = {}
    total = 0
    for draw in itertools.permutations(balls, n):
        tv = type_of(draw, alphabet)
        counts[tv] = counts.get(tv, 0) + 1
        total += 1
    weights = {tv: Fraction(c, total) for tv, c in counts.items()}
    return ExchangeableLaw(alphabet, n, weights)


# -- LP by vertex and ray enumeration ---------------------------------------------


def _lift(lp: LinearProgram):
    """Rewrite with all variables >= 0 (split the free ones); returns the
    lifted rows, objective (max form), and the column -> (var, sign) map."""
    ext = _extended_rows(lp)
    cmax = _max_objective(lp)
    cols: list[tuple[int, int]] = []
    for j in range(lp.num_vars):
        cols.append((j, 1))
        if lp.lower[j] is None:
            cols.append((j, -1))
    rows = [
        ([sign * coeffs[j] for j, sign in cols], rel, rhs) for coeffs, rel, rhs in ext
    ]
    cost = [sign * cmax[j] for j, sign in cols]
    return rows, cost, cols


def solve_lp_by_enumeration(lp: LinearProgram) -> tuple[LpStatus, Optional[Fraction]]:
    """Status and optimal value via candidate-vertex enumeration.

    After lifting to the nonnegative orthant the feasible set is pointed, so
    it is nonempty iff some candidate vertex (a square subsystem of tight
    constraints) is feasible, and the optimum is either attained at a vertex
    or escapes along an extreme ray of the recession cone.
    """
    rows, cost, cols = _lift(lp)
    dim = len(cols)

    # All hyperplanes that can be tight: constraint rows and x_j = 0 walls.
    planes: list[tuple[list[Fraction], Fraction]] = [(coeffs, rhs) for coeffs, _, rhs in rows]
    for j in range(dim):
        planes.append(([Fraction(1 if i == j else 0) for i in range(dim)], Fraction(0)))

    def feasible(x: Sequence[Fraction], rows: list) -> bool:
        if any(v < 0 for v in x):
            return False
        for coeffs, rel, rhs in rows:
            val = sum((c * v for c, v in zip(coeffs, x) if c), Fraction(0))
            if rel == "<=" and val > rhs:
                return False
            if rel == ">=" and val < rhs:
                return False
            if rel == "=" and val != rhs:
                return False
        return True

    best: Optional[Fraction] = None
    for subset in itertools.combinations(range(len(planes)), dim):
        matrix = [planes[i][0] for i in subset]
        rhs = [planes[i][1] for i in subset]
        x = solve_square(matrix, rhs)
        if x is None or not feasible(x, rows):
            continue
        value = sum((c * v for c, v in zip(cost, x) if c), Fraction(0))
        if best is None or value > best:
            best = value

    if best is None:
        return LpStatus.INFEASIBLE, None

    # Recession cone: the feasible points of the homogenized rows.
    cone_rows = [(coeffs, rel, 0) for coeffs, rel, _ in rows]
    cone_planes = [coeffs for coeffs, _, _ in rows]
    for j in range(dim):
        cone_planes.append([Fraction(1 if i == j else 0) for i in range(dim)])

    for subset in itertools.combinations(range(len(cone_planes)), dim - 1):
        matrix = [cone_planes[i] for i in subset]
        gen = null_space_generator(matrix, dim)
        if gen is None:
            continue
        for d in (gen, [-v for v in gen]):
            if feasible(d, cone_rows):
                gain = sum((c * v for c, v in zip(cost, d) if c), Fraction(0))
                if gain > 0:
                    return LpStatus.UNBOUNDED, None

    value = best if lp.sense == "max" else -best
    return LpStatus.OPTIMAL, value


__all__ = [
    "matrix_rank",
    "null_space_generator",
    "solve_lp_by_enumeration",
    "solve_square",
    "urn_law_by_enumeration",
]
