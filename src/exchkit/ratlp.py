"""Exact rational linear programming with machine-checkable certificates.

Two-phase primal simplex on a dense tableau with Bland's anti-cycling rule.
The tableau is exact but fraction-free: each row is a list of integers over
one positive denominator, so a pivot costs integer multiplications and one
gcd per row rather than a gcd per entry.  Columns that are +1 or -1 times
an earlier column (the two parts of a free variable, or a variable and its
negated copy) share one stored tableau column; only the objective row has
an entry for each of them.  Every number in an outcome is a
:class:`fractions.Fraction`, and outcomes always carry enough data to be
re-checked independently by :func:`verify`:

* ``OPTIMAL``   - primal point, objective value, and a dual vector with
  exact strong duality;
* ``INFEASIBLE`` - a Farkas ray: a sign-correct combination of the
  constraints proving emptiness;
* ``UNBOUNDED`` - a feasible point plus an improving recession direction.

The number of pivots in one solve, over both phases, is bounded by the
resource cap (:mod:`exchkit.caps`); Bland's rule guarantees termination, so
the cap only limits the work.

Variables have lower bound 0 or are free; finite upper bounds are handled as
appended ``x_j <= u_j`` rows.  Certificates are indexed by the constraint
rows followed by those upper-bound rows (in variable order), and are
expressed with respect to the maximization form: for ``sense == "min"`` the
solver maximizes the negated objective and the dual vector refers to that
program, while ``objective_value`` is always in the original sense.
``verify`` applies the same canonicalization, so the two functions agree on
conventions without any shared state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import neg
from typing import Iterable, Optional, Sequence

from .caps import ensure_within_cap
from .errors import InputError
from .typespace import RationalLike, as_fraction

Relation = str  # "<=", "=", ">="
_RELATIONS = ("<=", "=", ">=")

Row = tuple[tuple[Fraction, ...], Relation, Fraction]


@dataclass(frozen=True)
class LinearProgram:
    """Immutable LP: optimize ``objective`` subject to rows and bounds.

    ``lower[j]`` is ``Fraction(0)`` or ``None`` (free variable);
    ``upper[j]`` is a finite Fraction or ``None`` (unbounded above).
    """

    objective: tuple[Fraction, ...]
    sense: str
    constraints: tuple[Row, ...]
    lower: tuple[Optional[Fraction], ...]
    upper: tuple[Optional[Fraction], ...]

    def __post_init__(self):
        if self.sense not in ("max", "min"):
            raise InputError(f"lp: sense must be 'max' or 'min', got {self.sense!r}")
        n = len(self.objective)
        if n == 0:
            raise InputError("lp: at least one variable required")
        if len(self.lower) != n or len(self.upper) != n:
            raise InputError("lp: bounds must match the number of variables")
        for lo in self.lower:
            if lo is not None and lo != 0:
                raise InputError("lp: lower bounds must be 0 or None (free)")
        for coeffs, rel, _rhs in self.constraints:
            if len(coeffs) != n:
                raise InputError(
                    f"lp: constraint has {len(coeffs)} coefficients, expected {n}"
                )
            if rel not in _RELATIONS:
                raise InputError(f"lp: unknown relation {rel!r}")

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    @staticmethod
    def build(
        sense: str,
        objective: Sequence[RationalLike],
        constraints: Iterable[tuple[Sequence[RationalLike], Relation, RationalLike]] = (),
        free: Iterable[int] = (),
        upper: dict[int, RationalLike] | None = None,
    ) -> "LinearProgram":
        """Convenience constructor: ints allowed, bounds by exception lists.

        All variables default to lower bound 0 and no upper bound; indices in
        ``free`` become free, and ``upper`` maps indices to finite bounds.
        """
        obj = tuple(as_fraction(c) for c in objective)
        n = len(obj)
        rows = tuple(
            (tuple(as_fraction(c) for c in coeffs), rel, as_fraction(rhs))
            for coeffs, rel, rhs in constraints
        )
        free_set = set(free)
        lo = tuple(None if j in free_set else Fraction(0) for j in range(n))
        up_map = {j: as_fraction(u) for j, u in (upper or {}).items()}
        up = tuple(up_map.get(j) for j in range(n))
        return LinearProgram(obj, sense, rows, lo, up)


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpOutcome:
    """Solver result plus certificate; see the module docstring for the
    certificate conventions."""

    status: LpStatus
    primal: Optional[tuple[Fraction, ...]] = None
    objective_value: Optional[Fraction] = None
    certificate: Optional[tuple[Fraction, ...]] = None
    ray: Optional[tuple[Fraction, ...]] = None


def _extended_rows(lp: LinearProgram) -> list[Row]:
    rows = list(lp.constraints)
    n = lp.num_vars
    for j, u in enumerate(lp.upper):
        if u is not None:
            unit = tuple(Fraction(1 if i == j else 0) for i in range(n))
            rows.append((unit, "<=", u))
    return rows


def _max_objective(lp: LinearProgram) -> tuple[Fraction, ...]:
    if lp.sense == "max":
        return lp.objective
    return tuple(-c for c in lp.objective)


def _integer_row(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """``values`` as integers over their least common denominator."""
    # One call per entry reads both parts; rows of the norm program are
    # mostly zeros, which need no division.
    parts = [v.as_integer_ratio() for v in values]
    den = lcm(*{q for _, q in parts})
    return [p * (den // q) if p else 0 for p, q in parts], den


def _eliminate(
    row: list[int], den: int, f: int, prow: list[int], p: int
) -> tuple[list[int], int]:
    """``row/den - (f/den) * (prow/p)`` as a reduced integer row over its
    denominator: ``(p*row - f*prow) / (den*p)``, divided by one gcd."""
    if p == 1:
        new = [a - f * b for a, b in zip(row, prow)]
    else:
        new = [p * a - f * b for a, b in zip(row, prow)]
        den *= p
    g = gcd(den, *new)
    if g != 1:
        new = [v // g for v in new]
        den //= g
    return new, den


class _Simplex:
    """One solve.  Internal variables are all >= 0: a free variable is a
    positive and a negative part, which share one stored column.

    Tableau row ``i`` is the integer list ``T[i]`` over the positive
    denominator ``den[i]``; the objective row is ``obj`` over ``oden``.
    Columns are indexed logically (structurals | slack/surplus |
    artificials), and logical column ``j`` reads ``sign * T[i][stored]``
    for ``(stored, sign) = colmap[j]``.  Structural columns that are +1 or
    -1 times one another are stored once; a pivot keeps every copy equal
    to its stored column up to that sign, so this changes no pivot.
    ``T[i]`` holds the stored structurals, then the slack, artificial and
    rhs slots.  The objective row keeps the logical width, since copies
    differ in cost.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        ext = _extended_rows(lp)
        n = lp.num_vars
        ensure_within_cap(max(n, len(ext), 1), "lp dimensions")

        # Split free variables into positive and negative parts.
        self.cols: list[tuple[int, int]] = []  # (orig var, sign)
        for j in range(n):
            self.cols.append((j, 1))
            if lp.lower[j] is None:
                self.cols.append((j, -1))
        ncols = len(self.cols)
        # Cost of each column in the maximization form, over denominator cden.
        ints, self.cden = _integer_row(lp.objective)
        sense = 1 if lp.sense == "max" else -1
        self.cost = {
            col: sense * sign * ints[j] for col, (j, sign) in enumerate(self.cols) if ints[j]
        }

        # Scale each row to integers over its own denominator, and
        # sign-normalize it so every rhs is nonnegative.
        self.flip: list[int] = []
        self.rels: list[str] = []
        rows: list[list[int]] = []
        rhs: list[int] = []
        self.den: list[int] = []
        for coeffs, rel, b in ext:
            ints, den = _integer_row((*coeffs, b))
            flip = 1
            if b < 0:
                flip = -1
                rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
                ints = [-v for v in ints]
            rhs.append(ints.pop())
            rows.append(ints)
            self.den.append(den)
            self.flip.append(flip)
            self.rels.append(rel)

        # Store each original variable's column once up to sign, with its
        # first nonzero entry positive; a column equal to +1 or -1 times an
        # earlier one reads that one's stored entries.
        stored: dict[tuple[int, ...], int] = {}
        var_map: list[tuple[int, int]] = []  # orig var -> (stored, sign)
        zero = (0,) * len(rows)
        for column in zip(*rows) if rows else [zero] * n:
            sign = 1
            if column < zero:  # the first nonzero entry is negative
                sign = -1
                # From a list: tuple() of a generator over-allocates and
                # resizes, which leaves a tuple on the free lists each time.
                column = tuple([-v for v in column])
            var_map.append((stored.setdefault(column, len(stored)), sign))
        self.nstored = nstored = len(stored)
        columns = list(stored)
        del stored, rows

        m = len(rhs)
        # Column layout: structurals | slack/surplus | artificials | rhs.
        self.slack_col = [-1] * m
        self.art_col = [-1] * m
        width = ncols
        for i, rel in enumerate(self.rels):
            if rel in ("<=", ">="):
                self.slack_col[i] = width
                width += 1
        for i, rel in enumerate(self.rels):
            if rel in (">=", "="):
                self.art_col[i] = width
                width += 1
        self.width = width  # columns, excluding rhs slot
        self.artificials = {c for c in self.art_col if c >= 0}
        shift = nstored - ncols
        self.colmap = [(var_map[j][0], sign * var_map[j][1]) for j, sign in self.cols]
        self.colmap += [(c + shift, 1) for c in range(ncols, width)]
        # _logical reads logical slot j at gather[j] of a stored row that is
        # followed by its negated structurals.
        self.stored_width = width + shift + 1
        self.gather = [s if sign > 0 else self.stored_width + s for s, sign in self.colmap]
        self.gather.append(self.stored_width - 1)

        self.T: list[list[int]] = []
        self.basis: list[int] = []
        self.row_id: list[int] = list(range(m))  # surviving row -> ext row index
        self.pivots = 0
        for i, entries in enumerate(zip(*columns)):
            den = self.den[i]
            row = [*entries, *[0] * (width - ncols), rhs[i]]
            if self.slack_col[i] >= 0:
                row[self.slack_col[i] + shift] = den if self.rels[i] == "<=" else -den
            if self.art_col[i] >= 0:
                row[self.art_col[i] + shift] = den
            self.T.append(row)
            self.basis.append(self.art_col[i] if self.art_col[i] >= 0 else self.slack_col[i])

    def _logical(self, row: list[int]) -> list[int]:
        """A stored tableau row at the logical width."""
        row = [*row, *map(neg, row[: self.nstored])]
        return list(map(row.__getitem__, self.gather))

    # -- tableau mechanics ---------------------------------------------------

    def _pivot(self, row: int, col: int) -> None:
        T = self.T
        prow = T[row]
        s, sign = self.colmap[col]
        p = sign * prow[s]
        if p == 0:
            raise AssertionError("simplex: pivot on zero entry")
        self.pivots += 1
        ensure_within_cap(self.pivots, "simplex pivots")
        if p < 0:
            prow = [-v for v in prow]
            p = -p
        g = gcd(*prow)
        if g != 1:
            prow = [v // g for v in prow]
            p //= g
        T[row] = prow
        self.den[row] = p
        for r, other in enumerate(T):
            if r == row:
                continue
            f = other[s]
            if f:
                T[r], self.den[r] = _eliminate(other, self.den[r], sign * f, prow, p)
        f = self.obj[col]
        if f:
            self.obj, self.oden = _eliminate(self.obj, self.oden, f, self._logical(prow), p)
        self.basis[row] = col

    def _set_objective(self, cost: dict[int, int], cden: int) -> None:
        # obj[j] / oden = reduced cost of column j, for column costs
        # cost[j] / cden; obj[-1] / oden = -(objective value).
        basic = [(cost[b], i) for i, b in enumerate(self.basis) if b in cost]
        scale = lcm(*(self.den[i] for _, i in basic))
        acc = [0] * self.stored_width
        for c, i in basic:
            w = c * (scale // self.den[i])
            acc = [a - w * v for a, v in zip(acc, self.T[i])]
        obj = self._logical(acc)
        for j, c in cost.items():
            obj[j] += c * scale
        oden = cden * scale
        g = gcd(oden, *obj)
        self.obj = [v // g for v in obj]
        self.oden = oden // g

    def _iterate(self, banned: set[int]) -> Optional[int]:
        """Bland's rule until optimal (returns None) or unbounded
        (returns the entering column)."""
        while True:
            enter = -1
            for j in range(self.width):
                if j not in banned and self.obj[j] > 0:
                    enter = j
                    break
            if enter < 0:
                return None
            # Minimum ratio rhs/coef over rows with coef > 0; the row
            # denominators cancel, and ratios compare by cross-multiplying.
            leave = -1
            best_rhs = best_coef = 0
            s, sign = self.colmap[enter]
            for i, row in enumerate(self.T):
                coef = sign * row[s]
                if coef > 0:
                    here = row[-1] * best_coef
                    there = best_rhs * coef
                    if leave < 0 or here < there or (
                        here == there and self.basis[i] < self.basis[leave]
                    ):
                        best_rhs, best_coef = row[-1], coef
                        leave = i
            if leave < 0:
                return enter
            self._pivot(leave, enter)

    # -- phases ---------------------------------------------------------------

    def solve(self) -> LpOutcome:
        if self.artificials:
            self._set_objective(dict.fromkeys(self.artificials, -1), 1)
            if self._iterate(banned=set()) is not None:
                raise AssertionError("simplex: phase 1 cannot be unbounded")
            if self.obj[-1] > 0:
                return self._infeasible_outcome()
            self._purge_artificials()

        self._set_objective(self.cost, self.cden)
        enter = self._iterate(banned=self.artificials)
        if enter is not None:
            return self._unbounded_outcome(enter)
        return self._optimal_outcome()

    def _purge_artificials(self) -> None:
        # Basic artificials sit at level zero; pivot them out or drop the
        # (linearly dependent) row.
        i = 0
        while i < len(self.T):
            if self.basis[i] in self.artificials:
                pivot_col = -1
                row = self.T[i]
                for j, (s, _) in enumerate(self.colmap):
                    if j not in self.artificials and row[s] != 0:
                        pivot_col = j
                        break
                if pivot_col >= 0:
                    self._pivot(i, pivot_col)
                    i += 1
                else:
                    del self.T[i]
                    del self.den[i]
                    del self.basis[i]
                    del self.row_id[i]
            else:
                i += 1

    # -- outcome assembly ------------------------------------------------------

    def _internal_point(self) -> list[Fraction]:
        zero = Fraction(0)
        x = [zero] * self.width
        for i, b in enumerate(self.basis):
            x[b] = Fraction(self.T[i][-1], self.den[i])
        return x

    def _to_original(self, internal: Sequence[Fraction]) -> tuple[Fraction, ...]:
        zero = Fraction(0)
        x = [zero] * self.lp.num_vars
        for col, (j, sign) in enumerate(self.cols):
            if internal[col]:
                x[j] += sign * internal[col]
        return tuple(x)

    def _duals(self, phase1: bool) -> tuple[Fraction, ...]:
        # Reduced cost of row i's unit column gives its dual value:
        # r = c_unit - y_i, with c_unit = -1 for phase-1 artificials, else 0.
        zero = Fraction(0)
        y_ext = [zero] * (len(self.flip))
        for pos, ext_i in enumerate(self.row_id):
            art = self.art_col[ext_i]
            if art >= 0:
                c_unit = Fraction(-1) if phase1 else zero
                y = c_unit - Fraction(self.obj[art], self.oden)
            else:
                y = -Fraction(self.obj[self.slack_col[ext_i]], self.oden)
            y_ext[ext_i] = self.flip[ext_i] * y
        return tuple(y_ext)

    def _infeasible_outcome(self) -> LpOutcome:
        return LpOutcome(status=LpStatus.INFEASIBLE, certificate=self._duals(phase1=True))

    def _unbounded_outcome(self, enter: int) -> LpOutcome:
        zero = Fraction(0)
        direction = [zero] * self.width
        direction[enter] = Fraction(1)
        s, sign = self.colmap[enter]
        for i, b in enumerate(self.basis):
            coef = sign * self.T[i][s]
            if coef:
                direction[b] = -Fraction(coef, self.den[i])
        return LpOutcome(
            status=LpStatus.UNBOUNDED,
            primal=self._to_original(self._internal_point()),
            ray=self._to_original(direction),
        )

    def _optimal_outcome(self) -> LpOutcome:
        value = -Fraction(self.obj[-1], self.oden)
        if self.lp.sense == "min":
            value = -value
        return LpOutcome(
            status=LpStatus.OPTIMAL,
            primal=self._to_original(self._internal_point()),
            objective_value=value,
            certificate=self._duals(phase1=False),
        )


def solve(lp: LinearProgram) -> LpOutcome:
    """Solve exactly; deterministic for identical input (fixed pivot rule)."""
    return _Simplex(lp).solve()


# -- independent certificate checking ------------------------------------------


def _row_value(coeffs: Sequence[Fraction], x: Sequence[Fraction]) -> Fraction:
    return sum((c * v for c, v in zip(coeffs, x) if c), Fraction(0))


def _satisfies(value: Fraction, rel: Relation, rhs: Fraction) -> bool:
    if rel == "<=":
        return value <= rhs
    if rel == ">=":
        return value >= rhs
    return value == rhs


def _point_feasible(lp: LinearProgram, ext: list[Row], x: Sequence[Fraction]) -> bool:
    if len(x) != lp.num_vars:
        return False
    for j, lo in enumerate(lp.lower):
        if lo is not None and x[j] < lo:
            return False
    return all(_satisfies(_row_value(coeffs, x), rel, rhs) for coeffs, rel, rhs in ext)


def _dual_feasible(
    lp: LinearProgram, ext: list[Row], y: Sequence[Fraction], costs: Sequence[Fraction]
) -> bool:
    """Does ``y`` price every variable at ``costs``?  Each row's sign must
    suit its relation, and ``sum_i y_i a_ij - costs_j`` must be 0 on a free
    variable and nonnegative on a bounded one."""
    if len(y) != len(ext):
        return False
    for (_, rel, _), yi in zip(ext, y):
        if rel == "<=" and yi < 0:
            return False
        if rel == ">=" and yi > 0:
            return False
    for j, cj in enumerate(costs):
        slack = sum((yi * row[j] for yi, (row, _, _) in zip(y, ext) if row[j]), -cj)
        if slack < 0 or (slack and lp.lower[j] is None):
            return False
    return True


def verify(lp: LinearProgram, outcome: LpOutcome) -> bool:
    """Re-check every certificate condition in exact arithmetic.

    Independent of the solver: works only from the outcome fields and the
    program data.  Returns False on any mismatch, including malformed or
    missing fields; never raises for shape problems.
    """
    try:
        ext = _extended_rows(lp)
        cmax = _max_objective(lp)

        if outcome.status is LpStatus.OPTIMAL:
            x, y = outcome.primal, outcome.certificate
            if x is None or y is None or outcome.objective_value is None:
                return False
            if not _point_feasible(lp, ext, x) or not _dual_feasible(lp, ext, y, cmax):
                return False
            original_value = _row_value(lp.objective, x)
            if original_value != outcome.objective_value:
                return False
            dual_value = sum((yi * rhs for yi, (_, _, rhs) in zip(y, ext) if yi), Fraction(0))
            max_value = original_value if lp.sense == "max" else -original_value
            return dual_value == max_value

        if outcome.status is LpStatus.INFEASIBLE:
            y = outcome.certificate
            if y is None or not _dual_feasible(lp, ext, y, (0,) * lp.num_vars):
                return False
            against = sum((yi * rhs for yi, (_, _, rhs) in zip(y, ext) if yi), Fraction(0))
            return against < 0

        if outcome.status is LpStatus.UNBOUNDED:
            x, d = outcome.primal, outcome.ray
            if x is None or d is None or len(d) != lp.num_vars:
                return False
            if not _point_feasible(lp, ext, x):
                return False
            for coeffs, rel, _ in ext:
                drift = _row_value(coeffs, d)
                if rel == "<=" and drift > 0:
                    return False
                if rel == ">=" and drift < 0:
                    return False
                if rel == "=" and drift != 0:
                    return False
            for j, lo in enumerate(lp.lower):
                if lo is not None and d[j] < 0:
                    return False
            return _row_value(cmax, d) > 0

        return False
    except (TypeError, IndexError, AttributeError):
        return False


__all__ = [
    "LinearProgram",
    "LpOutcome",
    "LpStatus",
    "Relation",
    "solve",
    "verify",
]
