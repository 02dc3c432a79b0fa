"""Exact rational linear programming with machine-checkable certificates.

Primal simplex on a dense tableau with Bland's anti-cycling rule.  Phase 1
looks for a feasible basis from all-artificial rows unless the caller names
a start basis, one signed column per row: the simplex pivots it in, makes
it feasible by sign and runs phase 2 alone.  Only the total-variation
program of :mod:`exchkit.measures` names one, read off its own columns
when they are triangular; :func:`solve` runs both phases.  A solved
tableau can also be re-seeded with a new right-hand side and re-optimized
from its own basis (``_Simplex.resolve``): the reduced costs do not depend
on the right-hand side, so an optimal basis often stays optimal.
``measures`` is its one caller, for the next law on the same
total-variation program; :func:`solve` and :func:`verify` never keep a
tableau.  The tableau is exact but fraction-free: each row is a list of
integers over one positive denominator, so a pivot costs integer
multiplications and one gcd per row rather than a gcd per entry.
The caller declares the signed columns the simplex works over, each +1 or
-1 times one variable's column: :func:`solve` declares the two parts of a
free variable, and the total-variation program in :mod:`exchkit.measures`
the negative part of every weight.  Every row, the objective row included,
stores each variable's column once, and a signed column is priced against
its cost when the entering column is chosen.  Every number in an outcome is
a :class:`fractions.Fraction`, and outcomes always carry enough data to be
re-checked independently by :func:`verify`:

* ``OPTIMAL``   - primal point, objective value, and a dual vector with
  exact strong duality;
* ``INFEASIBLE`` - a Farkas ray: a sign-correct combination of the
  constraints proving emptiness;
* ``UNBOUNDED`` - a feasible point plus an improving recession direction.

The number of pivots in one solve, start pivots included, is bounded by
the resource cap (:mod:`exchkit.caps`), read once when the solve is set
up or passed in by the caller, and passed afresh to each re-seeded solve;
Bland's rule guarantees termination from any feasible basis, so the cap
only limits the work.

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
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .caps import ensure_within_cap, resource_cap
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
        # a float would be solved, and certified, at its binary value
        exact = [*self.objective, *(b for b in (*self.lower, *self.upper) if b is not None)]
        for coeffs, rel, rhs in self.constraints:
            if len(coeffs) != n:
                raise InputError(
                    f"lp: constraint has {len(coeffs)} coefficients, expected {n}"
                )
            if rel not in _RELATIONS:
                raise InputError(f"lp: unknown relation {rel!r}")
            exact += [*coeffs, rhs]
        try:
            for value in exact:
                as_fraction(value)
        except InputError as exc:
            raise InputError(f"lp: {exc}") from None

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


# A logical column of the simplex: ``sign`` (+1 or -1) times the stored
# column of one variable, with its cost in the maximization form.
SignedColumn = tuple[int, int, Fraction]


class _Simplex:
    """One solve of ``max sum cost * x`` over nonnegative logical columns,
    each +1 or -1 times one variable's column of the extended ``rows``.
    The caller declares the signed columns, so a free variable is its
    ``+1`` and ``-1`` columns, and ``measures`` declares the negative
    part of every weight the same way.

    Tableau row ``i`` is the integer list ``T[i]`` over the positive
    denominator ``den[i]``.  Columns are indexed logically (signed columns |
    slack/surplus | artificials), and logical column ``j`` reads
    ``sign * T[i][stored]`` for ``(stored, sign) = colmap[j]``.  ``T[i]``
    holds each variable's entry once, then the slack, artificial and rhs
    slots; a pivot keeps every logical column equal to its stored column up
    to its sign.  The objective row has the same width: ``z`` over ``zden``
    is ``sum_i cost[basis[i]] * T[i] / den[i]`` for the phase's integer
    costs ``cost = phase_cost`` over ``cden = phase_cden``, so column ``j``
    has reduced cost ``(cost[j] - sign * z[stored] / zden) / cden``,
    ``z[-1] / (zden * cden)`` is the objective value and ``z`` at row
    ``i``'s unit column over ``zden * cden`` is its dual.  The outcome's
    primal is per variable (the signed sum of its columns), and its value
    is in the maximization form.

    ``start``, if given, names one signed column per row: ``start[i]`` is
    pivoted into row ``i``, in row order and without pricing, so every
    leading minor of the start basis must be nonzero (a triangular basis
    in row order has them).  A row whose value then comes out negative is
    negated and made basic in the opposite-sign column of the same
    variable.  That leaves a primal-feasible basis with no artificial in
    it, so the solve skips phase 1 and runs phase 2 from there.  Only
    ``measures._min_total_variation`` names a start, when its columns are
    triangular.  A start of the wrong length, a singular one, or a
    negative row without an opposite-sign column raises ``AssertionError``.
    ``cap`` bounds the pivots; None reads the active cap.

    Once solved, a tableau that kept every row and no basic artificial
    (:attr:`resolvable`) can be solved again for a new right-hand side by
    :meth:`resolve`, from the basis it holds, with no start pivot and no
    row rebuilt.  ``measures._min_total_variation`` is its one caller.
    """

    def __init__(
        self,
        rows: Sequence[Row],
        columns: Sequence[SignedColumn],
        start: Optional[Sequence[int]] = None,
        cap: Optional[int] = None,
    ):
        self.cols = [(j, sign) for j, sign, _ in columns]
        self.nvars = nvars = 1 + max(j for j, _ in self.cols)
        ncols = len(columns)
        # Cost of each column in the maximization form, over denominator cden.
        ints, self.cden = _integer_row([c for _, _, c in columns])
        self.cost = {col: c for col, c in enumerate(ints) if c}

        # Scale each row to integers over its own denominator, and
        # sign-normalize it so every rhs is nonnegative.
        self.flip: list[int] = []
        self.rels: list[str] = []
        int_rows: list[list[int]] = []
        self.den: list[int] = []
        for coeffs, rel, b in rows:
            ints, den = _integer_row((*coeffs, b))
            flip = 1
            if b < 0:
                flip = -1
                rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
                ints = [-v for v in ints]
            int_rows.append(ints)
            self.den.append(den)
            self.flip.append(flip)
            self.rels.append(rel)

        m = len(int_rows)
        # Column layout: signed columns | slack/surplus | artificials | rhs.
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
        shift = nvars - ncols
        self.colmap = [*self.cols, *[(c + shift, 1) for c in range(ncols, width)]]
        self.stored_width = width + shift + 1

        self.T: list[list[int]] = []
        self.basis: list[int] = []
        self.row_id: list[int] = list(range(m))  # surviving row -> ext row index
        self.pivots = 0
        self.cap = resource_cap() if cap is None else cap  # read once, not on every pivot
        for i, row in enumerate(int_rows):
            den = self.den[i]
            rhs = row.pop()
            row += [0] * (width - ncols)
            row.append(rhs)
            if self.slack_col[i] >= 0:
                row[self.slack_col[i] + shift] = den if self.rels[i] == "<=" else -den
            if self.art_col[i] >= 0:
                row[self.art_col[i] + shift] = den
            self.T.append(row)
            self.basis.append(self.art_col[i] if self.art_col[i] >= 0 else self.slack_col[i])
        self._set_objective({}, 1)
        if start is not None:
            self._start(start)

    # -- tableau mechanics ---------------------------------------------------

    def _pivot(self, row: int, col: int) -> None:
        T = self.T
        prow = T[row]
        s, sign = self.colmap[col]
        p = sign * prow[s]
        if p == 0:
            raise AssertionError("simplex: pivot on zero entry")
        self.pivots += 1
        ensure_within_cap(self.pivots, "simplex pivots", self.cap)
        if p < 0:
            prow = [-v for v in prow]
            p = -p
        # gcd(*prow) is 1: prow holds +-den at its old basic column and gcd(den, *prow) == 1
        T[row] = prow
        self.den[row] = p
        for r, other in enumerate(T):
            if r == row:
                continue
            f = other[s]
            if f:
                T[r], self.den[r] = _eliminate(other, self.den[r], sign * f, prow, p)
        # z gains the entering column's reduced cost times the pivot row
        f = sign * self.z[s] - self.phase_cost.get(col, 0) * self.zden
        if f:
            self.z, self.zden = _eliminate(self.z, self.zden, f, prow, p)
        self.basis[row] = col

    def _start(self, start: Sequence[int]) -> None:
        if len(start) != len(self.T):
            raise AssertionError("simplex: the start needs one column per row")
        for i, col in enumerate(start):
            if not 0 <= col < len(self.cols):
                raise AssertionError("simplex: a start column must be a signed column")
            self._pivot(i, col)
        self._feasible_by_sign()

    def _feasible_by_sign(self) -> None:
        """Make each row of negative value basic in the opposite-sign column
        of its basic variable, negating the row: the basis stays a basis
        and every row's value turns nonnegative."""
        partner = None
        for i, row in enumerate(self.T):
            if row[-1] < 0:
                if partner is None:
                    partner = {c: col for col, c in enumerate(self.cols)}
                j, sign = self.cols[self.basis[i]]
                if (j, -sign) not in partner:
                    raise AssertionError("simplex: a negative row has no opposite column")
                self.T[i] = [-v for v in row]
                self.basis[i] = partner[j, -sign]

    def _set_objective(self, cost: dict[int, int], cden: int) -> None:
        basic = [(cost[b], i) for i, b in enumerate(self.basis) if b in cost]
        scale = lcm(*(self.den[i] for _, i in basic))
        z = [0] * self.stored_width
        for c, i in basic:
            w = c * (scale // self.den[i])
            z = [a + w * v for a, v in zip(z, self.T[i])]
        g = gcd(scale, *z)
        self.z = [v // g for v in z]
        self.zden = scale // g
        self.phase_cost, self.phase_cden = cost, cden

    def _iterate(self, banned: set[int]) -> Optional[int]:
        """Bland's rule until optimal (returns None) or unbounded
        (returns the entering column)."""
        while True:
            enter = -1
            z, zden, cost = self.z, self.zden, self.phase_cost
            for j, (s, sign) in enumerate(self.colmap):
                if j not in banned and cost.get(j, 0) * zden > sign * z[s]:
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
        if self.artificials.intersection(self.basis):
            self._set_objective(dict.fromkeys(self.artificials, -1), 1)
            if self._iterate(banned=set()) is not None:
                raise AssertionError("simplex: phase 1 cannot be unbounded")
            if self.z[-1] < 0:
                return self._infeasible_outcome()
            self._purge_artificials()
        return self._phase_2()

    @property
    def resolvable(self) -> bool:
        """Can :meth:`resolve` re-seed this tableau: every row kept and no
        artificial basic, so the basis spans every row."""
        return len(self.T) == len(self.flip) and not self.artificials.intersection(self.basis)

    def resolve(self, rhs: Sequence[Fraction], cap: int) -> LpOutcome:
        """Solve this tableau's program again with the right-hand side
        ``rhs``, one entry per row, from the basis it holds.

        The tableau must be :attr:`resolvable`.  Row ``r``'s unit column
        (its artificial, else its slack) started as the identity, so the
        tableau holds ``B^-1`` there, and each row's new value is its
        ``B^-1`` row times the sign-normalized ``rhs``.  A row that comes
        out negative moves to the opposite-sign column of its variable, as
        after a start, and phase 2 runs with the pivot count reset and the
        cap ``cap``.  ``rhs`` changes no reduced cost, so an optimal basis
        needs no pivot when ``rhs`` keeps it feasible.  The tableau is
        changed in place.
        """
        if not self.resolvable or len(rhs) != len(self.T):
            raise AssertionError("simplex: a re-seed needs every row and one value per row")
        b, bden = _integer_row([f * v for f, v in zip(self.flip, rhs)])
        units = [(self.colmap[self._unit_col(r)][0], v) for r, v in enumerate(b) if v]
        for i, row in enumerate(self.T):
            value = sum(row[u] * v for u, v in units)
            scale = bden // gcd(value, bden)  # 1 when bden divides value
            if scale != 1:
                row = [scale * v for v in row]
                self.den[i] *= scale
            row[-1] = value * scale // bden
            g = gcd(self.den[i], *row)
            if g != 1:
                row = [v // g for v in row]
                self.den[i] //= g
            self.T[i] = row
        self._feasible_by_sign()
        self.pivots = 0
        self.cap = cap
        return self._phase_2()

    def _phase_2(self) -> LpOutcome:
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
        x = [zero] * self.nvars
        for col, (j, sign) in enumerate(self.cols):
            if internal[col]:
                x[j] += sign * internal[col]
        return tuple(x)

    def _unit_col(self, ext_i: int) -> int:
        """Row ``ext_i``'s unit column: its artificial, else its slack."""
        art = self.art_col[ext_i]
        return art if art >= 0 else self.slack_col[ext_i]

    def _duals(self) -> tuple[Fraction, ...]:
        # Row i's dual is z at its unit column.
        y_ext = [Fraction(0)] * len(self.flip)
        den = self.zden * self.phase_cden
        for ext_i in self.row_id:
            unit, _ = self.colmap[self._unit_col(ext_i)]
            y_ext[ext_i] = self.flip[ext_i] * Fraction(self.z[unit], den)
        return tuple(y_ext)

    def _infeasible_outcome(self) -> LpOutcome:
        return LpOutcome(status=LpStatus.INFEASIBLE, certificate=self._duals())

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
        return LpOutcome(
            status=LpStatus.OPTIMAL,
            primal=self._to_original(self._internal_point()),
            objective_value=Fraction(self.z[-1], self.zden * self.phase_cden),
            certificate=self._duals(),
        )


def solve(lp: LinearProgram) -> LpOutcome:
    """Solve exactly; deterministic for identical input (fixed pivot rule)."""
    ext = _extended_rows(lp)
    ensure_within_cap(max(lp.num_vars, len(ext), 1), "lp dimensions")
    # A free variable is a positive part and, right after it, a negative part.
    columns: list[SignedColumn] = []
    for j, c in enumerate(_max_objective(lp)):
        columns.append((j, 1, c))
        if lp.lower[j] is None:
            columns.append((j, -1, -c))
    out = _Simplex(ext, columns).solve()
    if lp.sense == "min" and out.objective_value is not None:
        out = replace(out, objective_value=-out.objective_value)
    return out


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
            # lower bounds are 0, so a ray is a feasible point of the
            # homogeneous rows
            x, d = outcome.primal, outcome.ray
            if x is None or d is None or not _point_feasible(lp, ext, x):
                return False
            cone = [(coeffs, rel, 0) for coeffs, rel, _ in ext]
            return _point_feasible(lp, cone, d) and _row_value(cmax, d) > 0

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
