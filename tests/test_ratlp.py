"""Exact simplex kernel: contract examples, certificates, oracle agreement."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from exchkit import represent
from exchkit.caps import DEFAULT_RESOURCE_CAP
from exchkit.corpus import disjoint_pairs_law
from exchkit.errors import CapacityError, InputError
from exchkit.extend import norm_EN
from exchkit.measures import ExchangeableLaw
from exchkit.oracle import solve_lp_by_enumeration
from exchkit.ratlp import LinearProgram, LpStatus, _Simplex, solve, verify
from exchkit.typespace import Alphabet, TypeVector

from helpers import patch_simplex, random_lp


def test_simple_maximum():
    lp = LinearProgram.build("max", [1], [((1,), "<=", 1)])
    out = solve(lp)
    assert out.status is LpStatus.OPTIMAL
    assert out.objective_value == 1
    assert verify(lp, out)


def test_simple_infeasible_with_farkas():
    lp = LinearProgram.build("max", [0], [((1,), "<=", -1)])
    out = solve(lp)
    assert out.status is LpStatus.INFEASIBLE
    assert out.certificate is not None
    assert verify(lp, out)


def test_separable_exact_value():
    lp = LinearProgram.build(
        "max",
        [1, 1],
        [((1, 0), "<=", Fraction(1, 3)), ((0, 1), "<=", Fraction(2, 7))],
    )
    out = solve(lp)
    assert out.status is LpStatus.OPTIMAL
    assert out.objective_value == Fraction(13, 21)
    assert verify(lp, out)


def test_unbounded_carries_checkable_ray():
    lp = LinearProgram.build("max", [1, -1], [((1, -2), "<=", 3)])
    out = solve(lp)
    assert out.status is LpStatus.UNBOUNDED
    assert out.primal is not None and out.ray is not None
    assert verify(lp, out)


def test_verify_checks_a_ray_as_a_point_of_the_homogeneous_rows():
    # max x0 + 2 x1 - x2  s.t.  x0 - x1 <= 1,  x1 - x2 = 0,  x2 free:
    # the cone's rays are (a, b, b) with 0 <= a <= b, gaining a + b
    lp = LinearProgram.build(
        "max", [1, 2, -1], [((1, -1, 0), "<=", 1), ((0, 1, -1), "=", 0)], free=[2]
    )
    out = solve(lp)
    assert out.status is LpStatus.UNBOUNDED and verify(lp, out)
    assert solve_lp_by_enumeration(lp) == (LpStatus.UNBOUNDED, None)
    assert verify(lp, replace(out, ray=(1, 1, 1)))
    for ray in (
        (1, 1),  # one entry short
        (-1, 2, 2),  # negative on the bounded x0
        (2, 1, 1),  # breaks the <= row
        (1, 1, 0),  # drifts on the = row
        (0, 0, 0),  # no objective gain
    ):
        assert not verify(lp, replace(out, ray=tuple(map(Fraction, ray))))


def test_equalities_and_free_variables():
    # min x + 2y  s.t. x + y = 3, x free, y >= 0  ->  3 at (3, 0)
    lp = LinearProgram.build("min", [1, 2], [((1, 1), "=", 3)], free=[0])
    out = solve(lp)
    assert out.status is LpStatus.OPTIMAL
    assert out.objective_value == 3
    assert verify(lp, out)


def test_upper_bounds_become_rows():
    lp = LinearProgram.build(
        "max", [1, 1], [((1, 1), "<=", 10)], upper={0: Fraction(2)}
    )
    out = solve(lp)
    assert out.status is LpStatus.OPTIMAL
    assert out.objective_value == 10
    assert out.primal[0] == 2
    assert verify(lp, out)
    # certificate covers constraint rows then upper-bound rows
    assert len(out.certificate) == 2


def test_redundant_rows_are_tolerated():
    lp = LinearProgram.build(
        "max",
        [1],
        [((1,), "=", 2), ((2,), "=", 4), ((1,), "<=", 5)],
    )
    out = solve(lp)
    assert out.status is LpStatus.OPTIMAL
    assert out.objective_value == 2
    assert verify(lp, out)


def test_verify_rejects_tampering():
    lp = LinearProgram.build(
        "max",
        [1, 1],
        [((1, 0), "<=", Fraction(1, 3)), ((0, 1), "<=", Fraction(2, 7))],
    )
    out = solve(lp)
    bumped = tuple(v + Fraction(1, 100) for v in out.primal)
    assert not verify(lp, replace(out, primal=bumped))
    assert not verify(lp, replace(out, status=LpStatus.INFEASIBLE))
    assert not verify(lp, replace(out, status=LpStatus.UNBOUNDED))
    assert not verify(lp, replace(out, objective_value=Fraction(1)))
    assert not verify(lp, replace(out, certificate=None))


def test_validation_errors():
    with pytest.raises(InputError):
        LinearProgram.build("maximize", [1], [])
    with pytest.raises(InputError):
        LinearProgram.build("max", [1], [((1, 2), "<=", 1)])
    with pytest.raises(InputError):
        LinearProgram.build("max", [1], [((1,), "<", 1)])
    with pytest.raises(InputError):
        LinearProgram.build("max", [], [])


def test_floats_are_refused():
    # 0.1 would be solved, and verified, at its binary value 3602879701896397/2**55
    lp = LinearProgram((0, 1), "max", (((1, 1), "<=", 3),), (0, 0), (None, None))
    assert solve(lp).objective_value == 3
    bad = 0.1
    for program in (
        ((bad, 1), "max", (((1, 1), "<=", 3),), (0, 0), (None, None)),
        ((0, 1), "max", (((bad, 1), "<=", 3),), (0, 0), (None, None)),
        ((0, 1), "max", (((1, 1), "<=", bad),), (0, 0), (None, None)),
        ((0, 1), "max", (((1, 1), "<=", 3),), (0, 0), (None, bad)),
        ((0, 1), "max", (((1, 1), "<=", 3),), (0.0, 0), (None, None)),
        ((0.1, 1), "max", (((1, 1), "<=", 0.3),), (0, 0), (None, None)),
    ):
        with pytest.raises(InputError, match="^lp: expected an exact rational, got float$"):
            LinearProgram(*program)


def test_capacity_error(monkeypatch):
    monkeypatch.setenv("EXCHKIT_CAP", "3")
    lp = LinearProgram.build("max", [1, 1, 1, 1], [])
    with pytest.raises(CapacityError):
        solve(lp)
    monkeypatch.delenv("EXCHKIT_CAP")
    assert DEFAULT_RESOURCE_CAP == 50_000


def test_determinism():
    rng = random.Random(3)
    for _ in range(25):
        lp = random_lp(rng)
        assert solve(lp) == solve(lp)


def test_oracle_agreement_sample():
    # a quicker version of the acceptance sweep, for fast feedback
    rng = random.Random(17)
    for _ in range(120):
        lp = random_lp(rng)
        out = solve(lp)
        assert verify(lp, out)
        status, value = solve_lp_by_enumeration(lp)
        assert status is out.status
        if status is LpStatus.OPTIMAL:
            assert value == out.objective_value


def _klee_minty(d):
    # max sum 2^(d-j) x_j  s.t.  2 * sum_{j<i} 2^(i-j) x_j + x_i <= 5^i
    objective = [2 ** (d - j) for j in range(1, d + 1)]
    rows = []
    for i in range(1, d + 1):
        coeffs = [2 * 2 ** (i - j) for j in range(1, i)] + [1] + [0] * (d - i)
        rows.append((coeffs, "<=", 5**i))
    return LinearProgram.build("max", objective, rows)


def test_pivot_count_is_capped(monkeypatch):
    # Bland's rule takes 15 pivots on the d=5 cube: more than a cap of 10
    lp = _klee_minty(5)
    monkeypatch.setenv("EXCHKIT_CAP", "10")
    with pytest.raises(CapacityError, match="simplex pivots"):
        solve(lp)
    monkeypatch.delenv("EXCHKIT_CAP")
    out = solve(lp)
    assert out.status is LpStatus.OPTIMAL
    assert out.objective_value == 3125
    assert verify(lp, out)


def test_pivot_cap_is_read_once_per_solve(monkeypatch):
    # the simplex reads the cap when it is set up, not on each of its 15
    # pivots here: one read for the program's dimensions, one for the pivots
    import exchkit.caps as caps
    import exchkit.ratlp as ratlp

    reads = []
    read = caps.resource_cap

    def counted():
        reads.append(1)
        return read()

    monkeypatch.setattr(caps, "resource_cap", counted)
    monkeypatch.setattr(ratlp, "resource_cap", counted)
    out = solve(_klee_minty(5))
    assert out.status is LpStatus.OPTIMAL and out.objective_value == 3125
    assert len(reads) == 2


def test_beale_cycling_example_terminates():
    # Beale (1955): the textbook rule cycles here, Bland's rule must not
    lp = LinearProgram.build(
        "max",
        [Fraction(3, 4), -150, Fraction(1, 50), -6],
        [
            ((Fraction(1, 4), -60, Fraction(-1, 25), 9), "<=", 0),
            ((Fraction(1, 2), -90, Fraction(-1, 50), 3), "<=", 0),
            ((0, 0, 1, 0), "<=", 1),
        ],
    )
    out = solve(lp)
    assert out.status is LpStatus.OPTIMAL
    assert out.objective_value == Fraction(1, 20)
    assert out.primal == (Fraction(1, 25), 0, 1, 0)
    assert verify(lp, out)


def test_oracle_agreement_mixed_denominators():
    # rows mixing denominators 7, 11 and 13, negative right-hand sides,
    # free variables and upper bounds: every tableau row is scaled to
    # integers by its own denominator
    rng = random.Random(29)

    def coeff():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 7, 11, 13)))

    statuses = set()
    for _ in range(80):
        n = rng.randint(2, 3)
        constraints = []
        for _ in range(rng.randint(2, 4)):
            row = tuple(coeff() for _ in range(n))
            rhs = -abs(coeff()) if rng.random() < 0.4 else coeff()
            constraints.append((row, rng.choice(("<=", "=", ">=")), rhs))
        free = [j for j in range(n) if rng.random() < 0.3]
        upper = {j: abs(coeff()) for j in range(n) if rng.random() < 0.3}
        lp = LinearProgram.build(
            rng.choice(("max", "min")),
            [coeff() for _ in range(n)],
            constraints,
            free=free,
            upper=upper,
        )
        out = solve(lp)
        assert verify(lp, out)
        status, value = solve_lp_by_enumeration(lp)
        assert status is out.status
        if status is LpStatus.OPTIMAL:
            assert value == out.objective_value
        statuses.add(status)
    assert statuses == set(LpStatus)


def test_mirrored_columns_agree_with_oracle():
    # columns equal to +1 or -1 times another, and free variables, which
    # the simplex declares as a +1 and a -1 column of one variable
    rng = random.Random(41)

    def coeff():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 3))

    statuses = set()
    for _ in range(150):
        n = rng.randint(1, 3)
        base = [[coeff() for _ in range(n)] for _ in range(rng.randint(1, 4))]
        copies = [(rng.randrange(n), rng.choice((1, -1))) for _ in range(rng.randint(1, 2))]
        constraints = [
            ([*row, *(sign * row[j] for j, sign in copies)], rng.choice(("<=", "=", ">=")), coeff())
            for row in base
        ]
        width = n + len(copies)
        free = [j for j in range(width) if rng.random() < 0.25]
        lp = LinearProgram.build(
            rng.choice(("max", "min")), [coeff() for _ in range(width)], constraints, free=free
        )
        out = solve(lp)
        assert verify(lp, out)
        status, value = solve_lp_by_enumeration(lp)
        assert status is out.status
        if status is LpStatus.OPTIMAL:
            assert value == out.objective_value
        statuses.add(status)
    assert statuses == set(LpStatus)


def test_start_basis_is_made_feasible_by_sign():
    # x0 - x1 = -1 with x0 the start: its row comes out at -1, so the
    # opposite-sign column of x0 takes its place and no phase 1 runs
    one = Fraction(1)
    rows = [((one, -one), "=", -one)]
    columns = [(0, 1, -one), (1, 1, -one), (0, -1, -one), (1, -1, -one)]
    simplex = _Simplex(rows, columns, [0])
    assert simplex.basis == [2] and not simplex.artificials.intersection(simplex.basis)
    out = simplex.solve()
    assert out.status is LpStatus.OPTIMAL
    assert out.primal == (-1, 0) and out.objective_value == -1
    assert out.certificate == _Simplex(rows, columns).solve().certificate


def test_bad_start_is_refused(monkeypatch, capsys):
    # a start of the wrong length, a singular one or a negative row with no
    # opposite-sign column is an internal error, never an outcome
    from exchkit.cli import main

    one = Fraction(1)
    signed = [(0, 1, -one), (1, 1, -one), (0, -1, -one), (1, -1, -one)]
    rows = [((one, one), "=", one), ((one, 2 * one), "=", 2 * one)]
    assert _Simplex(rows, signed, [0, 1]).solve().primal == (0, 1)
    for start in ([0], [0, 1, 0], [0, 0], [0, 2], [1, 3], [0, 4], [0, -1]):
        with pytest.raises(AssertionError, match="simplex: "):
            _Simplex(rows, signed, start).solve()
    with pytest.raises(AssertionError, match="no opposite column"):
        _Simplex([((one,), "=", -one)], [(0, 1, -one)], [0])

    def repeated(args):
        args["start"] = [args["start"][0]] * len(args["start"])

    patch_simplex(monkeypatch, inputs=repeated)
    law = '{"alphabet": ["0","1"], "n": 2, "weights": {"1:1": "1"}}'
    assert main(["norm", law, "--N", "3"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "error: internal: simplex: pivot on zero entry\n"


def test_norm_program_stores_each_urn_column_once(monkeypatch):
    # {1:1:1 1/2, 3:0:0 1/2} at N=6: 28 urn columns, each declared with a
    # +1 and a -1 sign, over 10 equality rows (one artificial each) and the rhs
    tableaus = []

    def capture(tableau, args):
        rows = {len(row) for row in tableau.T}
        tableaus.append((args["columns"], len(tableau.T), rows, tableau.width))

    patch_simplex(monkeypatch, built=capture)
    law = ExchangeableLaw(
        Alphabet.of_size(3),
        3,
        {TypeVector((1, 1, 1)): Fraction(1, 2), TypeVector((3, 0, 0)): Fraction(1, 2)},
    )
    assert norm_EN(law, 6) > 1
    ((columns, nrows, row_widths, width),) = tableaus
    assert [(v, sign) for v, sign, _ in columns] == [
        *((v, 1) for v in range(28)),
        *((v, -1) for v in range(28)),
    ]
    assert nrows == 10
    assert row_widths == {28 + 10 + 1}
    assert width == 56 + 10


def test_bland_pivot_counts_are_pinned(monkeypatch):
    # Pivots per solve of norm and grid programs under Bland's rule, start
    # pivots included.  A rework of the pricing that keeps the rule keeps
    # them; a new entering rule or start changes them on purpose, and says
    # so here.  The norm rows changed when the norm program began at its
    # urn anchors and dropped phase 1: k3n3 at N=4..10 took 31, 58, 103,
    # 182, 262, 331 and 442 pivots from all-artificial rows, pairs at
    # N=3..6 took 32, 113, 188 and 294, and k3n3 at N=16 took 1,185.  Each
    # norm count now includes 10 start pivots, one per mass-n type.  The
    # grid rows run both phases as before and keep their counts.
    solves = []

    def pivots(decide):
        solves.clear()
        decide()
        # the objective row has the width of every stored row
        assert all(len(simplex.z) == len(simplex.T[0]) for simplex in solves)
        return [simplex.pivots for simplex in solves]

    patch_simplex(monkeypatch, built=lambda simplex, args: solves.append(simplex))
    k3n3 = ExchangeableLaw(
        Alphabet.of_size(3),
        3,
        {TypeVector((1, 1, 1)): Fraction(1, 2), TypeVector((3, 0, 0)): Fraction(1, 2)},
    )
    pairs, _ = disjoint_pairs_law()
    mixed = ExchangeableLaw(
        Alphabet.of_size(2),
        2,
        {
            TypeVector((2, 0)): Fraction(5, 32),
            TypeVector((1, 1)): Fraction(7, 16),
            TypeVector((0, 2)): Fraction(13, 32),
        },
    )
    assert [pivots(lambda: norm_EN(k3n3, N)) for N in range(4, 11)] == [
        [21], [26], [39], [56], [89], [110], [151]
    ]
    assert pivots(lambda: norm_EN(k3n3, 16)) == [337]
    assert [pivots(lambda: norm_EN(pairs, N)) for N in range(3, 7)] == [
        [31], [66], [106], [171]
    ]
    assert pivots(lambda: represent.signed_mixture(pairs, 8)) == [329]
    assert pivots(lambda: represent.signed_mixture(mixed, 4)) == [4]
