"""The norm program re-solved for a new law from its last optimal tableau.

``measures._min_total_variation`` keeps, per program matrix, the tableau of
its last optimum and re-seeds it with the next law's right-hand side
(``ratlp._Simplex.resolve``).  These tests hold the re-seeded solves to the
same answers and checks as first solves, and to the same caps.
"""

import random
from fractions import Fraction

import pytest

import exchkit.extend as extend
import exchkit.measures as measures
from exchkit.cli import main
from exchkit.errors import CapacityError
from exchkit.extend import check_extendible, norm_EN
from exchkit.measures import ExchangeableLaw, product_law
from exchkit.ratlp import _Simplex
from exchkit.typespace import Alphabet, TypeVector, enumerate_types

from helpers import assert_report_certified, patch_simplex, random_law

K3N3 = ExchangeableLaw(
    Alphabet.of_size(3),
    3,
    {TypeVector((1, 1, 1)): Fraction(1, 2), TypeVector((3, 0, 0)): Fraction(1, 2)},
)
K3N3_JSON = '{"alphabet": ["a","b","c"], "n": 3, "weights": {"1:1:1": "1/2", "3:0:0": "1/2"}}'
UNIFORM = product_law((Fraction(1, 3),) * 3, 3)


def _no_fast_paths(monkeypatch):
    monkeypatch.setattr(extend, "_transport_witness", lambda P, N, cap: None)
    monkeypatch.setattr(extend, "_staircase_steps", lambda P: None)


def _stored(k, n, N):
    """The stored tableau of the norm program at ``(k, n, N)``."""
    (simplex,) = measures._last_optimum(
        extend._urn_columns(n), tuple(enumerate_types(k, N)), k, n
    )
    return simplex


def _criterion_5_cases():
    rng = random.Random(2024)  # the laws of acceptance criterion 5
    laws = [random_law(rng, rng.randint(1, 3), rng.randint(1, 3), 12) for _ in range(200)]
    return [(law, N) for law in laws for N in range(law.n, 6)]


def test_warm_solve_equals_cold_on_criterion_5_laws(monkeypatch):
    # With the fast paths off every decision solves the norm program.  Each
    # law is decided from an empty store, then again right after the
    # previous law of the same (k, n) on the same N: same verdict, same
    # norm, both certified.  Right after that, norm_EN re-seeds the
    # tableau of the same law's optimum and needs no pivot.
    _no_fast_paths(monkeypatch)
    pivots = []
    pivot = _Simplex._pivot

    def counted(simplex, row, col):
        pivots.append(1)
        pivot(simplex, row, col)

    monkeypatch.setattr(_Simplex, "_pivot", counted)
    builds = []
    patch_simplex(monkeypatch, built=lambda simplex, args: builds.append(args))
    before = {}
    moved = warm_cases = 0
    cases = _criterion_5_cases()
    for law, N in cases:
        measures._last_optimum.cache_clear()
        cold = check_extendible(law, N)
        assert_report_certified(law, cold)
        other = before.get((law.alphabet.size, law.n, N))
        before[law.alphabet.size, law.n, N] = law
        if other is None:
            continue
        measures._last_optimum.cache_clear()
        check_extendible(other, N)
        builds.clear()
        warm = check_extendible(law, N)
        assert not builds  # re-seeded, not built
        assert (warm.verdict, warm.norm) == (cold.verdict, cold.norm)
        assert_report_certified(law, warm)
        moved += warm != cold
        warm_cases += 1
        pivots.clear()
        assert norm_EN(law, N) == cold.norm
        assert not pivots and not builds
    assert warm_cases > 400
    assert moved  # some warm optima are other vertices of the same norm


def test_stored_tableau_keys_never_mix_programs(monkeypatch):
    # One slot per (column function, column keys, k, n): the same mass-N
    # types under another n, or another N, are other programs.
    _no_fast_paths(monkeypatch)
    check_extendible(K3N3, 4)
    law = ExchangeableLaw(Alphabet.of_size(3), 2, {TypeVector((2, 0, 0)): Fraction(1, 3),
                                                   TypeVector((0, 1, 1)): Fraction(2, 3)})
    for N in (4, 5):
        assert_report_certified(law, check_extendible(law, N))
    assert measures._last_optimum.cache_info().currsize == 3
    assert _stored(3, 3, 4) is not _stored(3, 2, 4)


def test_corrupt_stored_tableau_raises_never_answers(monkeypatch, capsys):
    # One wrong entry of B^-1 in the stored tableau: the re-seeded solve
    # optimizes a wrong system, and the certificate checks refuse it.
    _no_fast_paths(monkeypatch)
    assert norm_EN(UNIFORM, 6) == 1
    simplex = _stored(3, 3, 6)
    unit = simplex.colmap[simplex.art_col[0]][0]
    simplex.T[0][unit] += simplex.den[0]
    with pytest.raises(AssertionError):
        check_extendible(K3N3, 6)
    code = main(["extend", K3N3_JSON, "--N", "6"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("error: internal: ") and err.count("\n") == 1


def test_warm_solve_reads_the_cap_afresh(monkeypatch, capsys):
    # From the uniform law's optimum, k3n3 at N=8 takes 98 pivots; a first
    # solve takes 89.  A cap of 90 passes the program's dimensions (2 * 45
    # columns) and the first solve, and stops the re-seeded one.
    with monkeypatch.context() as m:
        _no_fast_paths(m)
        assert norm_EN(UNIFORM, 8) == 1
    monkeypatch.setenv("EXCHKIT_CAP", "90")
    with pytest.raises(CapacityError, match="simplex pivots: size 91 exceeds resource cap 90"):
        check_extendible(K3N3, 8)
    # the failed re-seed left no tableau behind, so this is a first solve
    assert norm_EN(K3N3, 8) == Fraction(10, 3)
    monkeypatch.delenv("EXCHKIT_CAP")
    measures._last_optimum.cache_clear()
    with monkeypatch.context() as m:
        _no_fast_paths(m)
        assert norm_EN(UNIFORM, 8) == 1
    monkeypatch.setenv("EXCHKIT_CAP", "90")
    code = main(["norm", K3N3_JSON, "--N", "8"])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and err.count("\n") == 1 and "simplex pivots" in err


def test_program_dimensions_are_refused_before_the_store_is_read(monkeypatch):
    assert norm_EN(K3N3, 6) == Fraction(8, 3)  # 28 mass-6 types, 56 columns

    def read(*args):
        raise AssertionError("stored tableau read over the cap")

    monkeypatch.setattr(measures, "_last_optimum", read)
    monkeypatch.setenv("EXCHKIT_CAP", "55")
    with pytest.raises(CapacityError, match="lp dimensions: size 56"):
        check_extendible(K3N3, 6)


def test_store_keeps_a_fixed_number_of_programs(monkeypatch):
    _no_fast_paths(monkeypatch)
    size = measures._last_optimum.cache_info().maxsize
    law = product_law((Fraction(1, 2), Fraction(1, 2)), 1)
    for N in range(1, size + 6):
        assert norm_EN(law, N) == 1
        assert measures._last_optimum.cache_info().currsize == min(N, size)


def test_program_that_dropped_a_row_is_not_stored():
    # The depth-1 grid holds the two point masses, whose columns are 0 at
    # 1:1: phase 1 drops that row, so B^-1 no longer spans every row and
    # the tableau is not kept; the next law on the same columns starts over.
    def column(theta):
        return measures._mixture_type_weights(((1, theta),), 2).items()

    keys = measures.simplex_grid(2, 1)
    for a in (Fraction(1, 2), Fraction(1, 3)):
        P = ExchangeableLaw(Alphabet.of_size(2), 2, {TypeVector((2, 0)): a,
                                                     TypeVector((0, 2)): 1 - a})
        weights, value, _ = measures._min_total_variation(P, keys, column)
        assert value == 1 and list(weights.values()) == [1 - a, a]
        assert measures._last_optimum(column, tuple(keys), 2, 2) == []
