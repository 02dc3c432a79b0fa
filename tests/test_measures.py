"""Urn measures, their triangular inversion, and product laws."""

import random
from fractions import Fraction

import pytest

from exchkit.errors import CapacityError, InputError
from exchkit.measures import (
    ExchangeableLaw,
    InversionTable,
    _grid_columns,
    _min_total_variation,
    _urn_column,
    invert_urn,
    marginalize,
    product_law,
    reconstruct_check,
    simplex_grid,
    urn_coefficient,
    urn_measure,
)
from exchkit.oracle import urn_law_by_enumeration
from exchkit.typespace import Alphabet, TypeVector, enumerate_types

from helpers import random_law

T = TypeVector


def test_urn_coefficient_examples():
    assert urn_coefficient(T((2, 1)), T((1, 1))) == Fraction(2, 3)
    assert urn_coefficient(T((3, 0)), T((2, 0))) == 1
    assert urn_coefficient(T((2, 1)), T((0, 2))) == 0  # mu not <= nu


def test_urn_coefficient_against_draw_oracle():
    nu = T((2, 1))
    oracle = urn_law_by_enumeration(nu, 2)
    assert oracle.weight(T((1, 1))) == urn_coefficient(nu, T((1, 1)))
    assert oracle.weight(T((2, 0))) == urn_coefficient(nu, T((2, 0)))


def test_urn_coefficient_errors():
    with pytest.raises(InputError):
        urn_coefficient(T((2, 1)), T((1, 1, 0)))
    with pytest.raises(InputError):
        urn_coefficient(T((1, 0)), T((1, 1)))


def test_urn_measure_2_2_exact():
    law = urn_measure(T((2, 2)), 2)
    assert dict(law.weights) == {
        T((0, 2)): Fraction(1, 6),
        T((1, 1)): Fraction(2, 3),
        T((2, 0)): Fraction(1, 6),
    }


def test_urn_measure_full_draw_is_point_mass():
    nu = T((1, 2, 1))
    law = urn_measure(nu, nu.mass)
    assert dict(law.weights) == {nu: Fraction(1)}


def test_urn_measure_single_color():
    law = urn_measure(T((5, 0)), 3)
    assert dict(law.weights) == {T((3, 0)): Fraction(1)}


def test_urn_measure_rejects_overdraw():
    with pytest.raises(InputError):
        urn_measure(T((1, 1)), 3)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_row_stochasticity(k):
    for N in range(1, 9):
        for nu in enumerate_types(k, N):
            for n in range(1, N + 1):
                total = sum(urn_coefficient(nu, mu) for mu in enumerate_types(k, n))
                assert total == 1


def test_projection_consistency():
    # marginalizing the n2-draw law to n1 coordinates is the n1-draw law
    for k in (2, 3):
        for N in range(2, 7):
            for nu in enumerate_types(k, N):
                for n2 in range(2, N + 1):
                    law = urn_measure(nu, n2)
                    for n1 in range(1, n2):
                        assert marginalize(law, n1) == urn_measure(nu, n1)
                    break  # one composition per nu keeps this quick
    # and iterated marginals compose
    law = urn_measure(T((3, 2, 1)), 5)
    assert marginalize(marginalize(law, 3), 2) == marginalize(law, 2)


def _sample_counts(k, N):
    # Every urn for k <= 3; for wider alphabets the ones with a zero count
    # plus a few without, to keep the sweep small.
    types = [tv.counts for tv in enumerate_types(k, N)]
    if k <= 3:
        return types
    return [c for c in types if 0 in c][::3] + [c for c in types if 0 not in c][:4]


def test_urn_column_matches_urn_coefficient():
    urns = [T(c) for k in range(1, 6) for N in range(0, 6) for c in _sample_counts(k, N)]
    for nu in urns:
        k, N = nu.width, nu.mass
        for n in range(0, N + 1):
            column = _urn_column(nu, n)
            expected = [
                (mu, urn_coefficient(nu, mu)) for mu in enumerate_types(k, n) if mu.le(nu)
            ]
            assert list(column) == expected
            assert sum(a for _, a in column) == 1


def test_invert_urn_against_draw_oracle():
    # Shares no code with invert_urn: the urn laws come from enumerating
    # every ordered draw.
    for k in range(1, 4):
        for n in range(1, 4):
            for mu in enumerate_types(k, n):
                for N in range(n, n + 3):
                    table = invert_urn(mu, N)
                    acc: dict[TypeVector, Fraction] = {}
                    for nu, c in table.coeffs.items():
                        for tau, w in urn_law_by_enumeration(nu, n).weights.items():
                            acc[tau] = acc.get(tau, Fraction(0)) + c * w
                    assert {tau: v for tau, v in acc.items() if v} == {mu: 1}


def test_invert_single_support():
    table = invert_urn(T((0, 3)), 7)
    assert dict(table.coeffs) == {T((0, 7)): Fraction(1)}
    assert reconstruct_check(table)


def test_invert_hand_example():
    table = invert_urn(T((1, 1)), 3)
    assert len(table.coeffs) <= 3
    assert dict(table.coeffs) == {T((0, 3)): Fraction(-1, 2), T((1, 2)): Fraction(3, 2)}
    assert table.l1 == 2
    assert reconstruct_check(table)


def test_invert_identity_when_N_equals_n():
    mu = T((2, 1))
    table = invert_urn(mu, 3)
    assert dict(table.coeffs) == {mu: Fraction(1)}


def test_invert_mass_zero():
    table = invert_urn(T((0, 0)), 4)
    assert reconstruct_check(table)
    assert table.l1 == 1


def test_reconstruct_check_rejects_perturbation():
    table = invert_urn(T((1, 1)), 3)
    bumped = {
        nu: (c + Fraction(1, 1000) if i == 0 else c)
        for i, (nu, c) in enumerate(table.coeffs.items())
    }
    assert not reconstruct_check(InversionTable(table.mu, table.N, bumped))


def test_l1_depends_only_on_support_profile():
    # for fixed n, N, k the l1 norm is a function of the multiset of
    # nonzero counts; the max over classes is finite and reported
    worst: dict[tuple[int, int, int], Fraction] = {}
    for k in (1, 2, 3):
        for n in range(0, 4):
            for N in range(n, 7):
                by_profile: dict[tuple[int, ...], Fraction] = {}
                for mu in enumerate_types(k, n):
                    profile = tuple(sorted(c for c in mu.counts if c))
                    l1 = invert_urn(mu, N).l1
                    if profile in by_profile:
                        assert by_profile[profile] == l1
                    else:
                        by_profile[profile] = l1
                if by_profile:
                    worst[(k, n, N)] = max(by_profile.values())
    print("empirical max inversion l1 by (k, n, N):", worst)
    assert all(v >= 1 for v in worst.values())


def test_product_law_examples():
    assert dict(product_law((Fraction(1), Fraction(0)), 3).weights) == {
        T((3, 0)): Fraction(1)
    }
    assert dict(product_law((Fraction(1, 2), Fraction(1, 2)), 2).weights) == {
        T((0, 2)): Fraction(1, 4),
        T((1, 1)): Fraction(1, 2),
        T((2, 0)): Fraction(1, 4),
    }
    assert dict(product_law((Fraction(1, 3), Fraction(2, 3)), 2).weights) == {
        T((0, 2)): Fraction(4, 9),
        T((1, 1)): Fraction(4, 9),
        T((2, 0)): Fraction(1, 9),
    }


def test_product_law_rejects_non_distribution():
    with pytest.raises(InputError):
        product_law((Fraction(1, 2), Fraction(1, 3)), 2)
    with pytest.raises(InputError):
        product_law((Fraction(3, 2), Fraction(-1, 2)), 2)


def test_law_validation():
    alphabet = Alphabet(("a", "b"))
    with pytest.raises(InputError):
        ExchangeableLaw(alphabet, 2, {T((1, 1)): Fraction(1, 2)})  # sums to 1/2
    with pytest.raises(InputError):
        ExchangeableLaw(alphabet, 2, {T((1, 1, 0)): Fraction(1)})  # wrong width
    with pytest.raises(InputError):
        ExchangeableLaw(alphabet, 2, {T((1, 0)): Fraction(1)})  # wrong mass
    with pytest.raises(InputError):  # sums to 1 - 2**-70
        ExchangeableLaw(
            alphabet, 2, {T((1, 1)): Fraction(1, 2), T((2, 0)): Fraction(1, 2) - Fraction(1, 2**70)}
        )
    with pytest.raises(InputError):  # sums to 1 with a negative weight
        ExchangeableLaw(alphabet, 2, {T((1, 1)): Fraction(3, 2), T((2, 0)): Fraction(-1, 2)})
    law = ExchangeableLaw(
        alphabet, 2, {T((1, 1)): Fraction(1), T((2, 0)): Fraction(0)}
    )
    assert T((2, 0)) not in law.weights  # zeros dropped
    assert law.point_probability(T((1, 1))) == Fraction(1, 2)


def test_simplex_grid():
    grid = simplex_grid(2, 2)
    assert grid == [
        (Fraction(0), Fraction(1)),
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1), Fraction(0)),
    ]
    assert all(sum(theta) == 1 for theta in simplex_grid(3, 4))


def test_urn_measure_respects_cap(monkeypatch):
    monkeypatch.setenv("EXCHKIT_CAP", "5")
    assert len(urn_measure(T((3, 3)), 3).weights) == 4  # 4 compositions fit
    with pytest.raises(CapacityError):
        urn_measure(T((3, 3, 3)), 3)  # 10 compositions of 3 over 3 symbols


def test_urn_law_by_enumeration_respects_cap(monkeypatch):
    monkeypatch.setenv("EXCHKIT_CAP", "5")
    assert len(urn_law_by_enumeration(T((1, 1)), 2).weights) == 1  # 2 ordered draws
    with pytest.raises(CapacityError):
        urn_law_by_enumeration(T((2, 1)), 2)  # (3)_2 = 6 ordered draws


def test_invert_urn_respects_cap(monkeypatch):
    monkeypatch.setenv("EXCHKIT_CAP", "5")
    assert reconstruct_check(invert_urn(T((1, 1)), 3))  # 3 mass-2 types fit
    with pytest.raises(CapacityError, match="urn inversion types"):
        invert_urn(T((1, 1, 1)), 6)  # 10 mass-3 types over 3 symbols


def test_reconstruct_check_respects_cap(monkeypatch):
    table = invert_urn(T((1, 1, 1)), 6)
    monkeypatch.setenv("EXCHKIT_CAP", "5")
    with pytest.raises(CapacityError):
        reconstruct_check(table)  # walks all 10 mass-3 types


def _combine(weights, columns):
    out = {}
    for w, column in zip(weights, columns):
        for mu, a in column:
            out[mu] = out.get(mu, Fraction(0)) + w * a
    return {mu: v for mu, v in out.items() if v}


def _pair(y, column):
    return sum((a * y[mu] for mu, a in column), Fraction(0))


def test_min_total_variation_contract():
    # read only the returned weights and the outcome's value and row duals
    rng = random.Random(41)
    at_one = set()
    for k in (1, 2, 3):
        for n in (1, 2, 3):
            for _ in range(2):
                P = random_law(rng, k, n)
                urns = [_urn_column(nu, n) for nu in enumerate_types(k, n + rng.randint(0, 2))]
                # a grid of depth >= n spans every mass-n type law
                grid = _grid_columns(P, n + rng.randint(0, 1))[1]
                for columns in (urns, grid):
                    weights, out = _min_total_variation(P, columns)
                    value = out.objective_value
                    assert _combine(weights, columns) == dict(P.weights)
                    assert sum((abs(w) for w in weights), Fraction(0)) == value
                    assert (value == 1) == all(w >= 0 for w in weights)
                    at_one.add(value == 1)
                    # the duals of a "min" program belong to its negated form
                    y = dict(zip(enumerate_types(k, n), (-c for c in out.certificate)))
                    assert all(abs(_pair(y, column)) <= 1 for column in columns)
                    assert sum((y[mu] * P.weight(mu) for mu in y), Fraction(0)) == value
    assert at_one == {True, False}  # both mixtures and strictly signed optima


def test_min_total_variation_infeasible_grid():
    # the depth-1 grid holds only the two point masses, which miss 1:1
    P = product_law((Fraction(1, 3), Fraction(2, 3)), 2)
    columns = _grid_columns(P, 1)[1]
    weights, out = _min_total_variation(P, columns)
    assert weights is None
    y = dict(zip(enumerate_types(2, 2), out.certificate))
    assert all(_pair(y, column) == 0 for column in columns)
    assert sum((y[mu] * P.weight(mu) for mu in y), Fraction(0)) != 0
