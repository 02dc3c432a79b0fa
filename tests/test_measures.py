"""Urn measures, their closed-form inversion, and product laws."""

import math
import random
from fractions import Fraction

import pytest

from exchkit.errors import CapacityError, InputError
from exchkit.measures import (
    ExchangeableLaw,
    InversionTable,
    _marginal,
    _min_total_variation,
    _mixture_type_weights,
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
    # marginalizing the n2-draw law to n1 coordinates is the n1-draw law:
    # two independent kernels, the count-pattern sum of _marginal against
    # the urn column
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
    # every ordered draw.  k = 4 reaches ties next to a zero slot (1:0:1:1,
    # 0:1:1:1), where the relabelling decides which symbol takes the anchor.
    for k in range(1, 5):
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
    # mu' = (1, 1), m = 2: each anchor lam' carries (-1)**(2 - |lam'|)
    # * 5 / 3 / C(5 - |lam'|, 3)
    table = invert_urn(T((1, 1, 2)), 5)
    assert dict(table.coeffs) == {
        T((0, 0, 5)): Fraction(1, 6),
        T((0, 1, 4)): Fraction(-5, 12),
        T((1, 0, 4)): Fraction(-5, 12),
        T((1, 1, 3)): Fraction(5, 3),
    }
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



def test_reconstruct_check_reads_no_urn_column(monkeypatch):
    import exchkit.measures as measures

    tables = [invert_urn(mu, N) for mu in (T((1, 1)), T((2, 0, 1)), T((1, 1, 1)))
              for N in (mu.mass, mu.mass + 2)]

    def unavailable(*args):
        raise AssertionError("reconstruct_check read an urn column")

    monkeypatch.setattr(measures, "_urn_column", unavailable)
    for table in tables:
        assert reconstruct_check(table)
        (nu, c), *rest = table.coeffs.items()
        bumped = dict(table.coeffs)
        bumped[nu] = c + Fraction(1, 2**70)
        assert not reconstruct_check(InversionTable(table.mu, table.N, bumped))
        if rest:  # the same total, moved to another urn
            kappa = rest[0][0]
            bumped[kappa] -= Fraction(1, 2**70)
            assert not reconstruct_check(InversionTable(table.mu, table.N, bumped))


def test_marginal_of_signed_inversion_tables():
    # every invert_urn table sums to the point mass on its target
    for k in range(1, 4):
        for N in range(0, 6):
            for n in range(0, N + 1):
                for mu in enumerate_types(k, n):
                    assert _marginal(invert_urn(mu, N).coeffs, k, n) == {mu: 1}
    # an empty table reproduces nothing; a mass-0 table its zero type
    assert _marginal({}, 2, 1) == {}
    assert not reconstruct_check(InversionTable(T((1, 0)), 2, {}))
    zero = invert_urn(T((0, 0)), 3)
    assert _marginal(zero.coeffs, 2, 0) == {T((0, 0)): 1}
    assert reconstruct_check(zero) and reconstruct_check(invert_urn(T((0, 0)), 0))
    assert _marginal({T((1, 0)): Fraction(1), T((0, 1)): Fraction(-1)}, 2, 0) == {}


def test_l1_depends_only_on_support_profile():
    # for fixed n and N the l1 norm is a function of the largest count m
    # alone, whatever k and the other counts; the max over classes is
    # finite and reported
    worst: dict[tuple[int, int, int], Fraction] = {}
    by_top: dict[tuple[int, int, int], Fraction] = {}
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
                    assert by_top.setdefault((n, N, max(mu.counts)), l1) == l1
                if by_profile:
                    worst[(k, n, N)] = max(by_profile.values())
    print("empirical max inversion l1 by (k, n, N):", worst)
    assert all(v >= 1 for v in worst.values())
    # summing |coefficient| over the anchors lam' with |lam'| = s leaves
    # C(n - m, s) by Vandermonde
    for (n, N, m), l1 in by_top.items():
        if N > n:
            scale = Fraction(math.comb(N, n) * (N - n), m + 1)
            total = sum(Fraction(math.comb(n - m, s), math.comb(N - s, m + 1))
                        for s in range(n - m + 1))
            assert l1 == scale * total, (n, N, m)
        else:
            assert l1 == 1


def _count_patterns(slots, mass):
    """Every count pattern (nonzero, nondecreasing) of at most ``slots``
    counts and mass 1 to ``mass``."""
    def grow(prefix, low, left):
        if prefix:
            yield prefix
        if len(prefix) < slots:
            for c in range(low, left + 1):
                yield from grow(prefix + (c,), c, left - c)

    return list(grow((), 1, mass))


def test_pattern_tables_reconstruct_their_targets():
    # reconstruct_check sums the draws of each anchor from binomials alone
    # (_draws), not from the closed form the tables evaluate
    patterns = _count_patterns(5, 8)
    assert len(patterns) == 59
    for pattern in patterns:
        n = sum(pattern)
        for N in (*range(n, n + 8), n + 20, 64):
            assert reconstruct_check(invert_urn(T(pattern), N)), (pattern, N)
    table = invert_urn(T((2, 2, 2, 2)), 200)
    assert len(table.coeffs) == 27  # one anchor per lam' <= (2, 2, 2)
    assert reconstruct_check(table)


def _ordered_support(mu: TypeVector) -> list[int]:
    # ascending count, then position: the order the inversion anchors use
    return sorted(mu.support(), key=lambda i: (mu.counts[i], i))


def test_invert_urn_is_its_pattern_table_relabelled():
    # the relabelling the transport relies on: a type's table is the table
    # of its count pattern, placed slot by slot onto its ordered support
    for k in range(1, 5):
        for n in range(1, 4):
            for mu in enumerate_types(k, n):
                sup = _ordered_support(mu)
                pattern = T(tuple(sorted(c for c in mu.counts if c)))
                for N in range(n, n + 4):
                    placed = {}
                    for local, c in invert_urn(pattern, N).coeffs.items():
                        counts = [0] * k
                        for i, m in zip(sup, local.counts):
                            counts[i] = m
                        placed[T(tuple(counts))] = c
                    assert dict(invert_urn(mu, N).coeffs) == placed, (mu, N)


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


def test_mixture_weights_share_one_fraction_per_value():
    # a uniform atom gives every type of one shape the same weight
    weights = product_law((Fraction(1, 3),) * 3, 3).weights
    assert len({id(w) for w in weights.values()}) == len(set(weights.values())) == 3


def test_product_law_rejects_non_distribution():
    with pytest.raises(InputError):
        product_law((Fraction(1, 2), Fraction(1, 3)), 2)
    with pytest.raises(InputError):
        product_law((Fraction(3, 2), Fraction(-1, 2)), 2)


def test_law_validation():
    alphabet = Alphabet(("a", "b"))
    with pytest.raises(InputError, match="weights keyed by TypeVector, got \\(1, 1\\)"):
        ExchangeableLaw(alphabet, 2, {(1, 1): Fraction(1)})
    with pytest.raises(InputError, match="type 1:1:0 has wrong width for k=2"):
        ExchangeableLaw(alphabet, 2, {T((1, 1, 0)): Fraction(1)})
    with pytest.raises(InputError, match="type 1:0 has mass 1, expected 2"):
        ExchangeableLaw(alphabet, 2, {T((1, 0)): Fraction(1)})
    with pytest.raises(InputError, match="negative weight at 2:0"):  # sums to 1
        ExchangeableLaw(alphabet, 2, {T((1, 1)): Fraction(3, 2), T((2, 0)): Fraction(-1, 2)})
    with pytest.raises(InputError, match="weights must sum to 1, got 1/2$"):
        ExchangeableLaw(alphabet, 2, {T((1, 1)): Fraction(1, 2)})
    with pytest.raises(InputError, match=f"sum to 1, got {2**70 - 1}/{2**70}$"):
        ExchangeableLaw(
            alphabet, 2, {T((1, 1)): Fraction(1, 2), T((2, 0)): Fraction(1, 2) - Fraction(1, 2**70)}
        )
    with pytest.raises(InputError, match="expected an exact rational, got float"):
        ExchangeableLaw(alphabet, 2, {T((1, 1)): 0.5, T((2, 0)): Fraction(1, 2)})
    law = ExchangeableLaw(
        alphabet, 2, {T((1, 1)): Fraction(1), T((2, 0)): Fraction(0)}
    )
    assert T((2, 0)) not in law.weights  # zeros dropped
    assert law.point_probability(T((1, 1))) == Fraction(1, 2)


def test_law_weights_are_coerced_and_sorted():
    alphabet = Alphabet(("a", "b"))
    law = ExchangeableLaw(alphabet, 2, {T((1, 1)): 1})
    assert type(law.weights[T((1, 1))]) is Fraction and law.weights[T((1, 1))] == 1
    third = Fraction(1, 3)
    shuffled = {T((0, 2)): third, T((2, 0)): third, T((1, 1)): third}
    law = ExchangeableLaw(alphabet, 2, shuffled)
    assert list(law.weights) == [T((0, 2)), T((1, 1)), T((2, 0))]
    assert law.weights == shuffled
    # zeros dropped from ordered input, the rest in their order
    half = Fraction(1, 2)
    ordered = {T((0, 0, 2)): half, T((0, 1, 1)): 0, T((1, 0, 1)): half, T((2, 0, 0)): Fraction(0)}
    law = ExchangeableLaw(Alphabet.of_size(3), 2, ordered)
    assert list(law.weights.items()) == [(T((0, 0, 2)), half), (T((1, 0, 1)), half)]


def test_law_n_must_be_a_positive_int():
    alphabet = Alphabet.of_size(2)
    for n in (2.0, True, 0, "2"):
        with pytest.raises(InputError, match="law: n must be a positive integer"):
            ExchangeableLaw(alphabet, n, {T((1, 1)): Fraction(1)})
    with pytest.raises(InputError, match="got True"):
        ExchangeableLaw(alphabet, True, {T((1, 0)): Fraction(1)})  # not read as n=1


def test_simplex_grid():
    grid = simplex_grid(2, 2)
    assert grid == [
        (Fraction(0), Fraction(1)),
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1), Fraction(0)),
    ]
    assert all(sum(theta) == 1 for theta in simplex_grid(3, 4))


def test_simplex_grid_respects_cap(monkeypatch):
    monkeypatch.setenv("EXCHKIT_CAP", "5")
    assert len(simplex_grid(2, 4)) == 5  # 5 grid points fit
    with pytest.raises(CapacityError, match="simplex grid: size 10"):
        simplex_grid(3, 3)


def test_product_law_respects_cap(monkeypatch):
    monkeypatch.setenv("EXCHKIT_CAP", "5")
    assert len(product_law((Fraction(1, 2), Fraction(1, 2)), 4).weights) == 5
    with pytest.raises(CapacityError, match="mass-n type space: size 10"):
        product_law((Fraction(1, 3),) * 3, 3)  # 10 mass-3 types over 3 symbols


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
    # a table built and cached under the default cap does not carry a
    # lookup past a cap lowered since
    monkeypatch.delenv("EXCHKIT_CAP")
    assert reconstruct_check(invert_urn(T((1, 1, 1)), 6))
    monkeypatch.setenv("EXCHKIT_CAP", "5")
    with pytest.raises(CapacityError, match="urn inversion types"):
        invert_urn(T((1, 1, 1)), 6)


def test_reconstruct_check_respects_cap(monkeypatch):
    table = invert_urn(T((1, 1, 1)), 6)
    monkeypatch.setenv("EXCHKIT_CAP", "5")
    with pytest.raises(CapacityError):
        reconstruct_check(table)  # walks all 10 mass-3 types


def _combine(weights, column):
    out = {}
    for key, w in weights.items():
        for mu, a in column(key):
            out[mu] = out.get(mu, Fraction(0)) + w * a
    return {mu: v for mu, v in out.items() if v}


def _pair(y, column):
    return sum((a * y[mu] for mu, a in column), Fraction(0))


def _grid_column(n):
    return lambda theta: _mixture_type_weights(((1, theta),), n).items()


def test_min_total_variation_contract():
    # read only the returned weights, value and dual, each keyed
    rng = random.Random(41)
    at_one = set()
    for k in (1, 2, 3):
        for n in (1, 2, 3):
            for _ in range(2):
                P = random_law(rng, k, n)
                urns = (
                    enumerate_types(k, n + rng.randint(0, 2)),
                    lambda nu, n=n: _urn_column(nu, n),
                )
                # a grid of depth >= n spans every mass-n type law
                grid = (simplex_grid(k, n + rng.randint(0, 1)), _grid_column(n))
                for keys, column in (urns, grid):
                    weights, value, y = _min_total_variation(P, keys, column)
                    assert list(weights) == [key for key in keys if key in weights]
                    assert _combine(weights, column) == dict(P.weights)
                    assert sum((abs(w) for w in weights.values()), Fraction(0)) == value
                    assert (value == 1) == all(w >= 0 for w in weights.values())
                    at_one.add(value == 1)
                    # y is the negated dual of the "min" program, by type
                    assert all(abs(_pair(y, column(key))) <= 1 for key in keys)
                    assert sum((y[mu] * P.weight(mu) for mu in y), Fraction(0)) == value
    assert at_one == {True, False}  # both mixtures and strictly signed optima


def test_min_total_variation_infeasible_grid():
    # the depth-1 grid holds only the two point masses, which miss 1:1
    P = product_law((Fraction(1, 3), Fraction(2, 3)), 2)
    keys, column = simplex_grid(2, 1), _grid_column(2)
    weights, value, y = _min_total_variation(P, keys, column)
    assert weights is None and value is None
    assert all(_pair(y, column(key)) == 0 for key in keys)
    assert sum((y[mu] * P.weight(mu) for mu in y), Fraction(0)) != 0
