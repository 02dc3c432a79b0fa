"""The averaging operator: contraction, composition, kernel, adjoint."""

import random
from fractions import Fraction

import pytest

from exchkit.errors import CapacityError, InputError
from exchkit.measures import product_law, urn_measure
from exchkit.oracle import matrix_rank
from exchkit.symmetrize import (
    SymmetricFunction,
    apply_U,
    expectation,
    kernel_check,
    sup_norm,
)
from exchkit.typespace import Alphabet, TypeVector, enumerate_types
from exchkit.measures import urn_coefficient

from helpers import random_function

T = TypeVector
AB = Alphabet(("a", "b"))

SPIKE = SymmetricFunction(
    AB, 2, {T((2, 0)): Fraction(-1), T((1, 1)): Fraction(2), T((0, 2)): Fraction(-1)}
)


def test_apply_U_preserves_constants():
    one = SymmetricFunction.constant(AB, 2, Fraction(1))
    lifted = apply_U(one, 5)
    assert dict(lifted.values) == dict.fromkeys(enumerate_types(AB, 5), Fraction(1))


def test_apply_U_hand_example():
    lifted = apply_U(SPIKE, 3)
    assert dict(lifted.values) == {
        T((0, 3)): Fraction(-1),
        T((1, 2)): Fraction(1),
        T((2, 1)): Fraction(1),
        T((3, 0)): Fraction(-1),
    }
    assert sup_norm(lifted) == 1


def test_apply_U_requires_growth():
    with pytest.raises(InputError):
        apply_U(SPIKE, 1)


def test_sup_norm_examples():
    assert sup_norm(SymmetricFunction.constant(AB, 2, Fraction(0))) == 0
    assert sup_norm(apply_U(SPIKE, 3)) == 1
    assert sup_norm(SPIKE) == 2


def test_expectation_examples():
    P = product_law((Fraction(1, 2), Fraction(1, 2)), 2, AB)
    one = SymmetricFunction.constant(AB, 2, Fraction(1))
    assert expectation(P, one) == 1
    indicator = SymmetricFunction(AB, 2, {T((1, 1)): Fraction(1)})
    assert expectation(P, indicator) == Fraction(1, 2)
    uniform_mixed = urn_measure(T((1, 1)), 2, AB)
    assert expectation(uniform_mixed, SPIKE) == 2


def test_expectation_mass_mismatch():
    P = product_law((Fraction(1, 2), Fraction(1, 2)), 3, AB)
    with pytest.raises(InputError):
        expectation(P, SPIKE)


def test_kernel_check_zero_and_nonzero():
    zero = SymmetricFunction.constant(AB, 2, Fraction(0))
    assert kernel_check(zero, 4)
    assert not kernel_check(SPIKE, 4)


@pytest.mark.parametrize("k,n", [(k, n) for k in (1, 2, 3) for n in (1, 2, 3)])
def test_kernel_trivial_on_indicators(k, n):
    alphabet = Alphabet.of_size(k)
    for N in range(n, 7):
        for mu in enumerate_types(k, n):
            g = SymmetricFunction(alphabet, n, {mu: Fraction(1)})
            assert not kernel_check(g, N)


@pytest.mark.parametrize("k,n", [(k, n) for k in (1, 2, 3) for n in (1, 2, 3)])
def test_averaging_matrix_full_column_rank(k, n):
    # exact elimination: the kernel of the operator is trivial
    mus = enumerate_types(k, n)
    for N in range(n, 7):
        matrix = [
            [urn_coefficient(nu, mu) for mu in mus] for nu in enumerate_types(k, N)
        ]
        assert matrix_rank(matrix) == len(mus)


def test_composition_contraction_monotone():
    rng = random.Random(7)
    for k in (2, 3):
        alphabet = Alphabet.of_size(k)
        for n in (1, 2, 3):
            for _ in range(5):
                g = random_function(rng, alphabet, n)
                norms = [sup_norm(apply_U(g, N)) for N in range(n, n + 7)]
                assert norms[0] == sup_norm(g)  # U at N=n is the identity here
                assert all(a >= b for a, b in zip(norms, norms[1:]))  # monotone
                assert all(v <= sup_norm(g) for v in norms)  # contraction
                for n2 in range(n, n + 5):
                    for n3 in range(n2, n + 5):
                        assert apply_U(g, n3) == apply_U(apply_U(g, n2), n3)


def test_adjoint_identity():
    rng = random.Random(11)
    for k in (2, 3):
        alphabet = Alphabet.of_size(k)
        g = random_function(rng, alphabet, 2)
        for N in (2, 3, 4):
            lifted = apply_U(g, N)
            for nu in enumerate_types(k, N):
                law = urn_measure(nu, 2, alphabet)
                assert expectation(law, g) == lifted.value(nu)


def _brute_U(g, N):
    """(U g)(nu) as the sum of urn_coefficient(nu, mu) * g(mu) over every
    mass-m type mu, in Fractions, with the zero sums dropped as
    ``SymmetricFunction`` drops them."""
    mus = enumerate_types(g.alphabet.size, g.m)
    sums = {
        nu: sum((urn_coefficient(nu, mu) * g.value(mu) for mu in mus), Fraction(0))
        for nu in enumerate_types(g.alphabet.size, N)
    }
    return {nu: v for nu, v in sums.items() if v}


def test_apply_U_equals_the_brute_urn_sum():
    rng = random.Random(29)
    seen = set()
    for k in (1, 2, 3):
        alphabet = Alphabet.of_size(k)
        for n in (1, 2, 3):
            for _ in range(3):
                given = {
                    mu: Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5, 7)))
                    for mu in enumerate_types(k, n)
                }
                g = SymmetricFunction(alphabet, n, given)
                values = list(given.values())
                seen.update(("zero" for v in values if v == 0))
                seen.update(("negative" for v in values if v < 0))
                if len({v.denominator for v in values if v}) > 1:
                    seen.add("mixed denominators")
                for N in range(n, n + 4):
                    assert dict(apply_U(g, N).values) == _brute_U(g, N), (k, n, N)
            zero = SymmetricFunction.constant(alphabet, n, Fraction(0))
            assert apply_U(zero, n + 2).is_zero()
    assert seen == {"zero", "negative", "mixed denominators"}


def test_apply_U_reads_no_urn_column(monkeypatch):
    import sys

    rng = random.Random(31)
    cases = [(random_function(rng, Alphabet.of_size(k), n), N)
             for k, n, N in ((2, 2, 3), (3, 2, 5), (3, 3, 4), (4, 2, 4))]
    expected = [_brute_U(g, N) for g, N in cases]

    def unavailable(*args):
        raise AssertionError("apply_U read an urn column")

    for name, module in list(sys.modules.items()):
        if name.startswith("exchkit") and hasattr(module, "_urn_column"):
            monkeypatch.setattr(module, "_urn_column", unavailable)
    for (g, N), values in zip(cases, expected):
        assert dict(apply_U(g, N).values) == values
    assert sup_norm(apply_U(SPIKE, 3)) == 1


K3 = Alphabet.of_size(3)
FULL_MASS_4 = {tv: Fraction(1) for tv in enumerate_types(3, 4)}  # 15 types


@pytest.mark.parametrize(
    "build,stored",
    [
        (lambda: SymmetricFunction(K3, 4, FULL_MASS_4), 15),
        (lambda: SymmetricFunction(K3, 4, {T((1, 1, 2)): Fraction(1)}), 1),
        (lambda: SymmetricFunction.constant(K3, 4, Fraction(1)), 15),
    ],
    ids=["constructor", "sparse", "constant"],
)
def test_symmetric_function_respects_cap(monkeypatch, build, stored):
    monkeypatch.setenv("EXCHKIT_CAP", "15")
    assert len(build().values) == stored
    monkeypatch.setenv("EXCHKIT_CAP", "5")
    with pytest.raises(CapacityError, match="mass-m type space: size 15"):
        build()


def test_sparse_construction_and_totality():
    g = SymmetricFunction(AB, 2, {T((1, 1)): Fraction(1)})
    assert g.value(T((2, 0))) == 0
    with pytest.raises(InputError):
        SymmetricFunction(AB, 2, {T((1, 1, 1)): Fraction(1)})  # wrong width
    with pytest.raises(InputError):
        SymmetricFunction(AB, 2, {T((2, 1)): Fraction(1)})  # wrong mass


def test_sparse_input_equals_explicit_zeros():
    sparse = SymmetricFunction(AB, 2, {T((1, 1)): Fraction(1)})
    # given out of type order and with zeros, the same function is stored
    total = SymmetricFunction(AB, 2, {T((2, 0)): 0, T((1, 1)): 1, T((0, 2)): Fraction(0)})
    assert sparse == total
    assert dict(total.values) == {T((1, 1)): Fraction(1)}
    unordered = SymmetricFunction(AB, 2, {T((2, 0)): 1, T((0, 2)): 2})
    assert list(unordered.values) == [T((0, 2)), T((2, 0))]
    assert SymmetricFunction.constant(AB, 2, 0) == SymmetricFunction(AB, 2, {})


def test_value_is_strict_about_its_type():
    g = SymmetricFunction.constant(AB, 2, Fraction(1))
    assert g.value(T((0, 2))) == 1
    for tv, fault in ((T((1, 1, 0)), "1:1:0 has wrong width"), (T((2, 1)), "2:1 has mass 3")):
        with pytest.raises(InputError, match=fault):
            g.value(tv)
    with pytest.raises(InputError, match="keyed by TypeVector"):
        g.value((1, 1))


def test_apply_U_enumerates_the_mass_N_types_once(monkeypatch):
    import exchkit.symmetrize as symmetrize

    masses = []

    def counted(alphabet, mass):
        masses.append(mass)
        return enumerate_types(alphabet, mass)

    monkeypatch.setattr(symmetrize, "enumerate_types", counted)
    lifted = apply_U(SPIKE, 5)
    assert masses == [5]
    assert sup_norm(lifted) == 1


def test_m_must_be_a_positive_int():
    for m in (2.0, True, 0):
        with pytest.raises(InputError, match="function: m must be a positive integer"):
            SymmetricFunction(AB, m, {T((1, 1)): Fraction(1)})
    with pytest.raises(InputError):
        SymmetricFunction(AB, 2.0, {})


def test_apply_U_respects_cap(monkeypatch):
    g = SymmetricFunction(Alphabet(("a", "b", "c")), 1, {T((1, 0, 0)): Fraction(1)})
    monkeypatch.setenv("EXCHKIT_CAP", "5")
    with pytest.raises(CapacityError):
        apply_U(g, 6)  # 28 mass-6 types
    with pytest.raises(CapacityError):
        kernel_check(g, 6)
