"""Input checks of the public entry points: each bad argument is an
``InputError`` that names it, and the lookups that pass them answer."""

from fractions import Fraction

import pytest

from exchkit.corpus import coarse_convergence_check, dyadic_max_law
from exchkit.errors import InputError
from exchkit.extend import corollary_criterion, covariance_bound
from exchkit.measures import (
    ExchangeableLaw,
    invert_urn,
    marginalize,
    product_law,
    simplex_grid,
    urn_measure,
)
from exchkit.oracle import urn_law_by_enumeration
from exchkit.ratlp import LinearProgram
from exchkit.represent import SignedMixture, reconstruct, signed_mixture, tv_lower_bound
from exchkit.symmetrize import SymmetricFunction, expectation
from exchkit.typespace import Alphabet, TypeVector, parse_fraction

T = TypeVector
AB = Alphabet(("a", "b"))
HALF = Fraction(1, 2)
LAW = ExchangeableLaw(AB, 2, {T((2, 0)): HALF, T((0, 2)): HALF})
G = SymmetricFunction(AB, 2, {T((1, 1)): 1})
ONE = Fraction(1)

CASES = {
    "corollary_criterion N < n": (
        lambda: corollary_criterion(LAW, G, 1, HALF), "need N >= n, got N=1 < n=2"),
    "covariance_bound missing symbol": (
        lambda: covariance_bound(LAW, {"a": 1}), "embedding missing symbol 'b'"),
    "expectation across alphabets": (
        lambda: expectation(LAW, SymmetricFunction(Alphabet.of_size(2), 2, {})),
        "law and function use different alphabets"),
    "tv_lower_bound incompatible": (
        lambda: tv_lower_bound(LAW, SymmetricFunction(AB, 1, {}), 3),
        "law and function are not compatible"),
    "tv_lower_bound N < n": (
        lambda: tv_lower_bound(LAW, G, 1), "need N >= n, got N=1 < n=2"),
    "urn_measure n < 1": (lambda: urn_measure(T((1, 1)), 0), "n must be >= 1"),
    "urn_measure alphabet size": (
        lambda: urn_measure(T((1, 1)), 1, Alphabet.of_size(3)),
        "alphabet size does not match urn type"),
    "product_law n < 1": (lambda: product_law((HALF, HALF), 0), "n must be >= 1"),
    "product_law alphabet size": (
        lambda: product_law((HALF, HALF), 1, Alphabet.of_size(3)),
        "alphabet size does not match theta"),
    "marginalize m out of range": (
        lambda: marginalize(LAW, 3), "need 1 <= m <= n, got m=3, n=2"),
    "invert_urn N < n": (
        lambda: invert_urn(T((1, 1)), 1), "need N >= mass of mu, got N=1 < 2"),
    "simplex_grid depth < 1": (lambda: simplex_grid(2, 0), "depth must be >= 1"),
    "signed_mixture depth < 1": (
        lambda: signed_mixture(LAW, 0), "grid_depth must be >= 1"),
    "reconstruct n < 1": (
        lambda: reconstruct(SignedMixture(((ONE, (HALF, HALF)),)), 0), "n must be >= 1"),
    "Alphabet.index unknown": (lambda: AB.index("c"), "unknown symbol 'c'"),
    "Alphabet.of_size(0)": (lambda: Alphabet.of_size(0), "size must be >= 1"),
    "TypeVector.le across widths": (
        lambda: T((1, 1)).le(T((1, 1, 0))), "comparing types over different alphabets"),
    "TypeVector.add across widths": (
        lambda: T((1, 1)).add(T((1, 1, 0))), "adding types over different alphabets"),
    "from_typestring(3)": (
        lambda: TypeVector.from_typestring(3), "expected a typestring, got int"),
    "delta out of range": (
        lambda: TypeVector.delta(2, 2), "symbol index 2 out of range for k=2"),
    "parse_fraction(3)": (lambda: parse_fraction(3), "expected a fraction string, got int"),
    "LinearProgram bounds": (
        lambda: LinearProgram((ONE,), "max", (), (ONE - 1, ONE - 1), (None,)),
        "bounds must match the number of variables"),
    "LinearProgram lower bound": (
        lambda: LinearProgram((ONE,), "max", (), (ONE,), (None,)),
        "lower bounds must be 0 or None"),
    "dyadic_max_law level 0": (
        lambda: dyadic_max_law(0, [1]), "level must be >= 1"),
    "coarse_convergence_check level 0": (
        lambda: coarse_convergence_check([0], 1, [1]), "levels must be >= 1"),
    "urn_law_by_enumeration n > mass": (
        lambda: urn_law_by_enumeration(T((1, 1)), 3), "need 1 <= n <= 2, got 3"),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_bad_input_is_named(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert message in str(info.value)


def test_alphabet_index_and_law_support():
    assert [AB.index(s) for s in ("a", "b")] == [0, 1]
    assert LAW.support() == (T((0, 2)), T((2, 0)))
