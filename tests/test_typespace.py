"""Type enumeration, counting, and the text forms."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from exchkit.errors import InputError
from exchkit.measures import ExchangeableLaw
from exchkit.ratlp import LinearProgram
from exchkit.typespace import (
    Alphabet,
    TypeVector,
    as_fraction,
    enumerate_types,
    format_fraction,
    multiset_count,
    parse_fraction,
    subtypes,
    type_count,
    type_of,
)

AB = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))


def test_enumerate_k2_mass2_exact_order():
    assert [t.counts for t in enumerate_types(AB, 2)] == [(0, 2), (1, 1), (2, 0)]


def test_enumerate_single_symbol():
    assert [t.counts for t in enumerate_types(1, 5)] == [(5,)]


def test_enumerate_types_matches_filtered_cube_in_order():
    # lexicographic order, k = 1 and mass 0 included
    for k in range(1, 5):
        for mass in range(6):
            cube = [c for c in itertools.product(range(mass + 1), repeat=k) if sum(c) == mass]
            assert [t.counts for t in enumerate_types(k, mass)] == cube


def test_enumerate_k3_mass4_against_brute_force():
    # Oracle: scan the full cube for 3-tuples summing to 4.
    brute = sorted(
        (a, b, c)
        for a in range(5)
        for b in range(5)
        for c in range(5)
        if a + b + c == 4
    )
    assert len(brute) == 15
    assert [t.counts for t in enumerate_types(ABC, 4)] == brute


def test_enumerate_mass_zero():
    assert [t.counts for t in enumerate_types(ABC, 0)] == [(0, 0, 0)]


@pytest.mark.parametrize("k,m", [(k, m) for k in range(1, 5) for m in range(0, 9)])
def test_counting_identity(k, m):
    types = enumerate_types(k, m)
    assert len(types) == type_count(k, m) == math.comb(m + k - 1, k - 1)
    assert sum(multiset_count(t) for t in types) == k**m
    # strictly increasing lexicographically, hence duplicate-free
    assert all(a < b for a, b in zip(types, types[1:]))


def test_type_count_rejects_what_enumerate_types_rejects():
    for k, mass in ((0, 2), (-1, 0), (2, -1), (1, -5)):
        with pytest.raises(InputError):
            enumerate_types(k, mass)
        with pytest.raises(InputError, match="type_count: "):
            type_count(k, mass)
    assert type_count(1, 0) == 1


def test_multiset_count_by_enumeration():
    # all length-3 words over {a,b} with two a's and one b
    words = [w for w in itertools.product(range(2), repeat=3) if w.count(0) == 2]
    assert multiset_count(TypeVector((2, 1))) == len(words) == 3


def test_multiset_count_degenerate_and_permutations():
    assert multiset_count(TypeVector((7, 0, 0))) == 1
    assert multiset_count(TypeVector((1, 1, 1))) == 6


def test_type_of_examples():
    assert type_of([0, 1, 0], AB).counts == (2, 1)
    zero = type_of([], AB)
    assert zero.counts == (0, 0) and zero.mass == 0
    assert type_of([1, 1, 1, 2], ABC).counts == (0, 3, 1)


def test_type_rejects_bool_counts():
    # True would hash and compare equal to 1, and print as "True"
    with pytest.raises(InputError, match="counts must be nonnegative integers, got True"):
        TypeVector((True, 1))


def test_bools_are_no_rationals():
    # True would read as 1: a law of weight True, a program maximizing True
    assert as_fraction(1) == 1 and as_fraction(Fraction(1, 2)) == Fraction(1, 2)
    for flag in (True, False):
        with pytest.raises(InputError, match="^expected an exact rational, got bool$"):
            as_fraction(flag)
    with pytest.raises(InputError, match="got bool"):
        ExchangeableLaw(Alphabet.of_size(1), 1, {TypeVector((1,)): True})
    with pytest.raises(InputError, match="got bool"):
        LinearProgram.build("max", [True])


def test_type_of_rejects_bad_index():
    with pytest.raises(InputError):
        type_of([0, 2], AB)


@given(st.lists(st.integers(min_value=0, max_value=2), max_size=6), st.randoms())
def test_type_of_permutation_invariant(seq, rng):
    shuffled = list(seq)
    rng.shuffle(shuffled)
    assert type_of(seq, ABC) == type_of(shuffled, ABC)


@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=5))
def test_typestring_round_trip(counts):
    tv = TypeVector(tuple(counts))
    assert TypeVector.from_typestring(tv.typestring()) == tv


@pytest.mark.parametrize(
    "text", ["1_0:0", "+1:0", " 1:0", "1:0 ", "\u0661:0", "1::0", "", "-1:2"]
)
def test_typestring_takes_only_ascii_digits(text):
    with pytest.raises(InputError, match="bad typestring"):
        TypeVector.from_typestring(text)


def test_typestring_width_check():
    with pytest.raises(InputError):
        TypeVector.from_typestring("1:2", 3)


def test_subtypes_match_filtered_enumeration():
    urns = [
        (2, 1, 3),
        (0, 2, 1),  # zero count first
        (2, 1, 0),  # zero count last
        (1, 0, 2),  # zero count in the middle
        (0, 3, 0, 0, 1),  # k = 5, zeros at both ends and inside
        (1, 2, 1, 0, 2),  # k = 5
        (4,),  # one symbol
        (0,),  # the zero urn on one symbol
        (0, 0, 0),  # the zero urn
    ]
    for counts in urns:
        nu = TypeVector(counts)
        k = len(counts)
        for m in range(0, nu.mass + 1):
            expected = [t for t in enumerate_types(k, m) if t.le(nu)]
            assert list(subtypes(nu, m)) == expected
        assert list(subtypes(nu, 0)) == [TypeVector((0,) * k)]
        assert list(subtypes(nu, nu.mass + 1)) == []
        assert list(subtypes(nu, nu.mass + 3)) == []
        with pytest.raises(InputError):
            list(subtypes(nu, -1))


def test_alphabet_validation():
    with pytest.raises(InputError):
        Alphabet(())
    with pytest.raises(InputError):
        Alphabet(("x", "x"))
    assert Alphabet.of_size(3).symbols == ("s1", "s2", "s3")


def test_fraction_text_forms():
    assert format_fraction(Fraction(2)) == "2/1"
    assert parse_fraction("3/16") == Fraction(3, 16)
    assert parse_fraction("-5") == Fraction(-5)
    assert parse_fraction("-3/4") == parse_fraction("3/-4") == Fraction(-3, 4)
    assert parse_fraction("-0") == 0 and parse_fraction("007/014") == Fraction(1, 2)
    with pytest.raises(InputError):
        parse_fraction("1/0")
    with pytest.raises(InputError):
        parse_fraction("0.5")


@pytest.mark.parametrize(
    "text",
    ["1_0/20", " +1/2", "\uff11/2", "1/ 2", "+1", "1/2 ", "1/+2", "--1", "1/", "/2", "-", ""],
)
def test_fraction_takes_only_ascii_digits(text):
    # each side is an optional "-" and ASCII digits; int() reads the first seven
    with pytest.raises(InputError, match="bad fraction string"):
        parse_fraction(text)


def test_type_vector_has_no_tuple_arithmetic():
    a, b = TypeVector((1, 0)), TypeVector((0, 1))
    for op in (lambda: a + b, lambda: a + (1,), lambda: (1,) + a, lambda: a * 2, lambda: 2 * a):
        with pytest.raises(TypeError, match=r"\.add"):
            op()
    assert a.add(b) == TypeVector((1, 1))
    # the tuple's own length and equality, which run in C, remain
    assert len(a) == 1 and a == ((1, 0),)


def test_lexicographic_dataclass_order():
    assert TypeVector((0, 2)) < TypeVector((1, 1)) < TypeVector((2, 0))


def test_type_vector_is_its_count_tuple_in_one_field():
    import pickle

    from exchkit.typespace import _make_type

    pairs = [(a, b) for a in enumerate_types(ABC, 2) for b in enumerate_types(ABC, 2)]
    for a, b in pairs:
        assert (a == b) == (a.counts == b.counts)
        assert (a < b) == (a.counts < b.counts)
    assert hash(TypeVector((1, 2))) == hash(TypeVector([1, 2]))
    assert len({TypeVector((1, 2)), TypeVector([1, 2]), TypeVector((2, 1))}) == 2
    assert TypeVector((1, 2)) != (1, 2) and (1, 2) not in {TypeVector((1, 2)): 0}
    assert repr(TypeVector((1, 2))) == "TypeVector(counts=(1, 2))"
    assert _make_type((0, 3, 1)) == TypeVector((0, 3, 1))
    tv = TypeVector((4, 0, 2))
    back = pickle.loads(pickle.dumps(tv))
    assert back == tv and type(back) is TypeVector and back.mass == 6
    with pytest.raises(AttributeError):
        tv.counts = (1, 1, 1)
    assert not hasattr(tv, "__dict__")
    for bad in ((1, -1), (1, 2.0), ("1",), (None,)):
        with pytest.raises(InputError):
            TypeVector(bad)
