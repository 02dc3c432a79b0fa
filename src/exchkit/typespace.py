"""Types on a finite alphabet: point measures of fixed total mass.

A sequence over a finite alphabet is summarized by its *type*: the vector of
occurrence counts, one per symbol.  Types of mass ``m`` over ``k`` symbols
are the integer compositions of ``m`` into ``k`` nonnegative parts; there are
``C(m + k - 1, k - 1)`` of them and they index everything else in this
library (urn measures, exchangeable laws, symmetric functions).

A :class:`TypeVector` is a one-field named tuple around its count tuple, so
maps keyed by types hash and compare in C, and sorting types is sorting
their count tuples.  All enumeration is in that lexicographic order, first
coordinate most significant.  The order is fixed here once and reused
wherever triangular structure is exploited.

Rationals are plain :class:`fractions.Fraction` values, which already
guarantee lowest terms and a positive denominator.  The helpers at the bottom
fix the ``"p/q"`` text form used by every JSON surface.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import le, sub
from typing import Iterable, Iterator, Sequence, Union

from .errors import InputError

#: Exact rational scalar used for every probability, weight and norm.
Rational = Fraction

RationalLike = Union[Fraction, int]


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int or Fraction to Fraction; floats are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise InputError(f"expected an exact rational, got {type(value).__name__}")


def format_fraction(value: Fraction) -> str:
    """Serialize as ``"p/q"`` (always with the denominator, e.g. ``"2/1"``)."""
    return f"{value.numerator}/{value.denominator}"


def parse_fraction(text: str) -> Fraction:
    """Parse ``"p/q"`` or a bare integer string."""
    if not isinstance(text, str):
        raise InputError(f"expected a fraction string, got {type(text).__name__}")
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad fraction string: {text!r}") from exc


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite alphabet of distinct text labels.

    The construction order is the order used for every lexicographic
    comparison of types, so two alphabets with the same labels in different
    orders are different alphabets.
    """

    symbols: tuple[str, ...]

    def __post_init__(self):
        if not isinstance(self.symbols, tuple):
            object.__setattr__(self, "symbols", tuple(self.symbols))
        if len(self.symbols) < 1:
            raise InputError("alphabet: must contain at least one symbol")
        for s in self.symbols:
            if not isinstance(s, str):
                raise InputError(f"alphabet: labels must be text, got {s!r}")
        if len(set(self.symbols)) != len(self.symbols):
            raise InputError("alphabet: labels must be pairwise distinct")

    @property
    def size(self) -> int:
        return len(self.symbols)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.symbols)}

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise InputError(f"alphabet: unknown symbol {symbol!r}") from None

    @staticmethod
    def of_size(k: int) -> "Alphabet":
        """Generic alphabet ``s1..sk`` for callers that only care about k."""
        if k < 1:
            raise InputError("alphabet: size must be >= 1")
        return Alphabet(tuple(f"s{i + 1}" for i in range(k)))


class TypeVector(namedtuple("TypeVector", "counts")):
    """Point measure on an alphabet: one nonnegative count per symbol.

    A one-field named tuple: hashing, equality and ordering are the
    tuple's own, done in C, and the order is exactly the lexicographic
    order of the count tuples used throughout.  A type never equals its
    bare count tuple, since ``((1, 2),) != (1, 2)``.
    """

    __slots__ = ()

    def __new__(cls, counts: Iterable[int]) -> "TypeVector":
        counts = tuple(counts)
        for c in counts:
            if not isinstance(c, int) or c < 0:
                raise InputError(f"type: counts must be nonnegative integers, got {c!r}")
        return tuple.__new__(cls, (counts,))

    @property
    def mass(self) -> int:
        return sum(self.counts)

    @property
    def width(self) -> int:
        """Number of alphabet slots (k)."""
        return len(self.counts)

    def le(self, other: "TypeVector") -> bool:
        """Componentwise ``<=`` (the partial order of point measures)."""
        if other.width != self.width:
            raise InputError("type: comparing types over different alphabets")
        return all(a <= b for a, b in zip(self.counts, other.counts))

    def add(self, other: "TypeVector") -> "TypeVector":
        if other.width != self.width:
            raise InputError("type: adding types over different alphabets")
        return TypeVector(tuple(a + b for a, b in zip(self.counts, other.counts)))

    def support(self) -> tuple[int, ...]:
        """Indices of symbols with positive count."""
        return tuple(i for i, c in enumerate(self.counts) if c > 0)

    def typestring(self) -> str:
        """Serialize as ``"c1:c2:...:ck"``."""
        return ":".join(str(c) for c in self.counts)

    @staticmethod
    def from_typestring(text: str, width: int | None = None) -> "TypeVector":
        if not isinstance(text, str):
            raise InputError(f"type: expected a typestring, got {type(text).__name__}")
        try:
            counts = tuple(int(part) for part in text.split(":"))
        except ValueError as exc:
            raise InputError(f"type: bad typestring {text!r}") from exc
        tv = TypeVector(counts)
        if width is not None and tv.width != width:
            raise InputError(
                f"type: typestring {text!r} has {tv.width} counts, expected {width}"
            )
        return tv

    @staticmethod
    def delta(index: int, width: int, mass: int = 1) -> "TypeVector":
        """``mass`` times the point mass at symbol ``index``."""
        if not 0 <= index < width:
            raise InputError(f"type: symbol index {index} out of range for k={width}")
        counts = [0] * width
        counts[index] = mass
        return TypeVector(tuple(counts))


def _make_type(counts: tuple[int, ...]) -> TypeVector:
    # Trusted fast path for hot loops: counts must already be a validated
    # tuple of nonnegative ints.  Public constructors keep full validation.
    return tuple.__new__(TypeVector, (counts,))


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    # Stars and bars: the parts - 1 bars sit at nondecreasing positions
    # 0 <= s_1 <= ... <= total, and the parts are the gaps between them.
    # combinations_with_replacement yields the positions in lexicographic
    # order, which is the lexicographic order of the compositions.
    first, last = (0,), (total,)
    for bars in itertools.combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(sub, bars + last, first + bars))


def enumerate_types(alphabet: Alphabet | int, mass: int) -> list[TypeVector]:
    """All types of the given mass, lexicographically increasing.

    ``alphabet`` may be an :class:`Alphabet` or just the number of symbols.
    The result has length ``C(mass + k - 1, k - 1)``; mass 0 yields the
    single zero type.
    """
    k = alphabet if isinstance(alphabet, int) else alphabet.size
    if k < 1:
        raise InputError("enumerate_types: alphabet must have k >= 1")
    if mass < 0:
        raise InputError("enumerate_types: mass must be >= 0")
    return [_make_type(c) for c in _compositions(mass, k)]


def type_count(k: int, mass: int) -> int:
    """``|N_mass(S)| = C(mass + k - 1, k - 1)`` without enumerating."""
    return math.comb(mass + k - 1, k - 1)


@lru_cache(maxsize=None)
def multiset_count(nu: TypeVector) -> int:
    """Number of sequences of type ``nu``: ``mass! / prod(counts!)``."""
    total = math.factorial(nu.mass)
    for c in nu.counts:
        total //= math.factorial(c)
    return total


def type_of(sequence: Sequence[int], alphabet: Alphabet) -> TypeVector:
    """Type of a sequence given as symbol indices into ``alphabet``."""
    counts = [0] * alphabet.size
    for idx in sequence:
        if not isinstance(idx, int) or not 0 <= idx < alphabet.size:
            raise InputError(f"type_of: symbol index {idx!r} out of range")
        counts[idx] += 1
    return TypeVector(tuple(counts))


def subtypes(nu: TypeVector, mass: int) -> Iterator[TypeVector]:
    """All types ``mu <= nu`` (componentwise) with the given mass.

    Lexicographically increasing.  This is the support of the law of
    ``mass`` draws without replacement from the urn ``nu``.  Zero-count
    slots of ``nu`` stay zero, so the compositions of ``mass`` over the
    support of ``nu`` are walked and those that fit under its counts are
    kept.  Mass 0 yields the zero type; a mass above ``nu``'s yields
    nothing.
    """
    if mass < 0:
        raise InputError("subtypes: mass must be >= 0")
    if mass > nu.mass:
        return
    counts = nu.counts
    # The zero urn has no support; one slot of count 0 gives its zero type.
    sup = [i for i, c in enumerate(counts) if c] or [0]
    caps = [counts[i] for i in sup]
    out = [0] * len(counts)
    for part in _compositions(mass, len(sup)):
        if all(map(le, part, caps)):
            for i, c in zip(sup, part):
                out[i] = c
            yield _make_type(tuple(out))


__all__ = [
    "Alphabet",
    "Rational",
    "TypeVector",
    "as_fraction",
    "enumerate_types",
    "format_fraction",
    "multiset_count",
    "parse_fraction",
    "subtypes",
    "type_count",
    "type_of",
]
