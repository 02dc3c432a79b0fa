"""Symmetrization of type-indexed functions and expectations against laws.

A symmetric function on length-``m`` sequences is constant on type classes,
so it is stored as a map from mass-``m`` types to rationals; like a law's
weights, the map keeps only nonzero values, in increasing type order.  The
averaging operator implemented by :func:`apply_U` sends a mass-``n``
function to the mass-``N`` function whose value at an urn composition is the
expectation of the original under ``n`` draws without replacement::

    (U g)(nu) = sum_mu a(nu, mu) * g(mu)

It is a contraction for the sup norm, composes along ``n <= n2 <= n3``, and
has trivial kernel on type functions: if ``U g`` vanishes identically then
``g`` does.  The last fact is what makes "expected value of g" a well
defined function of ``U g`` and is the hinge of every decision procedure
downstream.

``apply_U`` checks every refutation, so it reads nothing a decider reads:
it sums in integers over the count-pattern draw tables of
``measures._draws``, not over the urn columns of the norm program.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .caps import ensure_within_cap
from .errors import InputError
from .measures import ExchangeableLaw, _draws
from .typespace import (
    Alphabet,
    TypeVector,
    _require_int,
    as_fraction,
    enumerate_types,
    type_count,
)


def _check_type(tv, k: int, m: int) -> None:
    """An input error unless ``tv`` is a type of width ``k`` and mass ``m``."""
    if not isinstance(tv, TypeVector):
        raise InputError(f"function: values keyed by TypeVector, got {tv!r}")
    counts = tv.counts
    if len(counts) != k:
        raise InputError(f"function: type {tv.typestring()} has wrong width for k={k}")
    if sum(counts) != m:
        raise InputError(
            f"function: type {tv.typestring()} has mass {sum(counts)}, expected {m}"
        )


@dataclass(frozen=True)
class SymmetricFunction:
    """Function on length-``m`` sequences that depends only on the type.

    ``values`` keeps the nonzero values only, in increasing type order, as
    :class:`~exchkit.measures.ExchangeableLaw` keeps its weights; an absent
    type reads as zero through :meth:`value`.  Input may be sparse or
    total; each key must be a mass-``m`` type of width ``k`` and each value
    an exact rational.
    """

    alphabet: Alphabet
    m: int
    values: Mapping[TypeVector, Fraction]

    def __post_init__(self):
        m = self.m
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise InputError(f"function: m must be a positive integer, got {m!r}")
        k = self.alphabet.size
        ensure_within_cap(type_count(k, m), "mass-m type space")
        kept: dict[TypeVector, Fraction] = {}
        for tv, v in self.values.items():
            _check_type(tv, k, m)
            v = as_fraction(v)
            if v:
                kept[tv] = v
        object.__setattr__(self, "values", MappingProxyType(dict(sorted(kept.items()))))

    @staticmethod
    def constant(alphabet: Alphabet, m: int, value: Fraction) -> "SymmetricFunction":
        ensure_within_cap(type_count(alphabet.size, m), "mass-m type space")
        return SymmetricFunction(
            alphabet, m, dict.fromkeys(enumerate_types(alphabet, m), value)
        )

    def value(self, tv: TypeVector) -> Fraction:
        """The value at ``tv``, zero if absent; a type of the wrong width or
        mass is an input error."""
        _check_type(tv, self.alphabet.size, self.m)
        return self.values.get(tv, Fraction(0))

    def is_zero(self) -> bool:
        return not self.values


def apply_U(g: SymmetricFunction, N: int) -> SymmetricFunction:
    """Average ``g`` over ``g.m`` draws without replacement from each
    mass-``N`` composition; output value at ``nu`` is
    ``sum_mu a(nu, mu) g(mu)``; like ``g``, the result keeps only its
    nonzero values.

    Summed in integers over ``L * C(N, n)``, with ``L`` the lcm of the
    denominators of ``g``: each ``nu`` reads the
    :func:`~exchkit.measures._draws` table of its count pattern and adds
    the draw's ways times ``g``'s numerator at the type it lands on.  No
    urn column is read, so a refutation is checked independently of the
    program it came from.
    """
    n = g.m
    if _require_int(N, "apply_U: N") < n:
        raise InputError(f"apply_U: need N >= m, got N={N} < m={n}")
    k = g.alphabet.size
    ensure_within_cap(type_count(k, N), "mass-N type space")
    common = math.lcm(*(v.denominator for v in g.values.values()))
    # g's numerators, keyed like a draw: (nonzero counts, symbols), one
    # symbol bare, as a one-slot itemgetter returns it
    numerators = {}
    for mu, v in g.values.items():
        sup = [i for i, c in enumerate(mu.counts) if c]
        key = (tuple(filter(None, mu.counts)), sup[0] if len(sup) == 1 else tuple(sup))
        numerators[key] = v.numerator * (common // v.denominator)
    denominator = common * math.comb(N, n)
    positions = range(k)
    out: dict[TypeVector, Fraction] = {}
    for nu in enumerate_types(k, N):
        counts = nu.counts
        sup = list(itertools.compress(positions, counts))
        total = 0
        for get, local, ways in _draws(tuple(filter(None, counts)), n):
            v = numerators.get((local, get(sup)))
            if v:
                total += ways * v
        if total:
            out[nu] = Fraction(total, denominator)
    return SymmetricFunction(g.alphabet, N, out)


def sup_norm(f: SymmetricFunction) -> Fraction:
    """Maximum absolute value over all types (the sup norm on sequences);
    zero for the zero function, whose map is empty."""
    return max((abs(v) for v in f.values.values()), default=Fraction(0))


def expectation(P: ExchangeableLaw, g: SymmetricFunction) -> Fraction:
    """``E g`` under ``P``: the weighted sum of class values."""
    if P.alphabet != g.alphabet:
        raise InputError("expectation: law and function use different alphabets")
    if P.n != g.m:
        raise InputError(f"expectation: mass mismatch, law n={P.n} vs function m={g.m}")
    return sum((w * g.value(mu) for mu, w in P.weights.items()), Fraction(0))


def kernel_check(g: SymmetricFunction, N: int) -> bool:
    """True iff the mass-``N`` symmetrization of ``g`` vanishes identically.

    On a finite alphabet this forces ``g`` itself to vanish (the averaging
    matrix has full column rank), which the test suite asserts as an
    invariant; the operation itself only reports the computable statement.
    """
    return apply_U(g, N).is_zero()


__all__ = [
    "SymmetricFunction",
    "apply_U",
    "expectation",
    "kernel_check",
    "sup_norm",
]
