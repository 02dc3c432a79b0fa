"""Symmetrization of type-indexed functions and expectations against laws.

A symmetric function on length-``m`` sequences is constant on type classes,
so it is stored as a total map from mass-``m`` types to rationals.  The
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


def _all_types(alphabet: Alphabet, m: int) -> list[TypeVector]:
    """Every mass-``m`` type over ``alphabet``, after the cap check on
    their number."""
    ensure_within_cap(type_count(alphabet.size, m), "mass-m type space")
    return enumerate_types(alphabet, m)


@dataclass(frozen=True)
class SymmetricFunction:
    """Function on length-``m`` sequences that depends only on the type.

    ``values`` is total: every type of mass ``m`` has an entry (sparse input
    is filled with zeros by :meth:`from_values`).
    """

    alphabet: Alphabet
    m: int
    values: Mapping[TypeVector, Fraction]

    def __post_init__(self):
        m = self.m
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise InputError(f"function: m must be a positive integer, got {m!r}")
        full = _all_types(self.alphabet, m)
        clean: dict[TypeVector, Fraction] = {}
        for tv in full:
            if tv not in self.values:
                raise InputError(
                    f"function: missing value at type {tv.typestring()}; "
                    "use SymmetricFunction.from_values for sparse input"
                )
            clean[tv] = as_fraction(self.values[tv])
        if len(self.values) != len(full):
            raise InputError("function: values contain types of the wrong mass")
        object.__setattr__(self, "values", MappingProxyType(clean))

    @staticmethod
    def from_values(
        alphabet: Alphabet, m: int, values: Mapping[TypeVector, Fraction]
    ) -> "SymmetricFunction":
        """Build from a sparse map; absent types read as zero."""
        full = {tv: Fraction(0) for tv in _all_types(alphabet, m)}
        for tv, v in values.items():
            if tv not in full:
                raise InputError(
                    f"function: type {tv.typestring()} does not have mass {m}"
                )
            full[tv] = as_fraction(v)
        return SymmetricFunction(alphabet, m, full)

    @staticmethod
    def constant(alphabet: Alphabet, m: int, value: Fraction) -> "SymmetricFunction":
        value = as_fraction(value)
        return SymmetricFunction(
            alphabet, m, {tv: value for tv in _all_types(alphabet, m)}
        )

    def value(self, tv: TypeVector) -> Fraction:
        return self.values[tv]

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values.values())


def apply_U(g: SymmetricFunction, N: int) -> SymmetricFunction:
    """Average ``g`` over ``g.m`` draws without replacement from each
    mass-``N`` composition; output value at ``nu`` is
    ``sum_mu a(nu, mu) g(mu)``.

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
    # g's nonzero numerators, keyed like a draw: (nonzero counts, symbols),
    # one symbol bare, as a one-slot itemgetter returns it
    numerators = {}
    for mu, v in g.values.items():
        if v:
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
        out[nu] = Fraction(total, denominator)
    return SymmetricFunction(g.alphabet, N, out)


def sup_norm(f: SymmetricFunction) -> Fraction:
    """Maximum absolute value over all types (the sup norm on sequences)."""
    return max(abs(v) for v in f.values.values())


def expectation(P: ExchangeableLaw, g: SymmetricFunction) -> Fraction:
    """``E g`` under ``P``: the weighted sum of class values."""
    if P.alphabet != g.alphabet:
        raise InputError("expectation: law and function use different alphabets")
    if P.n != g.m:
        raise InputError(f"expectation: mass mismatch, law n={P.n} vs function m={g.m}")
    return sum((w * g.values[mu] for mu, w in P.weights.items()), Fraction(0))


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
