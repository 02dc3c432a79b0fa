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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .caps import ensure_within_cap
from .errors import InputError
from .measures import ExchangeableLaw, _urn_column
from .typespace import Alphabet, TypeVector, as_fraction, enumerate_types, type_count


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
        if self.m < 1:
            raise InputError("function: m must be a positive integer")
        k = self.alphabet.size
        full = enumerate_types(k, self.m)
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
        full = {tv: Fraction(0) for tv in enumerate_types(alphabet.size, m)}
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
            alphabet, m, {tv: value for tv in enumerate_types(alphabet.size, m)}
        )

    def value(self, tv: TypeVector) -> Fraction:
        return self.values[tv]

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values.values())


def apply_U(g: SymmetricFunction, N: int) -> SymmetricFunction:
    """Average ``g`` over ``g.m`` draws without replacement from each
    mass-``N`` composition; output value at ``nu`` is
    ``sum_mu a(nu, mu) g(mu)``.
    """
    n = g.m
    if N < n:
        raise InputError(f"apply_U: need N >= m, got N={N} < m={n}")
    k = g.alphabet.size
    ensure_within_cap(type_count(k, N), "mass-N type space")
    out: dict[TypeVector, Fraction] = {}
    for nu in enumerate_types(k, N):
        acc = Fraction(0)
        for mu, a in _urn_column(nu, n):
            gv = g.values[mu]
            if gv:
                acc += a * gv
        out[nu] = acc
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
