"""Exchangeable laws by type-class weights, urn measures, and their inversion.

An exchangeable law on length-``n`` sequences is stored by the total
probability of each type class; every point of class ``mu`` then carries
``weights[mu] / multiset_count(mu)``, so exchangeability is an invariant of
the representation rather than a property to check.

The central objects are the urn measures: ``urn_measure(nu, n)`` is the law
of the types of ``n`` ordered draws without replacement from an urn of
composition ``nu`` (mass ``N``), i.e. the multivariate hypergeometric type
distribution.  Its weights are the coefficients::

    a(nu, mu) = prod_b C(nu{b}, mu{b}) / C(N, n)      (0 unless mu <= nu)

which form a row-stochastic matrix from mass-``N`` types to mass-``n`` types.
``invert_urn`` runs the converse direction: it expresses the uniform law on a
single mass-``n`` class as a finite *signed* combination of mass-``N`` urn
measures, by solving a lower-triangular system over the support of the
target type.  The l1 norm of those coefficients depends only on the support
profile of the target, which is what keeps the extending-functional norm
finite.

Both kinds of measure also serve as the columns of the linear programs that
reproduce a law: urn measures for the extension questions, grid product
laws for the mixture searches.  ``_reproducing_lp`` builds every one of
those programs.

Everything here is exact rational arithmetic; no floats anywhere.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .caps import ensure_within_cap
from .errors import InputError
from .ratlp import LinearProgram
from .typespace import (
    Alphabet,
    RationalLike,
    TypeVector,
    _make_type,
    as_fraction,
    enumerate_types,
    multiset_count,
    subtypes,
    type_count,
)

WeightMap = Mapping[TypeVector, Fraction]


@dataclass(frozen=True)
class ExchangeableLaw:
    """Exchangeable probability law on length-``n`` sequences.

    ``weights[mu]`` is the TOTAL probability of the type class of ``mu``;
    zero-weight classes are dropped, so equality of laws is equality of the
    stored maps.  Weights must be nonnegative rationals summing to one.
    """

    alphabet: Alphabet
    n: int
    weights: WeightMap

    def __post_init__(self):
        if self.n < 1:
            raise InputError("law: n must be a positive integer")
        k = self.alphabet.size
        kept: list[tuple[TypeVector, Fraction]] = []
        for tv, w in self.weights.items():
            if not isinstance(tv, TypeVector):
                raise InputError(f"law: weights keyed by TypeVector, got {tv!r}")
            if tv.width != k:
                raise InputError(f"law: type {tv.typestring()} has wrong width for k={k}")
            if tv.mass != self.n:
                raise InputError(
                    f"law: type {tv.typestring()} has mass {tv.mass}, expected {self.n}"
                )
            w = as_fraction(w)
            if w.numerator < 0:
                raise InputError(f"law: negative weight at {tv.typestring()}")
            if w.numerator:
                kept.append((tv, w))
        # One exact integer sum over the common denominator of the weights.
        common = math.lcm(*(w.denominator for _, w in kept))
        total = sum(w.numerator * (common // w.denominator) for _, w in kept)
        if total != common:
            raise InputError(f"law: weights must sum to 1, got {Fraction(total, common)}")
        kept.sort(key=lambda item: item[0].counts)
        object.__setattr__(self, "weights", MappingProxyType(dict(kept)))

    def weight(self, tv: TypeVector) -> Fraction:
        return self.weights.get(tv, Fraction(0))

    def point_probability(self, tv: TypeVector) -> Fraction:
        """Probability of any single sequence whose type is ``tv``."""
        return self.weight(tv) / multiset_count(tv)

    def support(self) -> tuple[TypeVector, ...]:
        return tuple(self.weights)


@lru_cache(maxsize=None)
def _urn_coeff(nu_counts: tuple[int, ...], mu_counts: tuple[int, ...]) -> Fraction:
    total = 1
    for vb, mb in zip(nu_counts, mu_counts):
        if mb:
            if mb > vb:
                return Fraction(0)
            total *= math.comb(vb, mb)
    n, big_n = sum(mu_counts), sum(nu_counts)
    return Fraction(total, math.comb(big_n, n))


def urn_coefficient(nu: TypeVector, mu: TypeVector) -> Fraction:
    """Probability that ``n`` draws without replacement from urn ``nu``
    have type ``mu``; zero unless ``mu <= nu`` componentwise.
    """
    if nu.width != mu.width:
        raise InputError("urn_coefficient: types over different alphabets")
    if mu.mass > nu.mass:
        raise InputError(
            f"urn_coefficient: draw mass {mu.mass} exceeds urn mass {nu.mass}"
        )
    return _urn_coeff(nu.counts, mu.counts)


def urn_measure(nu: TypeVector, n: int, alphabet: Alphabet | None = None) -> ExchangeableLaw:
    """Law of ``n`` ordered draws without replacement from urn ``nu``.

    ``alphabet`` defaults to a generic one of matching size; pass the real
    alphabet when the labels matter (serialization, covariance embeddings).
    """
    if n < 1:
        raise InputError("urn_measure: n must be >= 1")
    if n > nu.mass:
        raise InputError(f"urn_measure: cannot draw {n} from urn of mass {nu.mass}")
    if alphabet is None:
        alphabet = Alphabet.of_size(nu.width)
    elif alphabet.size != nu.width:
        raise InputError("urn_measure: alphabet size does not match urn type")
    weights = {mu: urn_coefficient(nu, mu) for mu in subtypes(nu, n)}
    return ExchangeableLaw(alphabet, n, weights)


def product_law(
    theta: Sequence[RationalLike], n: int, alphabet: Alphabet | None = None
) -> ExchangeableLaw:
    """Type law of ``n`` i.i.d. draws from the distribution ``theta``
    (the multinomial type law): ``weights[mu] = multiset_count(mu) *
    prod_a theta_a ** mu{a}``.
    """
    probs = tuple(as_fraction(t) for t in theta)
    if any(p < 0 for p in probs):
        raise InputError("product_law: theta must be componentwise nonnegative")
    if sum(probs) != 1:
        raise InputError(f"product_law: theta must sum to 1, got {sum(probs)}")
    if n < 1:
        raise InputError("product_law: n must be >= 1")
    k = len(probs)
    if alphabet is None:
        alphabet = Alphabet.of_size(k)
    elif alphabet.size != k:
        raise InputError("product_law: alphabet size does not match theta")
    return ExchangeableLaw(alphabet, n, _product_type_weights(probs, n))


def _product_type_weights(theta: Sequence[Fraction], n: int) -> dict[TypeVector, Fraction]:
    """Multinomial type weights of one product law (see :func:`_mixture_type_weights`)."""
    return _mixture_type_weights(((1, theta),), n)


def _mixture_type_weights(
    atoms: Iterable[tuple[RationalLike, Sequence[Fraction]]], n: int
) -> dict[TypeVector, Fraction]:
    """Type weights of ``sum_j w_j * product_law(theta_j, n)``.

    The weights may have either sign.  Zero entries are dropped and the
    types come out lexicographically increasing.  Every atom is put over
    one common denominator ``L = lcm_j(w_j.den * D_j**n)``, with ``D_j``
    the lcm of the denominators of ``theta_j``, so that each
    (atom, type) pair costs integer multiplies only and each output entry
    a single Fraction.
    """
    prepared = []
    for w, theta in atoms:
        sup = [i for i, p in enumerate(theta) if p]
        common = math.lcm(*(theta[i].denominator for i in sup))
        prepared.append((w, theta, sup, common))
    denominator = math.lcm(*(w.denominator * common**n for w, _, _, common in prepared))
    acc: dict[tuple[int, ...], int] = {}
    for w, theta, sup, common in prepared:
        scale = w.numerator * (denominator // (w.denominator * common**n))
        base = [0] * len(theta)
        for pos in sup:
            base[pos] = theta[pos].numerator * (common // theta[pos].denominator)
        counts = [0] * len(theta)
        # A mass-n type on the support is a multiset of n support symbols.
        # Its weight over D**n is the multinomial times the product of the
        # drawn bases; the multinomial i! / prod(c!) is kept exact step by
        # step as the draw grows.
        for draw in itertools.combinations_with_replacement(sup, n):
            ways = power = 1
            for i, pos in enumerate(draw, 1):
                c = counts[pos] + 1
                counts[pos] = c
                ways = ways * i // c
                power *= base[pos]
            key = tuple(counts)
            acc[key] = acc.get(key, 0) + scale * ways * power
            for pos in draw:
                counts[pos] = 0
    return {_make_type(c): Fraction(v, denominator) for c, v in sorted(acc.items()) if v}


def marginalize(law: ExchangeableLaw, m: int) -> ExchangeableLaw:
    """Law of the first ``m`` coordinates, still by type weights.

    Composition with the urn coefficients: ``out[tau] = sum_mu
    weights[mu] * a(mu, tau)``; exact, and consistent under iteration.
    """
    if not 1 <= m <= law.n:
        raise InputError(f"marginalize: need 1 <= m <= n, got m={m}, n={law.n}")
    if m == law.n:
        return law
    out: dict[TypeVector, Fraction] = {}
    for mu, w in law.weights.items():
        for tau in subtypes(mu, m):
            out[tau] = out.get(tau, Fraction(0)) + w * urn_coefficient(mu, tau)
    return ExchangeableLaw(law.alphabet, m, out)


@dataclass(frozen=True)
class InversionTable:
    """Signed coefficients expressing one mass-``n`` class law in terms of
    mass-``N`` urn measures: ``u_mu = sum_nu coeffs[nu] * urn(nu, n)``.

    ``l1`` is the total absolute mass of the coefficients; for fixed
    ``(n, N, k)`` it depends only on the multiset of nonzero counts of
    ``mu``, which is what bounds the extending functional uniformly.
    """

    mu: TypeVector
    N: int
    coeffs: WeightMap

    def __post_init__(self):
        object.__setattr__(self, "coeffs", MappingProxyType(dict(self.coeffs)))

    @property
    def n(self) -> int:
        return self.mu.mass

    @property
    def l1(self) -> Fraction:
        return sum((abs(c) for c in self.coeffs.values()), Fraction(0))


def _anchored_types(mu: TypeVector, N: int) -> tuple[list[TypeVector], list[TypeVector]]:
    """Support-restricted mass-n types and their mass-N anchors.

    The support of ``mu`` is ordered by ascending count (alphabet position
    breaks ties); for each lambda of mass n supported there, the anchor is
    ``lambda + (N - n) * delta_last`` with ``last`` the final element of
    that order, and the list comes back in the induced lexicographic order.
    Ordering by count (any total order works for triangularity) makes the
    resulting coefficients, and hence their l1 norm, depend only on the
    multiset of nonzero counts of ``mu``.
    """
    n, k = mu.mass, mu.width
    sup = sorted(mu.support(), key=lambda i: (mu.counts[i], i))
    last = sup[-1]
    lams: list[TypeVector] = []
    anchors: list[TypeVector] = []
    # Enumerate compositions of n over the support slots, embedded in width k.
    def rec(pos: int, remaining: int, acc: list[int]):
        if pos == len(sup) - 1:
            counts = [0] * k
            for idx, c in zip(sup, acc):
                counts[idx] = c
            counts[sup[-1]] = remaining
            base = list(counts)
            lams.append(TypeVector(tuple(counts)))
            base[last] += N - n
            anchors.append(TypeVector(tuple(base)))
            return
        for c in range(remaining + 1):
            rec(pos + 1, remaining - c, acc + [c])

    rec(0, n, [])
    return lams, anchors


def invert_urn(mu: TypeVector, N: int) -> InversionTable:
    """Solve for coefficients ``c`` with ``u_mu = sum c[nu] * urn(nu, n)``.

    Works over the support of ``mu`` exactly as the triangularity argument
    dictates: the anchored coefficient matrix is lower triangular with
    positive diagonal in lexicographic order, so a single back substitution
    yields the row of the inverse selected by ``mu``.
    """
    n = mu.mass
    if N < n:
        raise InputError(f"invert_urn: need N >= mass of mu, got N={N} < {n}")
    if n == 0:
        # Zero-mass target: every urn projects to the empty law.
        anchor = TypeVector.delta(mu.width - 1, mu.width, N) if N else TypeVector((0,) * mu.width)
        return InversionTable(mu, N, {anchor: Fraction(1)})

    lams, anchors = _anchored_types(mu, N)
    size = len(lams)
    # matrix[i][j] = a(anchor_i, lam_j); lower triangular, positive diagonal.
    matrix = [[urn_coefficient(anchors[i], lams[j]) for j in range(size)] for i in range(size)]
    for i in range(size):
        if matrix[i][i] == 0:
            raise AssertionError("invert_urn: zero diagonal in triangular system")
        for j in range(i + 1, size):
            if matrix[i][j] != 0:
                raise AssertionError("invert_urn: system is not lower triangular")

    target = lams.index(mu)
    coeffs = [Fraction(0)] * size
    # Row vector c with  c . matrix = e_target : back substitution over columns.
    for j in range(size - 1, -1, -1):
        rhs = Fraction(1 if j == target else 0)
        rhs -= sum((coeffs[i] * matrix[i][j] for i in range(j + 1, size)), Fraction(0))
        coeffs[j] = rhs / matrix[j][j]

    table = {anchors[j]: coeffs[j] for j in range(size) if coeffs[j] != 0}
    return InversionTable(mu, N, table)


def reconstruct_check(table: InversionTable) -> bool:
    """Exact verification that the table reproduces its target class law.

    True iff ``sum_nu coeffs[nu] * a(nu, kappa) == 1{kappa == mu}`` for
    every mass-``n`` type ``kappa``.
    """
    mu = table.mu
    n, k = mu.mass, mu.width
    acc: dict[TypeVector, Fraction] = {}
    for nu, c in table.coeffs.items():
        if nu.width != k or nu.mass != table.N:
            return False
        for kappa in subtypes(nu, n):
            acc[kappa] = acc.get(kappa, Fraction(0)) + c * urn_coefficient(nu, kappa)
    for kappa in enumerate_types(k, n):
        expected = Fraction(1) if kappa == mu else Fraction(0)
        if acc.get(kappa, Fraction(0)) != expected:
            return False
    return True


def simplex_grid(k: int, depth: int) -> list[tuple[Fraction, ...]]:
    """All probability vectors on ``k`` symbols with coordinates ``j/depth``.

    Lexicographically increasing; there are ``C(depth + k - 1, k - 1)``.
    """
    if depth < 1:
        raise InputError("simplex_grid: depth must be >= 1")
    return [
        tuple(Fraction(c, depth) for c in tv.counts) for tv in enumerate_types(k, depth)
    ]


def _reproducing_lp(
    P: ExchangeableLaw, columns: Sequence[WeightMap], signed: bool
) -> LinearProgram:
    """The program "combine the columns into ``P``": one row per mass-``n``
    type, one sparse column of type weights per candidate measure.

    Unsigned, the variables are nonnegative column weights and the objective
    is 0: a feasibility program for a nonnegative mixture.  Signed, they are
    the positive parts then the negative parts of the weights, and the
    objective is their sum: the least total variation of a signed
    combination.  The row duals of the signed program are a function on the
    mass-``n`` types bounded by 1 in absolute value on every column.
    """
    mus = enumerate_types(P.alphabet.size, P.n)
    index = {mu: r for r, mu in enumerate(mus)}
    width = len(columns)
    nvars = 2 * width if signed else width
    rows = [[Fraction(0)] * nvars for _ in mus]
    for v, column in enumerate(columns):
        for mu, coef in column.items():
            rows[index[mu]][v] = coef
            if signed:
                rows[index[mu]][width + v] = -coef
    constraints = [(row, "=", P.weight(mu)) for row, mu in zip(rows, mus)]
    return LinearProgram.build("min", [1 if signed else 0] * nvars, constraints)


def _grid_program(
    P: ExchangeableLaw, depth: int, signed: bool
) -> tuple[list[tuple[Fraction, ...]], LinearProgram]:
    """The depth-``depth`` grid parameters and the program reproducing ``P``
    from their product laws (see :func:`_reproducing_lp`)."""
    ensure_within_cap(type_count(P.alphabet.size, depth), "simplex grid")
    thetas = simplex_grid(P.alphabet.size, depth)
    columns = [_product_type_weights(theta, P.n) for theta in thetas]
    return thetas, _reproducing_lp(P, columns, signed)


__all__ = [
    "ExchangeableLaw",
    "InversionTable",
    "invert_urn",
    "marginalize",
    "product_law",
    "reconstruct_check",
    "simplex_grid",
    "urn_coefficient",
    "urn_measure",
]
