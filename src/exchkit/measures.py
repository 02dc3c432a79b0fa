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
Row ``nu`` of that matrix is the *urn column* of ``nu``: the sparse list of
``(mu, a(nu, mu))`` pairs over the subtypes ``mu`` of ``nu``, built once per
``(nu, n)`` by ``_urn_column``.  Urn measures, marginals, the inversion,
the norm program and ``apply_U`` all read the matrix through it; only the
independent checks (``extend.marginal_matches`` and the CLI's brute-force
norm program) compute the coefficients on their own.

``invert_urn`` runs the converse direction: it expresses the uniform law on a
single mass-``n`` class as a finite *signed* combination of mass-``N`` urn
measures, by solving a lower-triangular system over the support of the
target type.  It peels the system one urn column at a time, from the last
row back, and never forms the dense matrix.  The l1 norm of those
coefficients depends only on the support profile of the target, which is
what keeps the extending-functional norm finite.

Both kinds of measure also serve as columns of the one program that
reproduces a law, the least total variation of a signed combination:
urn columns for the extension questions, grid product laws
(``_grid_columns``) for the mixture searches.  ``_min_total_variation``
builds and solves it; no other code knows its layout.

Everything here is exact rational arithmetic; no floats anywhere.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

from .caps import ensure_within_cap
from .errors import InputError
from .ratlp import LinearProgram, LpOutcome, LpStatus, solve
from .typespace import (
    Alphabet,
    RationalLike,
    TypeVector,
    _compositions,
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
        kept.sort()
        object.__setattr__(self, "weights", MappingProxyType(dict(kept)))

    def weight(self, tv: TypeVector) -> Fraction:
        return self.weights.get(tv, Fraction(0))

    def point_probability(self, tv: TypeVector) -> Fraction:
        """Probability of any single sequence whose type is ``tv``."""
        return self.weight(tv) / multiset_count(tv)

    def support(self) -> tuple[TypeVector, ...]:
        return tuple(self.weights)


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
    # math.comb(v, m) is 0 for m > v, which gives the zero off nu's subtypes.
    ways = math.prod(map(math.comb, nu.counts, mu.counts))
    return Fraction(ways, math.comb(nu.mass, mu.mass))


@lru_cache(maxsize=None)
def _urn_column(nu: TypeVector, n: int) -> tuple[tuple[TypeVector, Fraction], ...]:
    """The urn measure of ``nu`` at mass ``n`` as ``(mu, a(nu, mu))`` pairs,
    lexicographically increasing over the subtypes ``mu`` of ``nu``."""
    draws = math.comb(nu.mass, n)
    return tuple(
        (mu, Fraction(math.prod(map(math.comb, nu.counts, mu.counts)), draws))
        for mu in subtypes(nu, n)
    )


def _urn_mixture(
    weights: Iterable[tuple[TypeVector, Fraction]], n: int
) -> dict[TypeVector, Fraction]:
    """Type weights of ``sum_nu weights[nu] * urn(nu, n)`` at mass ``n``."""
    out: dict[TypeVector, Fraction] = {}
    for nu, w in weights:
        for mu, a in _urn_column(nu, n):
            out[mu] = out.get(mu, 0) + w * a
    return out


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
    ensure_within_cap(type_count(len(nu.support()), n), "urn draw types")
    return ExchangeableLaw(alphabet, n, dict(_urn_column(nu, n)))


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
    return ExchangeableLaw(alphabet, n, _mixture_type_weights(((1, probs),), n))


# A product-mixture atom: its weight and its product parameter theta.
Atom = tuple[Fraction, tuple[Fraction, ...]]


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
    return ExchangeableLaw(law.alphabet, m, _urn_mixture(law.weights.items(), m))


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
    n = mu.mass
    sup = sorted(mu.support(), key=lambda i: (mu.counts[i], i))
    lams: list[TypeVector] = []
    anchors: list[TypeVector] = []
    counts = [0] * mu.width
    for part in _compositions(n, len(sup)):
        for idx, c in zip(sup, part):
            counts[idx] = c
        lams.append(_make_type(tuple(counts)))
        counts[sup[-1]] += N - n
        anchors.append(_make_type(tuple(counts)))
    return lams, anchors


def invert_urn(mu: TypeVector, N: int) -> InversionTable:
    """Solve for coefficients ``c`` with ``u_mu = sum c[nu] * urn(nu, n)``.

    Works over the support of ``mu`` exactly as the triangularity argument
    dictates: row ``j`` of the system is the urn column of anchor ``j``,
    which holds only the lambdas of index ``<= j`` and lambda ``j`` itself
    with a positive coefficient.  Peeling the rows from the last one back
    solves it: a residual starts at the point mass on ``mu``, and each row
    takes its coefficient from the residual at its lambda and subtracts
    that multiple of its column.
    """
    n = mu.mass
    if N < n:
        raise InputError(f"invert_urn: need N >= mass of mu, got N={N} < {n}")
    if n == 0:
        # Zero-mass target: every urn projects to the empty law.
        anchor = TypeVector.delta(mu.width - 1, mu.width, N) if N else TypeVector((0,) * mu.width)
        return InversionTable(mu, N, {anchor: Fraction(1)})

    ensure_within_cap(type_count(len(mu.support()), n), "urn inversion types")
    lams, anchors = _anchored_types(mu, N)
    index = {lam: j for j, lam in enumerate(lams)}
    residual: dict[TypeVector, Fraction] = {mu: Fraction(1)}
    coeffs = [0] * len(lams)
    for j in range(len(lams) - 1, -1, -1):
        column = _urn_column(anchors[j], n)
        diagonal = 0
        for lam, a in column:
            i = index.get(lam, j + 1)  # a type off the lambda list is above the diagonal
            if i > j:
                raise AssertionError("invert_urn: system is not lower triangular")
            if i == j:
                diagonal = a
        if not diagonal:
            raise AssertionError("invert_urn: zero diagonal in triangular system")
        c = residual.get(lams[j], 0) / diagonal
        if c:
            coeffs[j] = c
            for lam, a in column:
                residual[lam] = residual.get(lam, 0) - c * a

    table = {anchor: c for anchor, c in zip(anchors, coeffs) if c}
    return InversionTable(mu, N, table)


def reconstruct_check(table: InversionTable) -> bool:
    """Exact verification that the table reproduces its target class law.

    True iff ``sum_nu coeffs[nu] * a(nu, kappa) == 1{kappa == mu}`` for
    every mass-``n`` type ``kappa``.
    """
    mu = table.mu
    n, k = mu.mass, mu.width
    if any(nu.width != k or nu.mass != table.N for nu in table.coeffs):
        return False
    ensure_within_cap(type_count(k, n), "mass-n type space")
    acc = _urn_mixture(table.coeffs.items(), n)
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


def _grid_columns(P: ExchangeableLaw, depth: int) -> tuple[list[tuple[Fraction, ...]], list]:
    """The depth-``depth`` grid parameters and the ``(type, weight)`` pairs
    of their product laws at mass ``P.n``."""
    ensure_within_cap(type_count(P.alphabet.size, depth), "simplex grid")
    thetas = simplex_grid(P.alphabet.size, depth)
    return thetas, [_mixture_type_weights(((1, t),), P.n).items() for t in thetas]


def _min_total_variation(
    P: ExchangeableLaw, columns: Sequence[Iterable[tuple[TypeVector, Fraction]]]
) -> tuple[Optional[list[Fraction]], LpOutcome]:
    """Least total variation of a signed combination of the sparse
    ``(type, weight)`` columns reproducing ``P``: the signed weight of each
    column (None unless OPTIMAL) and the outcome.  Its certificate has one
    entry per mass-``n`` type in ``enumerate_types`` order: at the optimum
    the row duals, whose negation ``y`` has ``|y . column| <= 1`` for every
    column and ``y . P`` equal to the value; otherwise a Farkas vector,
    orthogonal to every column but not to ``P``."""
    mus = enumerate_types(P.alphabet.size, P.n)
    index = {mu: r for r, mu in enumerate(mus)}
    width = len(columns)
    nvars = 2 * width
    # Variables: the positive parts of the weights, then the negative parts.
    # Each negative-part column is the negated positive-part column, so the
    # simplex stores the pair as one tableau column.
    zero = Fraction(0)
    rows = [[zero] * nvars for _ in mus]
    for v, column in enumerate(columns):
        for mu, coef in column:
            row = rows[index[mu]]
            row[v] = coef
            row[width + v] = -coef
    # Every entry is already a Fraction, so LinearProgram.build's coercion
    # is skipped; __post_init__ still checks the shapes.
    constraints = tuple((tuple(row), "=", P.weight(mu)) for row, mu in zip(rows, mus))
    lp = LinearProgram((Fraction(1),) * nvars, "min", constraints, (zero,) * nvars, (None,) * nvars)
    out = solve(lp)
    if out.status is not LpStatus.OPTIMAL:
        return None, out
    return [p - q if q else p for p, q in zip(out.primal, out.primal[width:])], out


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
