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
``(nu, n)`` by ``_urn_column`` for its one reader, the norm program of
``extend.check_extendible``.  Everything else reads ``_draws``, one cached
table of the draws of ``n`` from an urn of one count pattern, built from
binomials alone: ``_marginal``, the one ``n``-marginal of an urn
combination (read by ``urn_measure``, ``marginalize``,
``reconstruct_check``, ``extend.marginal_matches`` and the norm program's
check), and ``symmetrize.apply_U``, which checks refutations.  The CLI's
brute-force norm program computes the coefficients on its own.

``invert_urn`` runs the converse direction: it expresses the uniform law on a
single mass-``n`` class as a finite *signed* combination of mass-``N`` urn
measures.  The coefficients depend on the target only through its count
pattern and have a closed form, a product of binomials that binomial
inversion gives; ``_pattern_table`` evaluates it once per pattern, and no
urn column or triangular system is formed.  ``_transport`` is
the one reader of those cached tables: it relabels each onto a support
ordered by ``_support_order`` and sums a whole combination of class laws
in integers, and ``_type_weights`` is the one builder of weights from
such sums.  ``invert_urn`` is the transport of a single class, and
``extend`` decides with the transport of a law.  The l1 norm of the
coefficients depends only on the support profile of the target, which is
what keeps the extending-functional norm finite.

Both kinds of measure also serve as columns of the one program that
reproduces a law, the least total variation of a signed combination:
urn columns keyed by mass-``N`` type for the extension questions, product
laws keyed by the points of ``simplex_grid`` (which checks the grid's size
against the cap) for the mixture searches.  ``_min_total_variation``
takes the keys and a function from key to column, checks the program's
size against the cap, builds and solves it, and answers by key and by
type: the signed weights by column key, the dual by mass-``n`` type.  Its
rows, column positions and solver outcome stay inside this module, and so
does the last optimal tableau of each program, from which the next law on
the same columns is solved.

Everything here is exact rational arithmetic; no floats anywhere.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter, le, lt
from types import MappingProxyType
from typing import Callable, Hashable, Iterable, Mapping, Optional, Sequence

from .caps import ensure_within_cap, resource_cap
from .errors import InputError
from .ratlp import LpStatus, _Simplex
from .typespace import (
    Alphabet,
    RationalLike,
    TypeVector,
    _compositions,
    _make_type,
    _require_int,
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
    stored maps.  Weights must be nonnegative rationals summing to one,
    and ``n`` an ``int`` (not a ``bool``) of at least 1.
    """

    alphabet: Alphabet
    n: int
    weights: WeightMap

    def __post_init__(self):
        n = self.n
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise InputError(f"law: n must be a positive integer, got {n!r}")
        k = self.alphabet.size
        kept: dict[TypeVector, Fraction] = {}
        # The exact sum runs over the common denominator seen so far.
        common, total = 1, 0
        last: tuple = ()  # the empty tuple sorts below every type
        ordered = True
        for tv, w in self.weights.items():
            if not isinstance(tv, TypeVector):
                raise InputError(f"law: weights keyed by TypeVector, got {tv!r}")
            counts = tv.counts
            if len(counts) != k:
                raise InputError(f"law: type {tv.typestring()} has wrong width for k={k}")
            if sum(counts) != n:
                raise InputError(
                    f"law: type {tv.typestring()} has mass {sum(counts)}, expected {n}"
                )
            if not isinstance(w, Fraction):
                w = as_fraction(w)
            num = w.numerator
            if num < 0:
                raise InputError(f"law: negative weight at {tv.typestring()}")
            if num:
                den = w.denominator
                if common % den:
                    grown = math.lcm(common, den)
                    total *= grown // common
                    common = grown
                total += num * (common // den)
                if tv < last:
                    ordered = False
                last = tv
                kept[tv] = w
        if total != common:
            raise InputError(f"law: weights must sum to 1, got {Fraction(total, common)}")
        if not ordered:
            kept = dict(sorted(kept.items()))
        object.__setattr__(self, "weights", MappingProxyType(kept))

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


def urn_measure(nu: TypeVector, n: int, alphabet: Alphabet | None = None) -> ExchangeableLaw:
    """Law of ``n`` ordered draws without replacement from urn ``nu``.

    ``alphabet`` defaults to a generic one of matching size; pass the real
    alphabet when the labels matter (serialization, covariance embeddings).
    """
    if _require_int(n, "urn_measure: n") < 1:
        raise InputError("urn_measure: n must be >= 1")
    if n > nu.mass:
        raise InputError(f"urn_measure: cannot draw {n} from urn of mass {nu.mass}")
    if alphabet is None:
        alphabet = Alphabet.of_size(nu.width)
    elif alphabet.size != nu.width:
        raise InputError("urn_measure: alphabet size does not match urn type")
    ensure_within_cap(type_count(len(nu.support()), n), "urn draw types")
    return ExchangeableLaw(alphabet, n, _marginal({nu: 1}, nu.width, n))


def product_law(
    theta: Sequence[RationalLike], n: int, alphabet: Alphabet | None = None
) -> ExchangeableLaw:
    """Type law of ``n`` i.i.d. draws from the distribution ``theta``
    (the multinomial type law): ``weights[mu] = multiset_count(mu) *
    prod_a theta_a ** mu{a}``.
    """
    _require_int(n, "product_law: n")
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
    ensure_within_cap(type_count(k, n), "mass-n type space")
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
    a single Fraction, shared by every entry with the same numerator
    (symmetric atoms give many types equal weights).
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
    return _type_weights(acc, denominator)


def _type_weights(
    acc: Mapping[tuple[int, ...], int], denominator: int
) -> dict[TypeVector, Fraction]:
    """Integer numerators over ``denominator``, keyed by count tuples, as
    type weights: zeros dropped, types lexicographically increasing, one
    Fraction per distinct numerator."""
    shared: dict[int, Fraction] = {}
    out: dict[TypeVector, Fraction] = {}
    for c, v in sorted(acc.items()):
        if v:
            q = shared.get(v)
            if q is None:
                q = shared[v] = Fraction(v, denominator)
            out[_make_type(c)] = q
    return out


@lru_cache(maxsize=None)
def _draws(pattern: tuple[int, ...], n: int) -> tuple[tuple[itemgetter, tuple, int], ...]:
    """The draws of ``n`` from an urn whose nonzero counts are ``pattern``
    (in symbol order), one per mass-``n`` local draw: an ``itemgetter`` over
    the urn slots it touches, its nonzero counts and its number of ways.
    Built from binomials alone; reads no urn column."""
    return tuple(
        (itemgetter(*[j for j, m in enumerate(local) if m]), tuple(filter(None, local)),
         math.prod(map(math.comb, pattern, local)))
        for local in _compositions(n, len(pattern))
        if all(map(le, local, pattern))
    )


def _marginal(weights: WeightMap, k: int, n: int) -> dict[TypeVector, Fraction]:
    """Type weights of ``sum_nu weights[nu] * urn(nu, n)``, the one
    mass-``n`` marginal of an urn combination; reads no urn column.

    The weights may have either sign, on width-``k`` types of one mass
    ``N >= n`` (read once).  The draws of ``n`` from an urn depend only on
    its count pattern, so each pattern met reads its :func:`_draws` table.
    The weights, as integers over their common denominator ``L``, are
    summed per draw by the symbols its slots land on, and each sum is
    multiplied by the draw's ways once; ``mu`` weighs its total over
    ``L * C(N, n)``.  Zeros are dropped, types increase.
    """
    if not weights:
        return {}
    if n == 0:
        total = sum(weights.values(), Fraction(0))
        return {_make_type((0,) * k): total} if total else {}
    N = next(iter(weights)).mass
    common = math.lcm(*(q.denominator for q in weights.values()))
    # pattern -> one (slot getter, sums by symbols) per local draw; the same
    # sums again in ``entries``, with the draw's nonzero counts and ways.
    tables: dict[tuple[int, ...], list[tuple[itemgetter, dict]]] = {}
    entries: list[tuple[tuple[int, ...], int, dict]] = []
    positions = range(k)
    for nu, q in weights.items():
        counts = nu.counts
        pattern = tuple(filter(None, counts))
        table = tables.get(pattern)
        if table is None:
            table = tables[pattern] = []
            for get, local, ways in _draws(pattern, n):
                sums: dict = {}
                table.append((get, sums))
                entries.append((local, ways, sums))
        sup = list(itertools.compress(positions, counts))
        q_int = q.numerator * (common // q.denominator)
        for get, sums in table:
            symbols = get(sup)
            sums[symbols] = sums.get(symbols, 0) + q_int
    acc: dict[tuple, int] = {}
    for local, ways, sums in entries:
        for symbols, total in sums.items():
            key = (local, symbols)
            acc[key] = acc.get(key, 0) + total * ways
    by_counts: dict[tuple[int, ...], int] = {}
    for (local, symbols), v in acc.items():
        if len(local) == 1:  # a one-slot getter returns a bare symbol
            symbols = (symbols,)
        counts = [0] * k
        for s, m in zip(symbols, local):
            counts[s] = m
        by_counts[tuple(counts)] = v
    return _type_weights(by_counts, common * math.comb(N, n))


def marginalize(law: ExchangeableLaw, m: int) -> ExchangeableLaw:
    """Law of the first ``m`` coordinates, still by type weights.

    Composition with the urn coefficients: ``out[tau] = sum_mu
    weights[mu] * a(mu, tau)``, summed by :func:`_marginal`; exact, and
    consistent under iteration.
    """
    if not 1 <= _require_int(m, "marginalize: m") <= law.n:
        raise InputError(f"marginalize: need 1 <= m <= n, got m={m}, n={law.n}")
    if m == law.n:
        return law
    return ExchangeableLaw(law.alphabet, m, _marginal(law.weights, law.alphabet.size, m))


@dataclass(frozen=True)
class InversionTable:
    """Signed coefficients expressing one mass-``n`` class law in terms of
    mass-``N`` urn measures: ``u_mu = sum_nu coeffs[nu] * urn(nu, n)``.

    ``l1`` is the total absolute mass of the coefficients; for fixed
    ``(n, N, k)`` it depends only on the multiset of nonzero counts of
    ``mu``, which is what bounds the extending functional uniformly.
    ``N`` is an ``int`` of at least ``mu``'s mass, the keys are types of
    ``mu``'s width and of mass ``N``, and the coefficients exact
    rationals; zero coefficients are dropped and the keys kept in
    increasing order, as a law's are.
    """

    mu: TypeVector
    N: int
    coeffs: WeightMap

    def __post_init__(self):
        mu, N = self.mu, self.N
        if not isinstance(mu, TypeVector):
            raise InputError(f"inversion table: mu must be a TypeVector, got {mu!r}")
        if _require_int(N, "inversion table: N") < mu.mass:
            raise InputError(f"inversion table: need N >= mass of mu, got N={N} < {mu.mass}")
        kept = {}
        for nu, c in self.coeffs.items():
            if not isinstance(nu, TypeVector):
                raise InputError(f"inversion table: coeffs keyed by TypeVector, got {nu!r}")
            if nu.width != mu.width or nu.mass != N:
                raise InputError(
                    f"inversion table: {nu.typestring()} is no width-{mu.width} type of mass {N}"
                )
            c = as_fraction(c)
            if c:
                kept[nu] = c
        object.__setattr__(self, "coeffs", MappingProxyType(dict(sorted(kept.items()))))

    @property
    def n(self) -> int:
        return self.mu.mass

    @property
    def l1(self) -> Fraction:
        return sum((abs(c) for c in self.coeffs.values()), Fraction(0))


def _support_order(counts: Sequence[int]) -> tuple[list[int], tuple[int, ...]]:
    """The support of a count tuple in the inversion's order, ascending
    count and then position, and the count pattern read in that order.

    The closed form of :func:`_pattern_table` holds in any slot order;
    ordering by count makes the table, and hence its l1 norm, depend only
    on the multiset of nonzero counts.  Another placement (ties broken the
    other way, say) can put the anchors on the wrong symbols."""
    sup = sorted((i for i, c in enumerate(counts) if c), key=lambda i: (counts[i], i))
    return sup, tuple([counts[i] for i in sup])


# A pattern's inversion table: its denominator and (anchor counts, numerator) pairs.
PatternTable = tuple[int, tuple[tuple[tuple[int, ...], int], ...]]


@lru_cache(maxsize=None)
def _pattern_table(pattern: tuple[int, ...], N: int) -> PatternTable:
    """The inversion table of the canonical type whose counts are the
    count pattern ``pattern`` (nonzero, nondecreasing), as integers over
    one common denominator: ``(den, ((local counts, numerator), ...))``.

    Write ``mu = (mu', m)``: ``m`` is the last count, ``M = |mu'|`` and
    ``n = M + m``.  At ``N = n`` the table is ``{mu: 1}``.  For ``N > n``
    binomial inversion gives it in closed form: the anchors are
    ``(lam', N - |lam'|)`` for ``0 <= lam' <= mu'``, in lexicographic
    order, and anchor ``lam'`` has the coefficient::

        (-1)**(M - |lam'|) * prod_b C(mu'_b, lam'_b)
            * C(N, n) * (N - n) / ((m + 1) * C(N - |lam'|, m + 1))

    Proof: under anchor ``lam'`` a mass-``n`` ``kappa = (kappa', n - s)``,
    ``s = |kappa'|``, has the urn coefficient ``prod_b C(lam'_b, kappa'_b)
    * C(N - |lam'|, n - s) / C(N, n)``.  Summed over the anchors,
    Vandermonde leaves ``prod_b C(mu'_b, kappa'_b) * (N - n) / (m + 1)``
    times the ``(M - s)``-th forward difference at ``s`` of ``g(t) =
    C(N - t, n - s) / C(N - t, m + 1)``, a polynomial in ``t`` of degree
    ``M - s - 1`` when ``s < M``.  So the sum is 0 unless ``kappa' = mu'``,
    where it is ``g(M) * (N - n) / (m + 1) = 1``.

    The table depends only on ``(pattern, N)``, so each is built once per
    process; read it through :func:`_transport`, which checks the cap.
    """
    n = sum(pattern)
    if N == n:
        return 1, ((pattern, 1),)
    *head, m = pattern
    scale = Fraction(math.comb(N, n) * (N - n), m + 1)
    entries = []
    for lam in itertools.product(*[range(c + 1) for c in head]):
        s = sum(lam)
        c = scale * math.prod(map(math.comb, head, lam)) / math.comb(N - s, m + 1)
        entries.append((lam + (N - s,), -c if (n - m - s) % 2 else c))
    den = math.lcm(*(c.denominator for _, c in entries))
    return den, tuple((anchor, c.numerator * (den // c.denominator)) for anchor, c in entries)


def _transport(
    weights: WeightMap, k: int, N: int, cap: Optional[int] = None
) -> tuple[dict[tuple[int, ...], int], int]:
    """Push ``sum_mu weights[mu] * u_mu`` through the inversion tables: the
    signed mass-``N`` urn weights as integer numerators keyed by count
    tuple, and their common denominator.  They satisfy the marginal
    identities of the combination.

    The only reader of :func:`_pattern_table`'s closed-form tables; no urn
    column is read.  Each width-``k`` type ``mu`` reads its count pattern's
    table, relabelled onto its support:
    local slot ``j`` goes to the ``j``-th symbol of :func:`_support_order`,
    values unchanged.  Each (type, entry) product is an integer over
    ``T = lcm(w.den * table den)``.  The ``urn inversion types`` cap,
    ``cap`` or else read once per call, is checked on every lookup: a table
    cached under a larger cap does not carry a caller past a cap lowered
    since.
    """
    placed = []
    if cap is None:
        cap = resource_cap()
    for mu, w in weights.items():
        sup, pattern = _support_order(mu.counts)
        ensure_within_cap(type_count(len(pattern), sum(pattern)), "urn inversion types", cap)
        placed.append((sup, w, _pattern_table(pattern, N)))
    denominator = math.lcm(*(w.denominator * den for _, w, (den, _) in placed))
    acc: dict[tuple[int, ...], int] = {}
    for sup, w, (den, entries) in placed:
        scale = w.numerator * (denominator // (w.denominator * den))
        out = [0] * k
        for local, c in entries:
            for i, m in zip(sup, local):
                out[i] = m
            key = tuple(out)
            acc[key] = acc.get(key, 0) + scale * c
    return acc, denominator


def invert_urn(mu: TypeVector, N: int) -> InversionTable:
    """Solve for coefficients ``c`` with ``u_mu = sum c[nu] * urn(nu, n)``.

    The table depends on ``mu`` only through its count pattern, the
    nonzero counts in the support order of :func:`_support_order`
    (ascending count, then position): it is the table of the canonical
    type of that pattern, built once by :func:`_pattern_table`, with local
    slot ``j`` placed on the ``j``-th symbol of that order and the
    coefficients unchanged.  It is the transport of the point mass on
    ``mu`` (see :func:`_transport`).
    """
    n = mu.mass
    if _require_int(N, "invert_urn: N") < n:
        raise InputError(f"invert_urn: need N >= mass of mu, got N={N} < {n}")
    if n == 0:
        # Zero-mass target: every urn projects to the empty law.
        return InversionTable(mu, N, {TypeVector.delta(mu.width - 1, mu.width, N): Fraction(1)})
    return InversionTable(mu, N, _type_weights(*_transport({mu: Fraction(1)}, mu.width, N)))


def reconstruct_check(table: InversionTable) -> bool:
    """Exact verification that the table reproduces its target class law.

    True iff ``sum_nu coeffs[nu] * a(nu, kappa) == 1{kappa == mu}`` for
    every mass-``n`` type ``kappa``, summed by :func:`_marginal` from the
    draws alone, not from the closed form :func:`_pattern_table` evaluates.
    """
    mu = table.mu
    n, k = mu.mass, mu.width
    ensure_within_cap(type_count(k, n), "mass-n type space")
    return _marginal(table.coeffs, k, n) == {mu: Fraction(1)}


def simplex_grid(k: int, depth: int) -> list[tuple[Fraction, ...]]:
    """All probability vectors on ``k`` symbols with coordinates ``j/depth``.

    Lexicographically increasing; there are ``C(depth + k - 1, k - 1)``,
    checked against the ``simplex grid`` cap before any is built.
    """
    if _require_int(depth, "simplex_grid: depth") < 1:
        raise InputError("simplex_grid: depth must be >= 1")
    ensure_within_cap(type_count(k, depth), "simplex grid")
    return [
        tuple(Fraction(c, depth) for c in tv.counts) for tv in enumerate_types(k, depth)
    ]


@lru_cache(maxsize=16)
def _last_optimum(column: Callable, keys: tuple, k: int, n: int) -> list[_Simplex]:
    """The last optimal tableau of one total-variation program, in a list
    that holds it or nothing: the slot :func:`_min_total_variation` reads
    and refills.  At most 16 programs keep a tableau, the least recently
    used one giving way."""
    return []


def _min_total_variation(
    P: ExchangeableLaw,
    keys: Sequence[Hashable],
    column: Callable[[Hashable], Iterable[tuple[TypeVector, Fraction]]],
    cap: Optional[int] = None,
) -> tuple[Optional[dict[Hashable, Fraction]], Optional[Fraction], dict[TypeVector, Fraction]]:
    """Least total variation of a signed combination of the sparse
    ``(mass-n type, weight)`` columns ``column(key)``, one per key,
    reproducing ``P``: ``(weights, value, y)``.  ``weights`` maps each key
    of nonzero signed weight to it, in key order, and ``value`` is the
    optimum; both are None when no combination reproduces ``P``.  ``y``
    maps every mass-``n`` type to a number: at the optimum the negated row
    duals, with ``|y . column| <= 1`` for every column and ``y . P`` equal
    to the value; otherwise a Farkas vector, orthogonal to every column but
    not to ``P``.  The ``lp dimensions`` cap is checked on ``len(keys)``
    before any column is built.  The layout stays here: one row per
    mass-``n`` type, one variable per key, declared to the simplex as a +1
    column (its positive part) and a -1 column (its negative part) at cost
    1 each, all positive parts first.

    The start is read off the columns: if each row's first nonzero column
    lies right of the row above's, these positive parts are triangular with
    a nonzero diagonal, a basis the simplex makes feasible by sign and so
    skips phase 1 (see ``ratlp._Simplex``); else both phases run.  Urn
    columns always offer it, row ``mu`` first meeting its anchor
    ``mu + (N - n) * e_last``; grid columns only at mass 1.

    The matrix depends only on the columns, and ``P`` enters only as the
    right-hand side.  So the tableau of an optimum that kept every row and
    no basic artificial is stored under ``(column, keys, k, n)`` by
    :func:`_last_optimum`, which keeps 16 programs at most.  The next call
    with the same column function and keys builds no row: it re-seeds that
    tableau with ``P`` (``ratlp._Simplex.resolve``) and goes on from its
    optimal basis, under ``cap``, and stores it again if it ends optimal.
    A caller that passes a new function on each call, as the grid program
    does, always solves from the start.  Which optimal vertex comes back,
    and so the weights and ``y``, may then depend on the last ``P`` solved
    on the same program; the value never does.  ``cap``, else the active
    cap, bounds the program's size, checked before the store is read, and
    its pivots."""
    keys = tuple(keys)
    width, k = len(keys), P.alphabet.size
    if cap is None:
        cap = resource_cap()
    ensure_within_cap(max(2 * width, type_count(k, P.n)), "lp dimensions", cap)
    mus = enumerate_types(k, P.n)
    rhs = [P.weight(mu) for mu in mus]
    last = _last_optimum(column, keys, k, P.n)
    if last:
        simplex = last.pop()
        out = simplex.resolve(rhs, cap)
    else:
        index = {mu: r for r, mu in enumerate(mus)}
        zero = Fraction(0)
        rows = [[zero] * width for _ in mus]
        for v, key in enumerate(keys):
            for mu, coef in column(key):
                rows[index[mu]][v] = coef
        firsts = [next(itertools.compress(itertools.count(), row), width) for row in rows]
        start = firsts if all(map(lt, firsts, [*firsts[1:], width])) else None
        cost = Fraction(-1)  # 1 in the min sense
        signed = [(v, 1, cost) for v in range(width)] + [(v, -1, cost) for v in range(width)]
        simplex = _Simplex([(row, "=", b) for row, b in zip(rows, rhs)], signed, start, cap)
        out = simplex.solve()
    if out.status is not LpStatus.OPTIMAL:
        return None, None, dict(zip(mus, out.certificate))
    if simplex.resolvable:
        last.append(simplex)
    weights = {key: w for key, w in zip(keys, out.primal) if w}
    return weights, -out.objective_value, {mu: -c for mu, c in zip(mus, out.certificate)}


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
