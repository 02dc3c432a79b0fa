"""Extendibility decisions: norm, witness or refutation, infinite probing.

The questions answered here, all exactly:

* ``check_extendible(P, N)`` - decide N-extendibility and hand back either
  an extension law (witness) or a symmetric function violating the norm
  bound (refutation); both sides are machine-checkable.
* ``norm_EN(P, N)`` - the norm of the linear functional sending the
  mass-``N`` symmetrization of ``g`` to ``E_P g``: the norm of
  ``check_extendible``'s checked report.  It is 1 exactly when ``P`` is
  the length-``n`` marginal of some exchangeable law on length ``N``, and
  grows past 1 the moment that fails.
* ``probe_infinite`` - certify infinite extendibility at once when ``P`` is
  a staircase pair law or an i.i.d. law (its one-coordinate marginal is
  the single atom), else sweep N upward looking for a refutation, then
  try to certify by writing ``P`` as a nonnegative mixture of product laws
  on a rational grid (the grid program of ``represent._grid_mixture``).
* ``covariance_bound`` - the classical pairwise-covariance necessary
  condition under a numeric embedding of the alphabet.

One linear program answers the whole question: the minimum total variation
of a signed combination of mass-``N`` urn measures reproducing ``P`` (rows:
the marginal identities; one signed weight per urn).  Its optimum is the
norm, bounded from above by the signed weights, which reproduce ``P`` at
total variation equal to the norm.  At norm 1 the weights are the witness,
since urn columns sum to 1 and so leave no room for a negative weight.
Above 1 the negated row duals are the optimal refutation: a symmetric ``g``
with ``sup |U g| = 1`` and ``E_P g`` equal to the norm, which bounds the
norm from below.

Two exact constructive fast paths run before the LP: the closed-form
inversion transport of ``P`` (when its coefficients happen to be
nonnegative they already form a witness) and, for pair laws, "staircase
peeling" into prefix-uniform product laws (which covers laws whose pair
matrix depends only on the larger symbol index).  The transport is
``measures._transport``, which owns the inversion tables and sums in
integers; this module only refuses a signed result, before it builds any
``Fraction``.  The staircase witness is built straight from its steps: a
type's weight is its multinomial times a tail sum picked by its largest
symbol, so one walk over the mass-``N`` draws builds the length-``N`` law
without summing the prefix atoms one by one.

There is one decision path, ``check_extendible``, and it checks whatever
certificate it holds once, with one rule per certificate: a constructive
witness (transport or staircase) with ``marginal_matches``, the norm
program's signed weights, for either verdict, with ``measures._marginal``
and their total variation, and a refutation with ``symmetrize.apply_U``.
These checks sum over ``measures._draws`` and read no urn column, so none
reads what a decider read.  The grid program checks its own optimum in
``represent._grid_mixture``.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from .caps import ensure_within_cap, resource_cap
from .errors import CapacityError, InputError
from .measures import (
    Atom,
    ExchangeableLaw,
    _marginal,
    _min_total_variation,
    _mixture_type_weights,
    _transport,
    _type_weights,
    _urn_column,
    marginalize,
)
from .represent import SignedMixture, _grid_mixture, tv_lower_bound
from .symmetrize import SymmetricFunction, apply_U, expectation, sup_norm
from .typespace import (
    Alphabet,
    RationalLike,
    TypeVector,
    _make_type,
    _require_int,
    as_fraction,
    enumerate_types,
    type_count,
)

class Verdict(enum.Enum):
    EXTENDIBLE = "extendible"
    NOT_EXTENDIBLE = "not_extendible"


class InfiniteOutcome(enum.Enum):
    CERTIFIED_INFINITE = "certified_infinite"
    REFUTED_AT = "refuted_at"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class ExtendReport:
    """Verdict for one target length, with its certificate.

    Extendible reports carry a witness law whose marginals reproduce ``P``
    exactly; non-extendible ones carry the optimal refutation ``g``:
    ``sup |U g| == 1`` and ``E_P g == norm``, strictly above 1.
    """

    N: int
    verdict: Verdict
    norm: Fraction
    witness: Optional[ExchangeableLaw] = None
    refutation: Optional[SymmetricFunction] = None


@dataclass(frozen=True)
class InfiniteReport:
    """Result of the infinite-extendibility probe.

    ``UNKNOWN`` is honest: the grid, not the law, may be at fault, so a
    failed mixture search refutes nothing.  Probe range and grid depth are
    always recorded; ``grid_depth_used`` is the depth that certified (None
    when the certificate did not come from a grid search).
    """

    outcome: InfiniteOutcome
    N_max: int
    grid_depth: int
    mixture: Optional[tuple[Atom, ...]] = None
    failing_N: Optional[int] = None
    failing_report: Optional[ExtendReport] = None
    grid_depth_used: Optional[int] = None


class CovarianceBound(NamedTuple):
    cov: Fraction
    var: Fraction
    satisfies: bool


# -- shared pieces ---------------------------------------------------------------


def marginal_matches(witness: ExchangeableLaw, P: ExchangeableLaw) -> bool:
    """Exact marginal identity: does ``witness`` project onto ``P``?

    The marginal is :func:`~exchkit.measures._marginal`, an integer sum by
    count pattern that reads no urn column and no fast path's tables.
    """
    if witness.alphabet != P.alphabet or witness.n < P.n:
        return False
    return _marginal(witness.weights, P.alphabet.size, P.n) == dict(P.weights)


# -- constructive fast paths -------------------------------------------------------


def _transport_witness(
    P: ExchangeableLaw, N: int, cap: Optional[int] = None
) -> Optional[ExchangeableLaw]:
    """The transport of ``P`` (see :func:`~exchkit.measures._transport`,
    which reads ``cap``) as a law, when it lands in the nonnegative
    orthant; otherwise None, decided on the integer numerators before any
    ``Fraction`` is built.  Each distinct numerator becomes one
    ``Fraction``, the types in sorted order."""
    acc, denominator = _transport(P.weights, P.alphabet.size, N, cap)
    if any(v < 0 for v in acc.values()):
        return None
    return ExchangeableLaw(P.alphabet, N, _type_weights(acc, denominator))


def _pair_matrix(P: ExchangeableLaw) -> list[list[Fraction]]:
    """Point probabilities P(X1=a, X2=b) of a pair law, as a k x k table."""
    k = P.alphabet.size
    m = [[Fraction(0)] * k for _ in range(k)]
    for tau, w in P.weights.items():
        sup = tau.support()
        if len(sup) == 1:
            a = sup[0]
            m[a][a] = w
        else:
            a, b = sup
            m[a][b] = m[b][a] = w / 2
    return m


def _staircase_steps(P: ExchangeableLaw) -> Optional[list[tuple[int, Fraction]]]:
    """The steps ``(r, w_r)`` of a staircase pair law, ``r`` increasing:
    ``w_r > 0`` weights the uniform product law on the first ``r`` symbols.
    None when ``P`` is not a staircase."""
    if P.n != 2:
        return None
    k = P.alphabet.size
    m = _pair_matrix(P)
    profile = [m[r][r] for r in range(k)]
    for a in range(k):
        # row a must read profile[max(a, b)] for b = 0..k-1
        if m[a] != [profile[a]] * a + profile[a:]:
            return None
    if any(profile[r] < profile[r + 1] for r in range(k - 1)) or profile[-1] < 0:
        return None
    steps: list[tuple[int, Fraction]] = []
    for r in range(1, k + 1):
        nxt = profile[r] if r < k else 0
        weight = (profile[r - 1] - nxt) * r * r
        if weight:
            steps.append((r, weight))
    if sum((w for _, w in steps), Fraction(0)) != 1:
        return None
    return steps


def staircase_mixture(P: ExchangeableLaw) -> Optional[tuple[Atom, ...]]:
    """Exact product-mixture certificate for "staircase" pair laws.

    Applies when ``P(X1=a, X2=b) == h(max(a, b))`` for a nonincreasing
    nonnegative profile ``h`` over the symbol positions.  Such a law is the
    mixture of uniform product laws on the prefixes, with telescoping
    weights ``(h(r) - h(r+1)) * r^2``; the peeling is exact and the weights
    are nonnegative precisely because ``h`` is nonincreasing.
    """
    steps = _staircase_steps(P)
    if steps is None:
        return None
    k = P.alphabet.size
    zero = Fraction(0)
    return tuple((w, (Fraction(1, r),) * r + (zero,) * (k - r)) for r, w in steps)


def _staircase_type_weights(
    steps: Sequence[tuple[int, Fraction]], N: int, k: int, cap: Optional[int] = None
) -> dict[TypeVector, Fraction]:
    """Type weights of the staircase mixture at length ``N``: equal, entry
    for entry and in order, to ``_mixture_type_weights`` of its atoms.

    The atom uniform on the first ``r`` symbols gives ``nu`` the weight
    ``w_r * multinomial(nu) / r**N`` when every symbol of ``nu`` is below
    ``r``, so ``nu`` weighs ``multinomial(nu) * tail[max supp nu]`` with
    ``tail[m] = sum_{r > m} w_r / r**N``, kept as integers over one common
    denominator.  One walk over the mass-``N`` draws of the symbols below
    the last step builds every entry: a draw's last element is its largest
    symbol, and the draws come in decreasing order of their count tuples.
    ``cap``, else the active cap, bounds the mass-``N`` types.
    """
    ensure_within_cap(type_count(k, N), "mass-N type space", cap)
    top = steps[-1][0]
    denominator = math.lcm(*(w.denominator * r**N for r, w in steps))
    tail = [0] * top
    for r, w in steps:
        share = w.numerator * (denominator // (w.denominator * r**N))
        for m in range(r):
            tail[m] += share
    types: list[TypeVector] = []
    values: list[Fraction] = []
    shared: dict[int, Fraction] = {}
    counts = [0] * k
    for draw in itertools.combinations_with_replacement(range(top), N):
        # the multinomial i! / prod(c!), kept exact as the draw grows
        ways = 1
        for i, pos in enumerate(draw, 1):
            c = counts[pos] + 1
            counts[pos] = c
            ways = ways * i // c
        v = ways * tail[draw[-1]]
        q = shared.get(v)
        if q is None:
            q = shared[v] = Fraction(v, denominator)
        types.append(_make_type(tuple(counts)))
        values.append(q)
        for pos in draw:
            counts[pos] = 0
    types.reverse()
    values.reverse()
    return dict(zip(types, values))


def mixture_extension(
    atoms: Sequence[Atom], N: int, alphabet: Alphabet
) -> ExchangeableLaw:
    """The length-``N`` law of a nonnegative product mixture.

    The atoms are checked first: ``SignedMixture``'s checks, then
    nonnegative weights summing to 1 and one slot per symbol of
    ``alphabet``; each fault raises an ``InputError`` naming it.  All atoms
    are summed over one common denominator (see
    :func:`~exchkit.measures._mixture_type_weights`); every weight of the
    returned law is still a ``Fraction``.
    """
    if _require_int(N, "mixture_extension: N") < 1:
        raise InputError(f"mixture_extension: N must be >= 1, got {N}")
    mix = SignedMixture(tuple(atoms))  # probability-vector atoms of one width
    if any(w < 0 for w, _ in mix.atoms):
        raise InputError("mixture_extension: weights must be nonnegative")
    if mix.total_mass != 1:
        raise InputError(f"mixture_extension: weights must sum to 1, got {mix.total_mass}")
    if mix.width != alphabet.size:
        raise InputError(
            f"mixture_extension: atoms have width {mix.width}, alphabet has {alphabet.size}"
        )
    ensure_within_cap(type_count(alphabet.size, N), "mass-N type space")
    return ExchangeableLaw(alphabet, N, _mixture_type_weights(mix.atoms, N))


# -- the decision ------------------------------------------------------------------


@lru_cache(maxsize=None)
def _urn_columns(n: int) -> Callable[[TypeVector], tuple[tuple[TypeVector, Fraction], ...]]:
    """The norm program's column function at mass ``n``, one object per
    ``n``: with the mass-``N`` types it keys the program's last optimal
    tableau in ``measures``."""
    return lambda nu: _urn_column(nu, n)


def check_extendible(P: ExchangeableLaw, N: int) -> ExtendReport:
    """Decide N-extendibility with a verified certificate either way.

    Two exact constructions run first, and a witness from either pins the
    norm to 1 without a solve: the witness is a total-variation-1
    reproduction of ``P`` (so norm <= 1) and row stochasticity forces
    norm >= 1.  They are the nonnegative transport and the staircase
    witness (see :func:`_staircase_type_weights`), each checked by
    :func:`marginal_matches`.  Otherwise one solve of the norm program
    decides, from the start :func:`~exchkit.measures._min_total_variation`
    reads off its urn columns.  One rule checks its weights for either
    verdict: their marginal must be ``P`` and their total variation the
    norm.  That bounds the norm from above; at norm 1 it also leaves no
    weight negative, since the marginal keeps total mass, so the weights
    are the witness.  Above 1 the negated dual is a refutation, checked
    first through ``apply_U``: ``sup |U g| = 1`` and ``E_P g == norm``
    bound the norm from below.  No check reads a decider's tables or urn
    columns.

    The norm program goes on from the last optimal tableau of the same
    ``(k, n, N)`` program in this process, if ``measures`` still holds one
    (see :func:`~exchkit.measures._min_total_variation`).  So which
    optimal weights and refutation come back may depend on the laws
    decided before; the verdict and the norm never do, and every answer
    passes the same checks.  The resource cap is read once per call.

    The transport goes first because the urn columns it reads are set by
    the mass-``n`` types of ``P``, not by ``N``, while the norm program has
    one variable per mass-``N`` type, declared to the simplex as two signed
    columns: for large ``N`` the transport is the only route that stays
    cheap, and once those types are more than half the resource cap, the
    only one that runs at all.
    """
    if _require_int(N, "check_extendible: N") < P.n:
        raise InputError(f"extend: need N >= n, got N={N} < n={P.n}")
    k = P.alphabet.size
    cap = resource_cap()
    ensure_within_cap(type_count(k, N), "mass-N type space", cap)
    witness = _transport_witness(P, N, cap)
    if witness is None:
        steps = _staircase_steps(P)
        if steps is not None:
            witness = ExchangeableLaw(P.alphabet, N, _staircase_type_weights(steps, N, k, cap))
    if witness is None:
        signed, norm, y = _min_total_variation(P, enumerate_types(k, N), _urn_columns(P.n), cap)
        if signed is None or norm < 1:
            raise AssertionError("norm: the program must have an optimum of at least 1")
        if norm > 1:
            g = SymmetricFunction(P.alphabet, P.n, y)
            if sup_norm(apply_U(g, N)) != 1 or expectation(P, g) != norm:
                raise AssertionError("refutation: negated dual is not an optimal refutation")
        # the marginal keeps total mass, so at norm 1 no weight is negative
        if _marginal(signed, k, P.n) != dict(P.weights) or sum(map(abs, signed.values())) != norm:
            raise AssertionError("norm: signed weights do not reproduce P at the norm")
        if norm == 1:
            return ExtendReport(N, Verdict.EXTENDIBLE, norm, ExchangeableLaw(P.alphabet, N, signed))
        return ExtendReport(N, Verdict.NOT_EXTENDIBLE, norm, refutation=g)
    if not marginal_matches(witness, P):
        raise AssertionError("extend: witness failed the marginal identity")
    return ExtendReport(N, Verdict.EXTENDIBLE, Fraction(1), witness=witness)


def norm_EN(P: ExchangeableLaw, N: int) -> Fraction:
    """Norm of the extending functional at target length ``N``.

    Equal to the optimum of: maximize ``E_P g`` over symmetric ``g`` with
    ``|U g| <= 1`` everywhere.  Always >= 1, with equality iff ``P`` is
    N-extendible.  It is the norm of :func:`check_extendible`'s report, so
    every value is certified: 1 by a witness that passed the marginal
    identities, anything larger from below by a refutation that passed
    ``apply_U`` and from above by signed weights that reproduce ``P`` at
    that total variation.
    """
    _require_int(N, "norm_EN: N")
    return check_extendible(P, N).norm


def corollary_criterion(
    P: ExchangeableLaw, g: SymmetricFunction, N: int, epsilon: RationalLike
) -> bool:
    """Slack test ``|E_P g| <= (1 + eps) * sup |U g|`` for one function.

    Holds for every ``g`` and every positive ``eps`` iff ``P`` is
    N-extendible; a single failure certifies non-extendibility.
    """
    eps = as_fraction(epsilon)
    if eps <= 0:
        raise InputError("corollary_criterion: epsilon must be positive")
    if _require_int(N, "corollary_criterion: N") < P.n:
        raise InputError(f"extend: need N >= n, got N={N} < n={P.n}")
    return tv_lower_bound(P, g, N) <= 1 + eps


def _check_mixture(P: ExchangeableLaw, source: str, atoms: Sequence[Atom]) -> None:
    """A product-mixture certificate from ``source`` must be nonnegative
    and reproduce ``P``; a failure is an internal error, never an answer."""
    if any(w < 0 for w, _ in atoms) or _mixture_type_weights(atoms, P.n) != dict(P.weights):
        raise AssertionError(f"probe: {source} atoms do not reproduce the law")


def _iid_mixture(P: ExchangeableLaw) -> Optional[tuple[Atom, ...]]:
    """The single atom ``(1, theta)`` when ``P`` is the i.i.d. law
    ``theta^{(x)n}``, else None.  Only ``P``'s own one-coordinate marginal,
    ``marginalize(P, 1)``, can be that ``theta``."""
    k = P.alphabet.size
    one = marginalize(P, 1)
    theta = tuple(one.weight(TypeVector.delta(a, k)) for a in range(k))
    atoms = ((Fraction(1), theta),)
    return atoms if _mixture_type_weights(atoms, P.n) == dict(P.weights) else None


def probe_infinite(
    P: ExchangeableLaw, N_max: int, grid_depth: int
) -> InfiniteReport:
    """Probe infinite extendibility within a finite budget.

    Step 1 asks for the exact, grid-free certificates: the staircase
    mixture, then the single i.i.d. atom (de Finetti's extreme points).  A
    nonnegative product mixture extends ``P`` to every N, so no sweep could
    refute it.  Step 2 sweeps N upward and reports the first refutation.
    Step 3 tries to certify by the grid LP at ``grid_depth`` and once more
    at double depth; it comes last because its programs cost far more than
    a refutation at small N.  Every certificate's atoms are checked
    against ``P`` before they are returned, the grid's by
    ``represent._grid_mixture`` itself.  Grid infeasibility proves
    nothing, hence UNKNOWN; but a sweep stopped by the cap raises its
    ``CapacityError`` unless the grid certifies.
    """
    if _require_int(N_max, "probe_infinite: N_max") < P.n:
        raise InputError(f"probe: need N_max >= n, got {N_max} < {P.n}")
    if _require_int(grid_depth, "probe_infinite: grid_depth") < 1:
        raise InputError("probe: grid_depth must be >= 1")
    for source, certify in (("staircase", staircase_mixture), ("i.i.d.", _iid_mixture)):
        atoms = certify(P)
        if atoms is not None:
            _check_mixture(P, source, atoms)
            return InfiniteReport(InfiniteOutcome.CERTIFIED_INFINITE, N_max, grid_depth, atoms)
    capped = None
    try:
        for N in range(P.n + 1, N_max + 1):
            report = check_extendible(P, N)
            if report.verdict is Verdict.NOT_EXTENDIBLE:
                return InfiniteReport(
                    InfiniteOutcome.REFUTED_AT,
                    N_max=N_max,
                    grid_depth=grid_depth,
                    failing_N=N,
                    failing_report=report,
                )
    except CapacityError as exc:
        capped = exc  # a grid certificate holds for every N, so try it first
    for depth in (grid_depth, 2 * grid_depth):
        # the checked atoms reproduce P, so their weights sum to 1 and a
        # total variation of 1 leaves none negative
        mix = _grid_mixture(P, depth)
        if mix is not None and mix.total_variation == 1:
            return InfiniteReport(
                InfiniteOutcome.CERTIFIED_INFINITE, N_max, grid_depth, mix.atoms,
                grid_depth_used=depth,
            )
    if capped is not None:
        raise capped
    return InfiniteReport(
        InfiniteOutcome.UNKNOWN, N_max=N_max, grid_depth=grid_depth
    )


def covariance_bound(
    P: ExchangeableLaw, embedding: Mapping[str, RationalLike]
) -> CovarianceBound:
    """Pairwise covariance versus the exchangeability floor ``-var/(n-1)``.

    ``embedding`` assigns a rational value to every symbol; the moments come
    from the exact two-coordinate marginal of ``P``, whose row sums are the
    one-coordinate probabilities.
    """
    if P.n < 2:
        raise InputError("covariance_bound: law must have n >= 2")
    values = []
    for s in P.alphabet.symbols:
        if s not in embedding:
            raise InputError(f"covariance_bound: embedding missing symbol {s!r}")
        values.append(as_fraction(embedding[s]))

    pair = _pair_matrix(marginalize(P, 2))
    mean = second = cross = Fraction(0)
    for row, a in zip(pair, values):
        p = sum(row)  # P(X1 = a)
        mean += p * a
        second += p * a * a
        cross += a * sum(q * b for q, b in zip(row, values))

    cov = cross - mean * mean
    var = second - mean * mean
    floor = -var / (P.n - 1)
    return CovarianceBound(cov=cov, var=var, satisfies=cov >= floor)


__all__ = [
    "CovarianceBound",
    "ExtendReport",
    "InfiniteOutcome",
    "InfiniteReport",
    "Verdict",
    "check_extendible",
    "corollary_criterion",
    "covariance_bound",
    "marginal_matches",
    "mixture_extension",
    "norm_EN",
    "probe_infinite",
    "staircase_mixture",
]
