"""Extendibility decisions: norm, witness or refutation, infinite probing.

The questions answered here, all exactly:

* ``norm_EN(P, N)`` - the norm of the linear functional sending the
  mass-``N`` symmetrization of ``g`` to ``E_P g``.  It is 1 exactly when
  ``P`` is the length-``n`` marginal of some exchangeable law on length
  ``N``, and grows past 1 the moment that fails.
* ``check_extendible(P, N)`` - decide N-extendibility and hand back either
  an extension law (witness) or a symmetric function violating the norm
  bound (refutation); both sides are machine-checkable.
* ``probe_infinite`` - sweep N upward looking for a refutation, then try to
  certify infinite extendibility by writing ``P`` as a nonnegative mixture
  of product laws on a rational grid.
* ``covariance_bound`` - the classical pairwise-covariance necessary
  condition under a numeric embedding of the alphabet.

One linear program answers the whole question: the minimum total variation
of a signed combination of mass-``N`` urn measures reproducing ``P`` (rows:
the marginal identities; one signed weight per urn).  Its optimum is the
norm.  At norm 1 the weights are the witness, since urn columns sum to 1
and so leave no room for a negative weight.  Above 1 the negated row duals are the optimal refutation: a
symmetric ``g`` with ``sup |U g| = 1`` and ``E_P g`` equal to the norm.

Two exact constructive fast paths run before the LP: the triangular
inversion transport of ``P`` (when its coefficients happen to be
nonnegative they already form a witness) and, for pair laws, "staircase
peeling" into prefix-uniform product laws (which covers laws whose pair
matrix depends only on the larger symbol index).  Every fast-path witness
is verified against the marginal identities before being trusted.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional, Sequence

from .caps import ensure_within_cap
from .errors import InputError
from .measures import (
    Atom,
    ExchangeableLaw,
    _grid_columns,
    _min_total_variation,
    _mixture_type_weights,
    _urn_column,
    invert_urn,
    marginalize,
)
from .ratlp import LpOutcome
from .symmetrize import SymmetricFunction, apply_U, expectation, sup_norm
from .typespace import (
    Alphabet,
    RationalLike,
    TypeVector,
    _make_type,
    as_fraction,
    enumerate_types,
    subtypes,
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


def _check_target(P: ExchangeableLaw, N: int) -> None:
    if N < P.n:
        raise InputError(f"extend: need N >= n, got N={N} < n={P.n}")
    ensure_within_cap(type_count(P.alphabet.size, N), "mass-N type space")


def _sparse_key(tv: TypeVector) -> tuple[tuple[int, int], ...]:
    return tuple((i, c) for i, c in enumerate(tv.counts) if c)


def marginal_matches(witness: ExchangeableLaw, P: ExchangeableLaw) -> bool:
    """Exact marginal identity: does ``witness`` project onto ``P``?

    Accumulates in support-local coordinates (witness types can live on a
    wide alphabet while touching only a few symbols each) and compares
    against every mass-``n`` weight of ``P``, zeros included.  The witness
    weights are put over one common denominator ``L``, so the sums are
    integer: the marginal weight of ``mu`` is ``acc[mu] / (L * C(N, n))``.
    The local draws of an urn depend only on its nonzero counts, so each
    distinct count tuple is expanded once per call.
    """
    if witness.alphabet != P.alphabet or witness.n < P.n:
        return False
    n = P.n
    common = math.lcm(*(q.denominator for q in witness.weights.values()))
    draws: dict[tuple[int, ...], list[tuple[tuple[tuple[int, int], ...], int]]] = {}
    acc: dict[tuple[tuple[int, int], ...], int] = {}
    positions = range(P.alphabet.size)
    for nu, q in witness.weights.items():
        sup = list(itertools.compress(positions, nu.counts))
        caps = tuple(filter(None, nu.counts))
        table = draws.get(caps)
        if table is None:
            table = draws[caps] = []
            for local in subtypes(_make_type(caps), n):
                ways = 1
                for cap, m in zip(caps, local.counts):
                    if m:
                        ways *= math.comb(cap, m)
                table.append((_sparse_key(local), ways))
        q_int = q.numerator * (common // q.denominator)
        for local, ways in table:
            key = tuple([(sup[pos], m) for pos, m in local])
            acc[key] = acc.get(key, 0) + q_int * ways
    scale = common * math.comb(witness.n, n)
    for mu in enumerate_types(P.alphabet.size, n):
        w = P.weight(mu)
        if acc.get(_sparse_key(mu), 0) * w.denominator != w.numerator * scale:
            return False
    return True


# -- the norm --------------------------------------------------------------------


def _norm_program(
    P: ExchangeableLaw, N: int
) -> tuple[list[TypeVector], list[Fraction], LpOutcome]:
    """Solve the norm program over the mass-``N`` urn columns; returns the
    mass-``N`` types, their optimal weights and the optimal outcome."""
    # Two variables per urn column: fail on the cap before building any.
    ensure_within_cap(2 * type_count(P.alphabet.size, N), "lp dimensions")
    nus = enumerate_types(P.alphabet.size, N)
    weights, out = _min_total_variation(P, [_urn_column(nu, P.n) for nu in nus])
    if weights is None:
        raise AssertionError("norm: total-variation program must be solvable")
    if out.objective_value < 1:
        raise AssertionError("norm: computed value below 1")
    return nus, weights, out


def norm_EN(P: ExchangeableLaw, N: int) -> Fraction:
    """Norm of the extending functional at target length ``N``.

    Equal to the optimum of: maximize ``E_P g`` over symmetric ``g`` with
    ``|U g| <= 1`` everywhere.  Computed from the dual side - the minimum
    total variation of a signed combination of urn measures reproducing
    ``P`` - which has only ``|N_n|`` rows and the identical exact value.
    Always >= 1, with equality iff ``P`` is N-extendible.
    """
    _check_target(P, N)
    return _norm_program(P, N)[2].objective_value


# -- constructive fast paths -------------------------------------------------------


def _transport_witness(P: ExchangeableLaw, N: int) -> Optional[ExchangeableLaw]:
    """Push ``P`` through the triangular inversion tables.

    The result always satisfies the marginal identities but may be signed;
    it is a witness exactly when it lands in the nonnegative orthant.
    """
    t: dict[TypeVector, Fraction] = {}
    for mu, w in P.weights.items():
        for nu, c in invert_urn(mu, N).coeffs.items():
            t[nu] = t.get(nu, Fraction(0)) + w * c
    if any(v < 0 for v in t.values()):
        return None
    return ExchangeableLaw(P.alphabet, N, t)


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


def staircase_mixture(P: ExchangeableLaw) -> Optional[tuple[Atom, ...]]:
    """Exact product-mixture certificate for "staircase" pair laws.

    Applies when ``P(X1=a, X2=b) == h(max(a, b))`` for a nonincreasing
    nonnegative profile ``h`` over the symbol positions.  Such a law is the
    mixture of uniform product laws on the prefixes, with telescoping
    weights ``(h(r) - h(r+1)) * r^2``; the peeling is exact and the weights
    are nonnegative precisely because ``h`` is nonincreasing.
    """
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
    atoms: list[Atom] = []
    zero = Fraction(0)
    for r in range(1, k + 1):
        nxt = profile[r] if r < k else zero
        weight = (profile[r - 1] - nxt) * r * r
        if weight:
            atoms.append((weight, (Fraction(1, r),) * r + (zero,) * (k - r)))
    if sum((w for w, _ in atoms), Fraction(0)) != 1:
        return None
    return tuple(atoms)


def mixture_extension(
    atoms: Sequence[Atom], N: int, alphabet: Alphabet
) -> ExchangeableLaw:
    """The length-``N`` law of a nonnegative product mixture.

    All atoms are summed over one common denominator (see
    :func:`~exchkit.measures._mixture_type_weights`); every weight of the
    returned law is still a ``Fraction``.
    """
    ensure_within_cap(type_count(alphabet.size, N), "mass-N type space")
    if any(w < 0 for w, _ in atoms):
        raise InputError("mixture_extension: weights must be nonnegative")
    return ExchangeableLaw(alphabet, N, _mixture_type_weights(atoms, N))


# -- the decision ------------------------------------------------------------------


def _dual_refutation(P: ExchangeableLaw, N: int, out: LpOutcome) -> SymmetricFunction:
    """The optimal refutation: the negated row duals of the norm program."""
    mus = enumerate_types(P.alphabet.size, P.n)
    g = SymmetricFunction(P.alphabet, P.n, {mu: -y for mu, y in zip(mus, out.certificate)})
    if sup_norm(apply_U(g, N)) != 1 or expectation(P, g) != out.objective_value:
        raise AssertionError("refutation: negated dual is not an optimal refutation")
    return g


def check_extendible(P: ExchangeableLaw, N: int) -> ExtendReport:
    """Decide N-extendibility with a verified certificate either way.

    Two exact constructions run first, and a witness from either pins the
    norm to 1 without a solve: the witness is a total-variation-1
    reproduction of ``P`` (so norm <= 1) and row stochasticity forces
    norm >= 1.  Otherwise one solve of the norm program decides: at norm 1
    its positive part is the witness, above 1 its negated dual is a
    refutation with ``sup |U g| = 1`` and ``E_P g == norm``.  Every witness
    is checked against the marginal identities before it is returned.

    The transport goes first because the urn columns it reads are set by
    the mass-``n`` types of ``P``, not by ``N``, while the norm program has
    two variables per mass-``N`` type: for large ``N`` the transport is the
    only route that stays cheap, and once those types are more than half
    the resource cap, the only one that runs at all.
    """
    _check_target(P, N)
    witness = _transport_witness(P, N)
    if witness is None:
        atoms = staircase_mixture(P)
        if atoms is not None:
            witness = mixture_extension(atoms, N, P.alphabet)
    if witness is None:
        nus, weights, out = _norm_program(P, N)
        norm = out.objective_value
        if norm > 1:
            g = _dual_refutation(P, N, out)
            return ExtendReport(N, Verdict.NOT_EXTENDIBLE, norm, refutation=g)
        if any(w < 0 for w in weights):
            raise AssertionError("extend: norm-1 optimum has a negative weight")
        witness = ExchangeableLaw(P.alphabet, N, {nu: w for nu, w in zip(nus, weights) if w})
    if not marginal_matches(witness, P):
        raise AssertionError("extend: witness failed the marginal identity")
    return ExtendReport(N, Verdict.EXTENDIBLE, Fraction(1), witness=witness)


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
    if N < P.n:
        raise InputError(f"extend: need N >= n, got N={N} < n={P.n}")
    return abs(expectation(P, g)) <= (1 + eps) * sup_norm(apply_U(g, N))


def _grid_mixture(P: ExchangeableLaw, depth: int) -> Optional[tuple[Atom, ...]]:
    """Nonnegative mixture of grid product laws reproducing P, if any: the
    least-total-variation grid combination when its value is 1 (the
    weights sum to 1, so a total variation of 1 leaves none negative)."""
    thetas, columns = _grid_columns(P, depth)
    weights, out = _min_total_variation(P, columns)
    if weights is None or out.objective_value != 1:
        return None
    if any(w < 0 for w in weights):
        raise AssertionError("probe: total-variation-1 grid mixture has a negative weight")
    return tuple((w, theta) for w, theta in zip(weights, thetas) if w)


def probe_infinite(
    P: ExchangeableLaw, N_max: int, grid_depth: int
) -> InfiniteReport:
    """Probe infinite extendibility within a finite budget.

    Step 1 sweeps N upward and reports the first refutation.  Step 2 tries
    to certify by a product-mixture: the staircase certificate first (exact,
    grid-free), then the grid LP at ``grid_depth`` and once more at double
    depth.  Grid infeasibility proves nothing, hence UNKNOWN.
    """
    if N_max < P.n:
        raise InputError(f"probe: need N_max >= n, got {N_max} < {P.n}")
    if grid_depth < 1:
        raise InputError("probe: grid_depth must be >= 1")
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
    atoms = staircase_mixture(P)
    if atoms is not None:
        return InfiniteReport(
            InfiniteOutcome.CERTIFIED_INFINITE,
            N_max=N_max,
            grid_depth=grid_depth,
            mixture=atoms,
        )
    for depth in (grid_depth, 2 * grid_depth):
        atoms = _grid_mixture(P, depth)
        if atoms is not None:
            return InfiniteReport(
                InfiniteOutcome.CERTIFIED_INFINITE,
                N_max=N_max,
                grid_depth=grid_depth,
                mixture=atoms,
                grid_depth_used=depth,
            )
    return InfiniteReport(
        InfiniteOutcome.UNKNOWN, N_max=N_max, grid_depth=grid_depth
    )


def covariance_bound(
    P: ExchangeableLaw, embedding: Mapping[str, RationalLike]
) -> CovarianceBound:
    """Pairwise covariance versus the exchangeability floor ``-var/(n-1)``.

    ``embedding`` assigns a rational value to every symbol; the moments come
    from the exact one- and two-coordinate marginals of ``P``.
    """
    if P.n < 2:
        raise InputError("covariance_bound: law must have n >= 2")
    values = []
    for s in P.alphabet.symbols:
        if s not in embedding:
            raise InputError(f"covariance_bound: embedding missing symbol {s!r}")
        values.append(as_fraction(embedding[s]))

    pair = marginalize(P, 2)
    single = marginalize(P, 1)
    k = P.alphabet.size

    mean = Fraction(0)
    second = Fraction(0)
    for i in range(k):
        w = single.weight(TypeVector.delta(i, k))
        if w:
            mean += w * values[i]
            second += w * values[i] ** 2

    cross = Fraction(0)
    for tau, w in pair.weights.items():
        sup = tau.support()
        if len(sup) == 1:
            cross += w * values[sup[0]] ** 2
        else:
            a, b = sup
            cross += w * values[a] * values[b]

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
