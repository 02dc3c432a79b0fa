"""Signed mixtures of product laws: existence made concrete on a grid.

Every exchangeable law on a finite alphabet is a *signed* combination of
product laws.  This module searches for such a combination with the product
parameters restricted to the rational grid of a given depth, minimizing
total variation (the l1 norm of the weights), and reports exactly what it
found: the atoms, their total variation, and - through :func:`reconstruct` -
the exact law they reproduce.  The grid program is built, solved and its
optimum checked against the law once, in ``_grid_mixture``, which the
infinite-extendibility probe in ``extend`` reads too.  It hands
``measures._min_total_variation`` the grid points of
``measures.simplex_grid`` as keys, each with its product law as the column,
and reads the weights back by grid point; the program's layout stays in
``measures``.

A total variation of 1 means the mixture is an honest probability mixture;
anything above 1 quantifies how far the law is from being one *on that
grid*.  No claim is made that the grid optimum equals the infimum over the
whole simplex; :func:`tv_lower_bound` bounds that infimum from below, and
the grid total variation bounds it from above.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .caps import ensure_within_cap
from .errors import InputError
from .measures import (
    Atom,
    ExchangeableLaw,
    _min_total_variation,
    _mixture_type_weights,
    simplex_grid,
)
from .symmetrize import SymmetricFunction, apply_U, expectation, sup_norm
from .typespace import TypeVector, _require_int, as_fraction, type_count


@dataclass(frozen=True)
class SignedMixture:
    """Finitely many product-law atoms with rational weights of either sign.

    ``total_mass`` is 1 whenever the mixture represents a probability law
    (the representation integrates the constant); ``total_variation`` is the
    certificate of how much cancellation the representation needed.
    """

    atoms: tuple[Atom, ...]

    def __post_init__(self):
        clean: list[Atom] = []
        width = None
        for weight, theta in self.atoms:
            weight = as_fraction(weight)
            theta = tuple(as_fraction(t) for t in theta)
            if width is None:
                width = len(theta)
            elif len(theta) != width:
                raise InputError("mixture: atoms over different alphabets")
            if any(t < 0 for t in theta) or sum(theta) != 1:
                raise InputError("mixture: atom parameter is not a probability vector")
            if weight:
                clean.append((weight, theta))
        object.__setattr__(self, "atoms", tuple(clean))

    @property
    def total_variation(self) -> Fraction:
        return sum((abs(w) for w, _ in self.atoms), Fraction(0))

    @property
    def total_mass(self) -> Fraction:
        return sum((w for w, _ in self.atoms), Fraction(0))

    @property
    def width(self) -> int:
        return len(self.atoms[0][1]) if self.atoms else 0


def _grid_mixture(P: ExchangeableLaw, depth: int) -> Optional[SignedMixture]:
    """The least-total-variation combination of the depth-``depth`` grid
    product laws reproducing ``P``; None when the grid cannot reproduce it.
    The one grid program: :func:`signed_mixture` doubles its depth and
    ``extend.probe_infinite`` certifies from it.  The optimum is checked
    here, for both readers: atoms that miss ``P`` are an internal error."""
    weights, _, _ = _min_total_variation(
        P,
        simplex_grid(P.alphabet.size, depth),
        lambda theta: _mixture_type_weights(((1, theta),), P.n).items(),
    )
    if weights is None:
        return None
    mix = SignedMixture(tuple((w, theta) for theta, w in weights.items()))
    if _mixture_type_weights(mix.atoms, P.n) != dict(P.weights):
        raise AssertionError("represent: grid atoms do not reproduce the law")
    return mix


def signed_mixture(P: ExchangeableLaw, grid_depth: int) -> SignedMixture:
    """Minimum-total-variation signed mixture of grid product laws.

    Solves: minimize the l1 norm of the weights subject to reproducing every
    type weight of ``P`` exactly, over product parameters with coordinates
    ``j/d``.  If the grid cannot represent ``P`` the depth is doubled until
    it can, which happens by the first depth ``d >= n``: the degree-``d``
    principal lattice is unisolvent (Chung & Yao, SIAM J. Numer. Anal.
    1977), so the product laws on it span every mass-``n`` law.  An
    infeasible program at such a depth, or an optimum whose atoms do not
    reproduce ``P``, is an internal invariant failure.
    """
    if _require_int(grid_depth, "signed_mixture: grid_depth") < 1:
        raise InputError("signed_mixture: grid_depth must be >= 1")
    depth = grid_depth
    while True:
        mix = _grid_mixture(P, depth)
        if mix is not None:
            return mix
        if depth >= P.n:
            raise AssertionError(
                f"signed_mixture: the depth-{depth} grid cannot represent a mass-{P.n} law"
            )
        depth *= 2


def reconstruct(mix: SignedMixture, n: int) -> dict[TypeVector, Fraction]:
    """Evaluate the signed combination on every mass-``n`` type class.

    Pure linear algebra: entries may land outside [0, 1] for arbitrary
    mixtures; whether the result is a law is the caller's check.  Zero
    entries are dropped and the types come out lexicographically
    increasing, so comparing against ``law.weights`` is exact.  The atoms
    are summed in integers over one common denominator; every returned
    value is a ``Fraction``.
    """
    if not mix.atoms:
        raise InputError("reconstruct: mixture has no atoms")
    if _require_int(n, "reconstruct: n") < 1:
        raise InputError("reconstruct: n must be >= 1")
    ensure_within_cap(type_count(mix.width, n), "mass-n type space")
    return _mixture_type_weights(mix.atoms, n)


def tv_lower_bound(P: ExchangeableLaw, g: SymmetricFunction, N: int) -> Fraction:
    """Certified lower bound ``|E_P g| / sup |U_N g|`` on the total
    variation of every signed product mixture that reproduces ``P``.

    ``(U_N g)(nu)`` are the degree-``N`` Bernstein coefficients of the
    polynomial ``I(g, theta) = sum_mu g(mu) * mult(mu) * theta**mu``, and
    Bernstein coefficients bound their polynomial on the simplex.  Since
    ``E_P g`` is the weighted sum of ``I(g, theta)`` over the atoms, the
    ratio bounds the total variation of any representation, with its atoms
    on a grid or off it.  It does not decrease with ``N >= n``.  ``U_N``
    has a trivial kernel, so the denominator is 0 only for ``g = 0``, whose
    bound is 0.
    """
    if P.alphabet != g.alphabet or P.n != g.m:
        raise InputError("tv_lower_bound: law and function are not compatible")
    if _require_int(N, "tv_lower_bound: N") < P.n:
        raise InputError(f"tv_lower_bound: need N >= n, got N={N} < n={P.n}")
    sup = sup_norm(apply_U(g, N))
    return abs(expectation(P, g)) / sup if sup else Fraction(0)


__all__ = [
    "SignedMixture",
    "reconstruct",
    "signed_mixture",
    "tv_lower_bound",
]
