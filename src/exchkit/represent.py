"""Signed mixtures of product laws: existence made concrete on a grid.

Every exchangeable law on a finite alphabet is a *signed* combination of
product laws.  This module searches for such a combination with the product
parameters restricted to the rational grid of a given depth, minimizing
total variation (the l1 norm of the weights), and reports exactly what it
found: the atoms, their total variation, and - through :func:`reconstruct` -
the exact law they reproduce.  It solves the same grid program as the
infinite-extendibility probe, ``measures._min_total_variation``.

A total variation of 1 means the mixture is an honest probability mixture;
anything above 1 quantifies how far the law is from being one *on that
grid*.  No claim is made that the grid optimum equals the infimum over the
whole simplex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InputError, RepresentationError
from .measures import (
    Atom,
    ExchangeableLaw,
    _grid_columns,
    _min_total_variation,
    _mixture_type_weights,
)
from .symmetrize import SymmetricFunction, expectation
from .typespace import TypeVector, _require_int, as_fraction


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


def signed_mixture(P: ExchangeableLaw, grid_depth: int) -> SignedMixture:
    """Minimum-total-variation signed mixture of grid product laws.

    Solves: minimize the l1 norm of the weights subject to reproducing every
    type weight of ``P`` exactly, over product parameters with coordinates
    ``j/d``.  If the grid cannot represent ``P`` the depth is doubled, up to
    four refinements; running out raises :class:`RepresentationError`
    carrying the last infeasibility certificate (existence over the full
    simplex is guaranteed, so failure only ever indicts the grid).
    """
    if _require_int(grid_depth, "signed_mixture: grid_depth") < 1:
        raise InputError("signed_mixture: grid_depth must be >= 1")
    depth = grid_depth
    last_farkas = None
    for _ in range(5):
        thetas, columns = _grid_columns(P, depth)
        weights, out = _min_total_variation(P, len(thetas), columns)
        if weights is not None:
            return SignedMixture(tuple(zip(weights, thetas)))
        last_farkas = out.certificate
        depth *= 2
    raise RepresentationError(
        f"signed_mixture: no representation up to grid depth {depth // 2}",
        grid_depth=depth // 2,
        farkas=last_farkas,
    )


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
    return _mixture_type_weights(mix.atoms, n)


@dataclass(frozen=True)
class TvBound:
    """Ratio ``|E_P g| / max_grid |I(g, theta)|`` with its caveats.

    ``value`` is None when the grid denominator vanished while the
    numerator did not (an infinite bound: the grid is degenerate for this
    ``g``).  ``grid_only`` records that the denominator maximum was taken
    over the grid, not the whole simplex; the ratio is a certified lower
    bound on the total variation of any representing mixture only when the
    simplex maximum is attained on the grid.
    """

    value: Optional[Fraction]
    infinite: bool
    grid_depth: int
    grid_only: bool = True


def tv_lower_bound(
    P: ExchangeableLaw, g: SymmetricFunction, grid_depth: int = 4
) -> TvBound:
    """Grid estimate of the representation-norm lower bound for one ``g``.

    The numerator is exact; the denominator ``max |I(g, theta)|`` scans the
    product laws on the grid, so the reported ratio may overshoot the true
    bound when the simplex maximum falls between grid points - hence the
    ``grid_only`` flag on the result.
    """
    if P.alphabet != g.alphabet or P.n != g.m:
        raise InputError("tv_lower_bound: law and function are not compatible")
    if _require_int(grid_depth, "tv_lower_bound: grid_depth") < 1:
        raise InputError("tv_lower_bound: grid_depth must be >= 1")
    numerator = abs(expectation(P, g))
    denominator = Fraction(0)
    for column in _grid_columns(P, grid_depth)[1]:
        value = sum((w * g.values[tv] for tv, w in column), Fraction(0))
        denominator = max(denominator, abs(value))
    if denominator == 0:
        if numerator == 0:
            return TvBound(Fraction(0), infinite=False, grid_depth=grid_depth)
        return TvBound(None, infinite=True, grid_depth=grid_depth)
    return TvBound(numerator / denominator, infinite=False, grid_depth=grid_depth)


__all__ = [
    "SignedMixture",
    "TvBound",
    "reconstruct",
    "signed_mixture",
    "tv_lower_bound",
]
