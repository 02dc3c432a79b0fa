"""Worked example laws with known extendibility behaviour.

Three families, each a small constructor plus the data needed to check the
claims made about it elsewhere in the suite:

* ``urn_without_replacement`` - the classic counterexample: fix the number
  of ones in a binary length-``n`` sequence and sample uniformly.  Not
  extendible to any longer length (unless degenerate).
* ``disjoint_pairs_law`` - four symbols, two disjoint couples, each couple
  equally likely.  Positive pairwise covariance under its natural numeric
  embedding, yet not infinitely extendible: covariance positivity is far
  from sufficient.
* ``dyadic_max_law`` - a pair law on dyadic cells whose cell-pair
  probability depends only on the larger cell index through a nonincreasing
  profile.  Always an honest mixture of prefix-uniform product laws (the
  telescoping "staircase" decomposition), hence infinitely extendible; the
  decomposition itself is returned as the certificate.

``coarse_convergence_check`` compares the dyadic-max construction across
refinement levels on a fixed coarse partition, reporting the discrepancies
(a nonincreasing trend is expected but deliberately not asserted).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .caps import ensure_within_cap
from .errors import InputError
from .extend import _pair_matrix, staircase_mixture
from .measures import ExchangeableLaw
from .represent import SignedMixture
from .typespace import Alphabet, RationalLike, TypeVector, _require_int, as_fraction


def urn_without_replacement(n: int, ones: int) -> ExchangeableLaw:
    """Uniform law on binary length-``n`` sequences with exactly ``ones`` ones."""
    _require_int(n, "urn_without_replacement: n")
    _require_int(ones, "urn_without_replacement: ones")
    if n < 2:
        raise InputError("urn_without_replacement: need n >= 2")
    if not 0 <= ones <= n:
        raise InputError(f"urn_without_replacement: need 0 <= ones <= {n}, got {ones}")
    alphabet = Alphabet(("0", "1"))
    tv = TypeVector((n - ones, ones))
    return ExchangeableLaw(alphabet, n, {tv: Fraction(1)})


def disjoint_pairs_law() -> tuple[ExchangeableLaw, dict[str, Fraction]]:
    """Two couples on four symbols, plus the numeric embedding used for its
    covariance check.

    The pair ``(X1, X2)`` is one of the couples in either order, each of the
    four ordered outcomes with probability 1/4; the embedding maps the
    symbols to 1, 3/2, 2, 5/2.
    """
    alphabet = Alphabet(("s1", "s2", "s3", "s4"))
    weights = {
        TypeVector((1, 1, 0, 0)): Fraction(1, 2),
        TypeVector((0, 0, 1, 1)): Fraction(1, 2),
    }
    law = ExchangeableLaw(alphabet, 2, weights)
    embedding = {
        "s1": Fraction(1),
        "s2": Fraction(3, 2),
        "s3": Fraction(2),
        "s4": Fraction(5, 2),
    }
    return law, embedding


def _cell_alphabet(count: int) -> Alphabet:
    return Alphabet(tuple(f"I{i + 1}" for i in range(count)))


def _dyadic_cells(level: int) -> int:
    """Number of cells at ``level``, once the unordered cell pairs fit the cap."""
    if _require_int(level, "dyadic_max_law: level") < 1:
        raise InputError("dyadic_max_law: level must be >= 1")
    cells = level * 2**level
    ensure_within_cap(cells * (cells + 1) // 2, "dyadic cell pairs")
    return cells


def dyadic_max_law(
    level: int, profile: Sequence[RationalLike]
) -> tuple[ExchangeableLaw, SignedMixture]:
    """Pair law on the ``level * 2**level`` bounded dyadic cells.

    The probability of the ordered cell pair ``(a, b)`` is
    ``c * profile[max(a, b)]`` with ``c`` the exact normalizer; ``profile``
    holds the value at each grid point ``r / 2**level`` and must be
    nonincreasing, nonnegative, and not identically zero (this is what makes
    both the law and its telescoping decomposition nonnegative).

    Returns the law together with its staircase mixture of prefix-uniform
    product laws, as found by :func:`extend.staircase_mixture`: weights
    ``c * (profile[r] - profile[r+1]) * r**2`` on the uniform distribution
    over the first ``r`` cells.  The mixture reconstructs the law exactly
    and certifies infinite extendibility.
    """
    cells = _dyadic_cells(level)
    values = [as_fraction(v) for v in profile]
    if len(values) != cells:
        raise InputError(
            f"dyadic_max_law: profile needs {cells} values for level {level}, "
            f"got {len(values)}"
        )
    for a, b in zip(values, values[1:]):
        if a < b:
            raise InputError("dyadic_max_law: profile must be nonincreasing")
    if values[-1] < 0:
        raise InputError("dyadic_max_law: profile must be nonnegative")
    if all(v == 0 for v in values):
        raise InputError("dyadic_max_law: profile must not be identically zero")

    # Normalizer: each max-index r is hit by 2r - 1 ordered cell pairs.
    total = sum(((2 * r + 1) * v for r, v in enumerate(values)), Fraction(0))
    c = 1 / total

    alphabet = _cell_alphabet(cells)
    weights: dict[TypeVector, Fraction] = {}
    for r in range(cells):
        p = c * values[r]
        if not p:
            continue
        counts = [0] * cells
        counts[r] = 2
        weights[TypeVector(tuple(counts))] = p
        for i in range(r):
            counts = [0] * cells
            counts[i] = counts[r] = 1
            weights[TypeVector(tuple(counts))] = 2 * p
    law = ExchangeableLaw(alphabet, 2, weights)

    atoms = staircase_mixture(law)
    if atoms is None:
        raise AssertionError("dyadic_max_law: the law is not a staircase")
    return law, SignedMixture(atoms)


def coarse_convergence_check(
    levels: Sequence[int], i: int, profile: Sequence[RationalLike]
) -> list[Fraction]:
    """Discrepancy of each level's law against the finest one, measured on
    level-``i`` cell rectangles.

    ``profile`` gives the value at every grid point of the finest level in
    ``levels`` (coarser levels subsample it), and each level's law is
    :func:`dyadic_max_law` of its subsample, so the profile must meet that
    function's conditions at every level.  For each level ``j`` the
    result holds ``max over level-i rectangles A of |P_j(A) - P_jmax(A)|``.
    The trend is expected to fall toward zero as levels refine; it is
    reported, not asserted.
    """
    if not levels:
        raise InputError("coarse_convergence_check: need at least one level")
    for j in levels:
        _require_int(j, "coarse_convergence_check: levels")
    _require_int(i, "coarse_convergence_check: i")
    if any(j < 1 for j in levels):
        raise InputError("coarse_convergence_check: levels must be >= 1")
    if not 1 <= i <= min(levels):
        raise InputError(
            f"coarse_convergence_check: need 1 <= i <= min(levels), got i={i}"
        )
    finest = max(levels)
    fine_cells = _dyadic_cells(finest)
    values = [as_fraction(v) for v in profile]
    if len(values) != fine_cells:
        raise InputError(
            f"coarse_convergence_check: profile needs {fine_cells} values "
            f"for level {finest}, got {len(values)}"
        )

    def level_values(j: int) -> list[Fraction]:
        # Grid point r / 2**j equals fine grid point r * 2**(finest-j).
        step = 2 ** (finest - j)
        return [values[r * step - 1] for r in range(1, j * 2**j + 1)]

    def coarse_table(j: int) -> list[list[Fraction]]:
        fine = _pair_matrix(dyadic_max_law(j, level_values(j))[0])
        blocks = 2 ** (j - i)
        size = i * 2**i
        out = [[Fraction(0)] * size for _ in range(size)]
        for a in range(size):
            for b in range(size):
                acc = Fraction(0)
                for x in range(a * blocks, (a + 1) * blocks):
                    for y in range(b * blocks, (b + 1) * blocks):
                        acc += fine[x][y]
                out[a][b] = acc
        return out

    reference = coarse_table(finest)
    size = i * 2**i
    discrepancies = []
    for j in levels:
        table = coarse_table(j)
        worst = max(
            abs(table[a][b] - reference[a][b]) for a in range(size) for b in range(size)
        )
        discrepancies.append(worst)
    return discrepancies


__all__ = [
    "coarse_convergence_check",
    "disjoint_pairs_law",
    "dyadic_max_law",
    "urn_without_replacement",
]
