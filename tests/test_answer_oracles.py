"""Answers checked against closed forms and symmetries, not against vertices.

Each test compares a verdict or a norm with a value known independently of
how the program is solved, so it holds whatever the pivot rule, the start
or the alphabet handling: it pins what the answer is, not which optimal
vertex or certificate comes back.
"""

import itertools
import math
import random
from fractions import Fraction

from exchkit.corpus import disjoint_pairs_law
from exchkit.extend import Verdict, check_extendible, norm_EN
from exchkit.measures import ExchangeableLaw
from exchkit.typespace import Alphabet, TypeVector

from helpers import random_law

T = TypeVector
BINARY = Alphabet.of_size(2)


def _chord(N, p):
    """c_N(p): the least P(X1=X2=1) of an N-extendible binary law with
    P(X1=1) = p.  The urn with j ones of N has p = j/N and
    q = j(j-1)/(N(N-1)); these points are convex in j, so the least q over
    their mixtures interpolates them linearly."""
    j = math.floor(p * N)
    if j == N:
        return Fraction(1)
    return Fraction(j * (j - 1)) / (N * (N - 1)) + (p * N - j) * Fraction(2 * j, N * (N - 1))


def _pair_law(p, q):
    """The binary law on pairs with P(X1=1) = p and P(X1=X2=1) = q, or None
    if no law has them; symbol 1 is the first of the alphabet."""
    weights = {T((2, 0)): q, T((1, 1)): 2 * (p - q), T((0, 2)): 1 - 2 * p + q}
    if min(weights.values()) < 0:
        return None
    return ExchangeableLaw(BINARY, 2, weights)


def test_binary_pair_laws_are_extendible_exactly_above_the_chord():
    rng = random.Random(41)
    laws = [random_law(rng, 2, 2) for _ in range(120)]
    # laws on the chord and just below it, where >= and > part
    for N in range(3, 8):
        for i in range(2 * N + 1):
            p = Fraction(i, 2 * N)
            for shift in (0, Fraction(-1, 4 * N * N)):
                law = _pair_law(p, _chord(N, p) + shift)
                if law is not None:
                    laws.append(law)
    checked = {True: 0, False: 0}
    for law in laws:
        p = law.weight(T((2, 0))) + law.weight(T((1, 1))) / 2
        q = law.weight(T((2, 0)))
        for N in range(3, 8):
            expected = q >= _chord(N, p)
            assert (check_extendible(law, N).verdict is Verdict.EXTENDIBLE) == expected, (
                law.weights, N)
            checked[expected] += 1
    assert min(checked.values()) > 100  # both verdicts are exercised


def test_disjoint_pairs_norm_closed_form():
    pairs, _ = disjoint_pairs_law()
    for N in range(3, 11):
        assert norm_EN(pairs, N) == 3 - Fraction(2, math.ceil(N / 2)), N


def _relabelled(law, order, width):
    """``law`` with symbol ``order[i]`` moved to slot ``i`` and unused
    symbols appended up to ``width``."""
    pad = (0,) * (width - law.alphabet.size)
    return ExchangeableLaw(
        Alphabet.of_size(width),
        law.n,
        {T(tuple(tv.counts[i] for i in order) + pad): w for tv, w in law.weights.items()},
    )


def test_norm_is_invariant_under_relabelling_and_padding():
    rng = random.Random(43)
    checks = 0
    for k in (1, 2, 3):
        for n in (1, 2, 3):
            for _ in range(3):
                law = random_law(rng, k, n)
                for N in (n + 1, n + 2):
                    norm = norm_EN(law, N)
                    for order in itertools.permutations(range(k)):
                        assert norm_EN(_relabelled(law, order, k), N) == norm
                        checks += 1
                    # one unused symbol; kept small, since a padded law
                    # costs far more than the law itself
                    assert norm_EN(_relabelled(law, range(k), k + 1), N) == norm
                    checks += 1
    assert checks == 2 * 3 * 3 * (1 + 2 + 6 + 3)
