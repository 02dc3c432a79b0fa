"""Shared generators and certificate checks for the test suite.

Randomness is always driven by an explicit seeded ``random.Random`` so every
sweep is reproducible; nothing here touches global RNG state.
"""

from __future__ import annotations

import random
from fractions import Fraction

import exchkit.measures as measures
from exchkit.extend import ExtendReport, InfiniteOutcome, InfiniteReport, Verdict, marginal_matches
from exchkit.measures import ExchangeableLaw
from exchkit.ratlp import LinearProgram, _Simplex
from exchkit.represent import SignedMixture, reconstruct
from exchkit.symmetrize import SymmetricFunction, apply_U, expectation, sup_norm
from exchkit.typespace import Alphabet, enumerate_types


def random_law(rng: random.Random, k: int, n: int, max_denominator: int = 12) -> ExchangeableLaw:
    """Random exchangeable law: distribute D <= max_denominator unit weights."""
    alphabet = Alphabet.of_size(k)
    types = enumerate_types(k, n)
    d = rng.randint(1, max_denominator)
    counts = [0] * len(types)
    for _ in range(d):
        counts[rng.randrange(len(types))] += 1
    weights = {
        tv: Fraction(c, d) for tv, c in zip(types, counts) if c
    }
    return ExchangeableLaw(alphabet, n, weights)


def random_function(
    rng: random.Random, alphabet: Alphabet, m: int, span: int = 6
) -> SymmetricFunction:
    values = {
        tv: Fraction(rng.randint(-span, span), rng.randint(1, 4))
        for tv in enumerate_types(alphabet.size, m)
    }
    return SymmetricFunction(alphabet, m, values)


def random_theta(rng: random.Random, k: int, max_denominator: int = 6) -> tuple[Fraction, ...]:
    """Random rational probability vector with small common denominator."""
    d = rng.randint(1, max_denominator)
    counts = [0] * k
    for _ in range(d):
        counts[rng.randrange(k)] += 1
    return tuple(Fraction(c, d) for c in counts)


def random_lp(rng: random.Random) -> LinearProgram:
    """Small random LP: the shapes acceptance criterion 9 asks for."""
    n = rng.randint(1, 4)
    m = rng.randint(1, 6)

    def coeff() -> Fraction:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 3))

    constraints = []
    for _ in range(m):
        row = tuple(coeff() for _ in range(n))
        rel = rng.choice(("<=", "=", ">="))
        constraints.append((row, rel, coeff()))
    free = [j for j in range(n) if rng.random() < 0.2]
    upper = {
        j: Fraction(abs(rng.randint(0, 8)), rng.randint(1, 2))
        for j in range(n)
        if rng.random() < 0.15
    }
    sense = rng.choice(("max", "min"))
    objective = [coeff() for _ in range(n)]
    return LinearProgram.build(sense, objective, constraints, free=free, upper=upper)


def patch_simplex(monkeypatch, inputs=None, built=None, solved=None) -> None:
    """Stand in for every simplex that ``measures`` builds: the one place
    that declares ``ratlp._Simplex``'s arguments.  Each hook reads them by
    name (``rows``, ``columns``, ``start``): ``inputs(args)`` may change
    them before the simplex is built, ``built(simplex, args)`` sees it once
    built, and ``solved(outcome, args)`` returns the outcome that its
    ``solve`` reports instead of ``outcome``."""

    def stand_in(rows, columns, start=None):
        args = {"rows": rows, "columns": columns, "start": start}
        if inputs is not None:
            inputs(args)
        simplex = _Simplex(**args)
        if built is not None:
            built(simplex, args)
        if solved is not None:
            solve = simplex.solve
            simplex.solve = lambda: solved(solve(), args)
        return simplex

    monkeypatch.setattr(measures, "_Simplex", stand_in)


def assert_report_certified(P: ExchangeableLaw, report: ExtendReport) -> None:
    """Independent re-check of whichever certificate the report carries."""
    if report.verdict is Verdict.EXTENDIBLE:
        assert report.norm == 1
        assert report.witness is not None and report.refutation is None
        assert report.witness.n == report.N
        assert marginal_matches(report.witness, P)
    else:
        assert report.norm > 1
        assert report.refutation is not None and report.witness is None
        g = report.refutation
        assert sup_norm(apply_U(g, report.N)) == 1
        assert expectation(P, g) == report.norm


def assert_probe_certified(P: ExchangeableLaw, report: InfiniteReport) -> None:
    """Independent re-check of an infinite-extendibility probe's report.

    A certificate must be a nonnegative product mixture of total variation
    1 that reproduces ``P``; a refutation must carry a checked failing
    report at ``failing_N``; ``UNKNOWN`` must carry nothing.
    """
    if report.outcome is InfiniteOutcome.CERTIFIED_INFINITE:
        assert report.failing_N is None and report.failing_report is None
        assert report.grid_depth_used in (None, report.grid_depth, 2 * report.grid_depth)
        mix = SignedMixture(report.mixture)
        assert all(w >= 0 for w, _ in mix.atoms) and mix.total_variation == 1
        assert reconstruct(mix, P.n) == dict(P.weights)
    elif report.outcome is InfiniteOutcome.REFUTED_AT:
        assert report.mixture is None and report.grid_depth_used is None
        failing = report.failing_report
        assert failing is not None and failing.verdict is Verdict.NOT_EXTENDIBLE
        assert report.failing_N == failing.N and P.n < failing.N <= report.N_max
        assert_report_certified(P, failing)
    else:
        assert report.outcome is InfiniteOutcome.UNKNOWN
        assert report.mixture is None and report.grid_depth_used is None
        assert report.failing_N is None and report.failing_report is None
