"""Seeded workloads for the exchkit benchmark, with exact output checks.

A workload is a list of tasks.  A task is one or more decisions (calls into
a public exchkit entry point) followed by a check of their results.  Each
call looks its entry point up on the module when it runs (``extend.x``, not
a name imported here), so the tracer's wrappers see it.  Checks run outside
the timed and traced regions.  ``digest`` lets a later pass show that it
reproduced a checked answer exactly without repeating the check.

The laws are built here from the seed; the library sees only the laws.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import math
import random
from fractions import Fraction
from typing import Any, Callable, Mapping, Sequence

try:  # the built-in module; hashlib loads OpenSSL, about 4 MB of peak_rss_mb
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

from exchkit import cli, extend, represent
from exchkit.corpus import disjoint_pairs_law, dyadic_max_law
from exchkit.extend import InfiniteOutcome, Verdict, marginal_matches
from exchkit.measures import ExchangeableLaw, product_law
from exchkit.represent import SignedMixture, reconstruct
from exchkit.symmetrize import apply_U, expectation, sup_norm
from exchkit.typespace import Alphabet, TypeVector, enumerate_types


@dataclasses.dataclass(frozen=True)
class Task:
    """Decisions (zero-argument calls, one public entry point each) and the
    exact check of their results."""

    calls: tuple[Callable[[], Any], ...]
    check: Callable[[list], bool]


# -- seeded generators ---------------------------------------------------------


def random_law(rng: random.Random, k: int, n: int, max_denominator: int) -> ExchangeableLaw:
    """Spread ``d <= max_denominator`` unit weights of size ``1/d`` over the
    mass-``n`` types (the shape of acceptance criterion 5)."""
    types = enumerate_types(k, n)
    d = rng.randint(1, max_denominator)
    counts = [0] * len(types)
    for _ in range(d):
        counts[rng.randrange(len(types))] += 1
    weights = {tv: Fraction(c, d) for tv, c in zip(types, counts) if c}
    return ExchangeableLaw(Alphabet.of_size(k), n, weights)


def random_theta(rng: random.Random, k: int, d: int) -> tuple[Fraction, ...]:
    """Rational probability vector whose least common denominator is ``d``."""
    while True:
        counts = [0] * k
        for _ in range(d):
            counts[rng.randrange(k)] += 1
        if math.gcd(*counts) == 1:
            return tuple(Fraction(c, d) for c in counts)


# -- exact checks ----------------------------------------------------------------


def _witness_ok(law: ExchangeableLaw, report, N: int) -> bool:
    w = report.witness
    return (
        report.verdict is Verdict.EXTENDIBLE
        and report.norm == 1
        and report.refutation is None
        and w is not None
        and w.n == N
        and all(q >= 0 for q in w.weights.values())
        and marginal_matches(w, law)
    )


def _refutation_ok(law: ExchangeableLaw, report, N: int) -> bool:
    g = report.refutation
    return (
        report.verdict is Verdict.NOT_EXTENDIBLE
        and report.norm > 1
        and report.witness is None
        and g is not None
        and expectation(law, g) > sup_norm(apply_U(g, N))
    )


def report_ok(law: ExchangeableLaw, report, N: int) -> bool:
    if report.N != N:
        return False
    if report.verdict is Verdict.EXTENDIBLE:
        return _witness_ok(law, report, N)
    return _refutation_ok(law, report, N)


def _mixture_reproduces(atoms, law: ExchangeableLaw) -> bool:
    mix = SignedMixture(tuple(atoms))
    return mix.total_variation == 1 and reconstruct(mix, law.n) == dict(law.weights)


def _feed(h, value) -> None:
    # Mappings go in item by item: one repr of a whole witness would be a
    # string of megabytes and would show in peak_rss_mb.
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        h.update(type(value).__name__.encode())
        for f in dataclasses.fields(value):
            _feed(h, getattr(value, f.name))
    elif isinstance(value, Mapping):
        for item in value.items():
            h.update(repr(item).encode())
    elif isinstance(value, (tuple, list)):
        for item in value:
            _feed(h, item)
    else:
        h.update(repr(value).encode())
    h.update(b";")


def digest(results: list) -> bytes:
    """Hash of the exact values in a task's results.

    Every exchkit result is a dataclass of Fractions, enums and mappings of
    types, and their ``repr`` spells out every exact value.  Mappings go in
    their own order: the same code on the same inputs builds them in the
    same order, and a different order only costs a full check.
    """
    h = blake2b()
    _feed(h, results)
    return h.digest()


def _all_claims_true(value) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, dict):
        return all(_all_claims_true(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_claims_true(v) for v in value)
    return True


def run_cli(argv: Sequence[str]) -> tuple[int, str]:
    """``cli.main`` with its standard output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _corpus_ok(result: tuple[int, str]) -> bool:
    code, text = result
    if code != 0:
        return False
    entries = json.loads(text)["corpus"]
    return (
        [e["name"] for e in entries] == ["urn", "pairs", "dyadic-max", "dyadic-max"]
        and all(_all_claims_true(e["claims"]) for e in entries)
    )


# -- workloads ---------------------------------------------------------------------

# Laws per (k, n) cell in sweep_small.  Every cell gets the same count so the
# seed moves only the weights, not the mix of law sizes; a free draw of
# (k, n) per law made the run time swing 1.5x between seeds.
SWEEP_LAWS_PER_CELL = 22
SWEEP_TOP_N = 5


def sweep_small(seed: int) -> list[Task]:
    rng = random.Random(seed)
    tasks = []
    for _ in range(SWEEP_LAWS_PER_CELL):
        for k in (1, 2, 3):
            for n in (1, 2, 3):
                law = random_law(rng, k, n, 12)
                for N in range(n + 1, SWEEP_TOP_N + 1):
                    tasks.append(Task(
                        (lambda law=law, N=N: extend.check_extendible(law, N),
                         lambda law=law, N=N: extend.norm_EN(law, N)),
                        lambda r, law=law, N=N: (
                            report_ok(law, r[0], N)
                            and (r[1] == 1) == (r[0].verdict is Verdict.EXTENDIBLE)
                            and r[0].norm == r[1]
                        ),
                    ))
    return tasks


# Exact norms at the commit that introduced this benchmark.
LADDER_URN_NORMS = {
    4: Fraction(2), 5: Fraction(8, 3), 6: Fraction(8, 3), 7: Fraction(113, 36),
    8: Fraction(10, 3), 9: Fraction(17, 5), 10: Fraction(18, 5),
}
LADDER_PAIRS_NORMS = {3: Fraction(2), 4: Fraction(2), 5: Fraction(7, 3), 6: Fraction(7, 3)}


def norm_ladder(seed: int) -> list[Task]:
    del seed  # fixed laws: the ladder has no random part
    urn3 = ExchangeableLaw(
        Alphabet.of_size(3), 3,
        {TypeVector((1, 1, 1)): Fraction(1, 2), TypeVector((3, 0, 0)): Fraction(1, 2)},
    )
    pairs, _ = disjoint_pairs_law()
    tasks = []
    for law, norms in ((urn3, LADDER_URN_NORMS), (pairs, LADDER_PAIRS_NORMS)):
        for N, expected in norms.items():
            tasks.append(Task(
                (lambda law=law, N=N: extend.check_extendible(law, N),),
                lambda r, law=law, N=N, expected=expected: (
                    r[0].verdict is Verdict.NOT_EXTENDIBLE
                    and r[0].norm == expected
                    and report_ok(law, r[0], N)
                ),
            ))
    return tasks


# Denominators of the product laws for each (k, n) in certify_mixtures.  The
# grid depth, and with it the size of every grid LP, is the denominator.
PRODUCT_DENOMINATORS = (1, 2, 2, 3, 3, 4, 5, 6)
# The numerators come from this fixed stream and the workload seed only
# shuffles them over the symbols.  Which numerators a law has decides whether
# its probes need LPs; with numerators drawn from the workload seed, the
# slowest tenth of the decisions, and so decision_p90_ms, changed with it.
PRODUCT_NUMERATOR_SEED = 0


def _dyadic_profiles(level: int) -> list[list[Fraction]]:
    """The three profiles of acceptance criterion 7."""
    cells = level * 2**level
    return [
        [Fraction(cells + 1 - r, cells + 1) for r in range(1, cells + 1)],
        [Fraction(1)] * cells,
        [Fraction(1)] * (cells // 2) + [Fraction(1, 3)] * (cells - cells // 2),
    ]


def certify_mixtures(seed: int) -> list[Task]:
    dyadic = []
    for level in (2, 3):
        for profile in _dyadic_profiles(level):
            law, _ = dyadic_max_law(level, profile)
            for N in (3, 4):
                dyadic.append(Task(
                    (lambda law=law, N=N: extend.check_extendible(law, N),),
                    lambda r, law=law, N=N: (
                        r[0].verdict is Verdict.EXTENDIBLE and report_ok(law, r[0], N)
                    ),
                ))
    numerators = random.Random(PRODUCT_NUMERATOR_SEED)
    rng = random.Random(seed)
    products = []
    for k, n, depth in itertools.product((2, 3), (1, 2, 3), PRODUCT_DENOMINATORS):
        theta = list(random_theta(numerators, k, depth))
        rng.shuffle(theta)
        law = product_law(tuple(theta), n)
        products.append(Task(
            (lambda law=law, N=n + 3, d=depth: extend.probe_infinite(law, N, d),
             lambda law=law, d=depth: represent.signed_mixture(law, d)),
            lambda r, law=law: (
                r[0].outcome is InfiniteOutcome.CERTIFIED_INFINITE
                and _mixture_reproduces(r[0].mixture, law)
                and _mixture_reproduces(r[1].atoms, law)
            ),
        ))
    # One dyadic task after every four product tasks, so each kind of
    # decision is spread over the whole pass rather than one stretch of it.
    step = len(products) // len(dyadic)
    tasks = []
    for i, task in enumerate(dyadic):
        tasks += products[i * step:(i + 1) * step] + [task]
    tasks.append(Task(
        (lambda: run_cli(["corpus", "all"]),),
        lambda r: _corpus_ok(r[0]),
    ))
    return tasks


WORKLOADS = {
    "sweep_small": sweep_small,
    "norm_ladder": norm_ladder,
    "certify_mixtures": certify_mixtures,
}
