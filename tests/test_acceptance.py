"""Acceptance criteria.

One test per criterion, each printing a single PASS/FAIL line with its
elapsed time against the stated budget (run ``pytest -s`` to see the lines
as they happen; ``-rA`` shows them afterward).  Every assertion is exact;
the tolerances are all zero.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from exchkit.cli import _norm_primal_lp
from exchkit.corpus import disjoint_pairs_law, dyadic_max_law, urn_without_replacement
from exchkit.extend import (
    InfiniteOutcome,
    Verdict,
    check_extendible,
    covariance_bound,
    marginal_matches,
    mixture_extension,
    norm_EN,
    probe_infinite,
)
from exchkit.measures import (
    invert_urn,
    product_law,
    reconstruct_check,
    urn_measure,
)
from exchkit.oracle import solve_lp_by_enumeration, urn_law_by_enumeration
from exchkit.ratlp import LpStatus, solve, verify
from exchkit.represent import reconstruct, signed_mixture
from exchkit.symmetrize import SymmetricFunction, apply_U, expectation, sup_norm
from exchkit.typespace import Alphabet, TypeVector, enumerate_types

from helpers import (
    assert_probe_certified,
    assert_report_certified,
    random_function,
    random_law,
    random_lp,
    random_theta,
)

T = TypeVector


@contextmanager
def criterion(num: int, budget_s: float, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {num}: FAIL ({elapsed:.2f}s) {description}", flush=True)
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget_s
    verdict = "PASS" if ok else "FAIL"
    print(
        f"ACCEPTANCE {num}: {verdict} ({elapsed:.2f}s / budget {budget_s:.0f}s) {description}",
        flush=True,
    )
    assert ok, f"criterion {num} exceeded its {budget_s}s budget ({elapsed:.2f}s)"


def test_criterion_1_urn_law_refuted_with_norm_2():
    with criterion(1, 1.0, "fixed-count urn law: refuted at N=3, norm exactly 2"):
        law = urn_without_replacement(2, 1)
        report = check_extendible(law, 3)
        assert report.verdict is Verdict.NOT_EXTENDIBLE
        assert_report_certified(law, report)
        assert norm_EN(law, 3) == 2
        # hand-checkable maximizer: E g = 2 against sup |U g| = 1
        spike = SymmetricFunction(
            law.alphabet,
            2,
            {T((2, 0)): Fraction(-1), T((1, 1)): Fraction(2), T((0, 2)): Fraction(-1)},
        )
        assert expectation(law, spike) == 2
        assert sup_norm(apply_U(spike, 3)) == 1
        for N in range(3, 9):
            rep = check_extendible(law, N)
            assert rep.verdict is Verdict.NOT_EXTENDIBLE
            assert_report_certified(law, rep)


def test_criterion_2_disjoint_pairs_covariance_and_refutation():
    with criterion(2, 30.0, "disjoint-pairs law: cov 3/16, probe refutes by N=12"):
        law, embedding = disjoint_pairs_law()
        bound = covariance_bound(law, embedding)
        assert bound.cov == Fraction(3, 16)
        report = probe_infinite(law, 12, 8)
        assert report.outcome is InfiniteOutcome.REFUTED_AT
        assert report.failing_N is not None and report.failing_N <= 12
        assert report.failing_N == 3  # frozen value from the probe itself
        assert_probe_certified(law, report)


def test_criterion_3_inversion_identity_sweep():
    with criterion(3, 10.0, "triangular inversion reconstructs exactly, k<=3 n<=3 N<=6"):
        pairs = 0
        identities = 0
        for k in (1, 2, 3):
            for n in range(0, 4):
                mass_types = enumerate_types(k, n)
                for mu in mass_types:
                    for N in range(n, 7):
                        assert reconstruct_check(invert_urn(mu, N))
                        pairs += 1
                        identities += len(mass_types)
        assert pairs >= 150 and identities >= 500


def test_criterion_4_hypergeometric_matches_draw_enumeration():
    with criterion(4, 10.0, "urn law equals brute-force draw enumeration, k<=3 N<=6"):
        cases = 0
        for k in (1, 2, 3):
            alphabet = Alphabet.of_size(k)
            for N in range(1, 7):
                for nu in enumerate_types(k, N):
                    for n in range(1, N + 1):
                        fast = urn_measure(nu, n, alphabet)
                        brute = urn_law_by_enumeration(nu, n, alphabet)
                        assert fast == brute
                        cases += 1
        assert cases >= 200


def test_criterion_5_duality_on_200_random_laws():
    with criterion(5, 120.0, "extendible iff norm == 1 on 200 seeded random laws"):
        rng = random.Random(2024)
        for _ in range(200):
            law = random_law(rng, rng.randint(1, 3), rng.randint(1, 3), 12)
            for N in range(law.n, 6):
                report = check_extendible(law, N)
                norm = norm_EN(law, N)
                assert (norm == 1) == (report.verdict is Verdict.EXTENDIBLE)
                if report.verdict is Verdict.NOT_EXTENDIBLE:
                    assert report.norm == norm > 1
                assert_report_certified(law, report)
                # the paper's definition, solved on its own: max E_P g over
                # free g with |U_N g| <= 1
                primal = _norm_primal_lp(law, N)
                out = solve(primal)
                assert verify(primal, out) and out.objective_value == norm


def test_criterion_6_product_laws_certified_everywhere():
    with criterion(6, 60.0, "product laws: norm 1 up to n+5, certified mixtures, tv 1"):
        rng = random.Random(77)
        for _ in range(20):
            k = rng.randint(2, 3)
            n = rng.randint(1, 3)
            theta = random_theta(rng, k, 6)
            law = product_law(theta, n)
            for N in range(n, n + 6):
                assert norm_EN(law, N) == 1
            depth = max(t.denominator for t in theta)
            probe = probe_infinite(law, n + 2, depth)
            assert probe.outcome is InfiniteOutcome.CERTIFIED_INFINITE
            assert_probe_certified(law, probe)
            mix = signed_mixture(law, depth)
            assert mix.total_variation == 1
            assert reconstruct(mix, n) == dict(law.weights)


def test_criterion_7_dyadic_max_family():
    with criterion(7, 60.0, "dyadic-max laws: nonneg decomposition, exact, extendible"):
        for level in (1, 2, 3):
            cells = level * 2**level
            profiles = [
                [Fraction(cells + 1 - r, cells + 1) for r in range(1, cells + 1)],
                [Fraction(1)] * cells,
                [Fraction(1)] * (cells // 2) + [Fraction(1, 3)] * (cells - cells // 2),
            ]
            for profile in profiles:
                law, mix = dyadic_max_law(level, profile)
                assert all(w >= 0 for w, _ in mix.atoms)
                assert mix.total_mass == 1
                assert reconstruct(mix, 2) == dict(law.weights)
                for N in (3, 4):
                    report = check_extendible(law, N)
                    assert report.verdict is Verdict.EXTENDIBLE
                    assert_report_certified(law, report)
                # the embedded mixture is itself the infinite certificate
                witness = mixture_extension(mix.atoms, 4, law.alphabet)
                assert marginal_matches(witness, law)


def test_criterion_8_operator_laws():
    with criterion(8, 30.0, "averaging operator: contraction, composition, monotone"):
        rng = random.Random(4096)
        for _ in range(100):
            k = rng.randint(1, 3)
            n = rng.randint(1, 3)
            alphabet = Alphabet.of_size(k)
            g = random_function(rng, alphabet, n)
            base = sup_norm(g)
            norms = []
            for N in range(n, n + 5):
                lifted = apply_U(g, N)
                norms.append(sup_norm(lifted))
                assert norms[-1] <= base  # contraction
            assert all(a >= b for a, b in zip(norms, norms[1:]))  # monotone
            n2 = rng.randint(n, n + 2)
            n3 = rng.randint(n2, n + 4)
            assert apply_U(g, n3) == apply_U(apply_U(g, n2), n3)  # composition


def test_criterion_9_lp_kernel_against_vertex_oracle():
    with criterion(9, 120.0, "exact simplex matches vertex enumeration on 500 programs"):
        rng = random.Random(31337)
        counts = {status: 0 for status in LpStatus}
        for _ in range(500):
            lp = random_lp(rng)
            out = solve(lp)
            assert verify(lp, out)
            status, value = solve_lp_by_enumeration(lp)
            assert status is out.status
            if status is LpStatus.OPTIMAL:
                assert value == out.objective_value
            counts[status] += 1
        # the sweep must actually exercise all three outcomes
        assert all(counts[status] > 10 for status in LpStatus), counts
