"""Extendibility: norm, witnesses, refutations, probes, covariance."""

import math
import random
from fractions import Fraction

import pytest

from exchkit.corpus import disjoint_pairs_law, dyadic_max_law, urn_without_replacement
from exchkit.errors import CapacityError, InputError
from exchkit.extend import (
    InfiniteOutcome,
    Verdict,
    _transport_witness,
    check_extendible,
    corollary_criterion,
    covariance_bound,
    marginal_matches,
    mixture_extension,
    norm_EN,
    probe_infinite,
    staircase_mixture,
)
from exchkit.measures import ExchangeableLaw, marginalize, product_law, urn_measure
from exchkit.ratlp import solve
from exchkit.symmetrize import SymmetricFunction, apply_U, expectation, sup_norm
from exchkit.typespace import Alphabet, TypeVector, enumerate_types, multiset_count

from helpers import assert_report_certified, random_law, random_theta

T = TypeVector
URN = urn_without_replacement(2, 1)
SPIKE = SymmetricFunction.from_values(
    URN.alphabet,
    2,
    {T((2, 0)): Fraction(-1), T((1, 1)): Fraction(2), T((0, 2)): Fraction(-1)},
)


def test_norm_examples():
    assert norm_EN(product_law((Fraction(1, 2), Fraction(1, 2)), 2), 4) == 1
    assert norm_EN(URN, 3) == 2
    # hand witness for the value 2: E g = 2 while sup |U g| = 1
    assert expectation(URN, SPIKE) == 2
    assert sup_norm(apply_U(SPIKE, 3)) == 1
    # at N = n the norm is always 1
    rng = random.Random(5)
    for _ in range(5):
        law = random_law(rng, 3, 2)
        assert norm_EN(law, law.n) == 1


def test_norm_ladder_exact_values():
    # exact norms of two refuted laws on growing LPs: the integer-row simplex
    # must land on these exact rationals, not merely close to them
    law = ExchangeableLaw(
        Alphabet.of_size(3),
        3,
        {T((1, 1, 1)): Fraction(1, 2), T((3, 0, 0)): Fraction(1, 2)},
    )
    expected = [2, Fraction(8, 3), Fraction(8, 3), Fraction(113, 36),
                Fraction(10, 3), Fraction(17, 5), Fraction(18, 5)]
    assert [norm_EN(law, N) for N in range(4, 11)] == expected
    pairs, _ = disjoint_pairs_law()
    expected = [2, 2, Fraction(7, 3), Fraction(7, 3)]
    assert [norm_EN(pairs, N) for N in range(3, 7)] == expected


def test_norm_requires_target_at_least_n():
    with pytest.raises(InputError):
        norm_EN(URN, 1)


def test_check_extendible_urn_refuted():
    report = check_extendible(URN, 3)
    assert report.verdict is Verdict.NOT_EXTENDIBLE
    assert report.norm == 2
    assert_report_certified(URN, report)


def test_check_extendible_product_witness():
    P = product_law((Fraction(1, 3), Fraction(2, 3)), 2)
    report = check_extendible(P, 6)
    assert report.verdict is Verdict.EXTENDIBLE
    assert report.norm == 1
    assert_report_certified(P, report)


def test_lp_route_agrees_with_fast_paths(monkeypatch):
    # switch the fast paths off so the norm program decides laws they cover,
    # and count its solves: one per decision, whichever the verdict
    import exchkit.extend as extend
    import exchkit.measures as measures

    solves = []

    def counted(lp):
        solves.append(lp)
        return solve(lp)

    monkeypatch.setattr(extend, "_transport_witness", lambda P, N: None)
    monkeypatch.setattr(extend, "staircase_mixture", lambda P: None)
    monkeypatch.setattr(measures, "solve", counted)
    P = product_law((Fraction(1, 2), Fraction(1, 2)), 2)
    report = check_extendible(P, 4)
    assert report.refutation is None and marginal_matches(report.witness, P)
    refutation = check_extendible(URN, 3).refutation
    assert expectation(URN, refutation) > sup_norm(apply_U(refutation, 3))
    assert len(solves) == 2


def test_transport_witness_fast_path():
    P = product_law((Fraction(1, 2), Fraction(1, 2)), 2)
    w = _transport_witness(P, 3)
    assert w is not None and marginal_matches(w, P)
    assert _transport_witness(URN, 3) is None  # signed transport


def test_transport_decides_beyond_the_norm_program(monkeypatch):
    # The type-space check allows |N_N| up to the cap, the norm program
    # needs 2|N_N| variables; in between only the transport can decide.
    import exchkit.extend as extend
    import exchkit.measures as measures

    solves = []

    def counted(lp):
        solves.append(lp)
        return solve(lp)

    monkeypatch.setattr(measures, "solve", counted)
    monkeypatch.setenv("EXCHKIT_CAP", "10")
    point = ExchangeableLaw(Alphabet(("a", "b")), 3, {TypeVector((3, 0)): Fraction(1)})
    for N in (4, 5, 9):  # 5, 6 and 10 types
        report = check_extendible(point, N)
        assert report.verdict is Verdict.EXTENDIBLE and report.norm == 1
        assert_report_certified(point, report)
    assert not solves
    with pytest.raises(CapacityError, match="lp dimensions"):
        check_extendible(URN, 5)  # signed transport: the solve is still needed
    with pytest.raises(CapacityError, match="mass-N type space"):
        check_extendible(point, 10)
    with monkeypatch.context() as m:
        m.setattr(extend, "_transport_witness", lambda P, N: None)
        assert check_extendible(point, 4).verdict is Verdict.EXTENDIBLE
        with pytest.raises(CapacityError, match="lp dimensions"):
            check_extendible(point, 5)
    # at the default cap, far past the LP's reach
    monkeypatch.delenv("EXCHKIT_CAP")
    solves.clear()
    report = check_extendible(point, 30_000)
    assert report.verdict is Verdict.EXTENDIBLE and not solves
    assert report.witness.weights == {TypeVector((30_000, 0)): 1}


def test_norm_program_over_the_cap_is_never_built(monkeypatch):
    import exchkit.extend as extend

    def built(P, columns):
        raise AssertionError("norm program built over the cap")

    monkeypatch.setattr(extend, "_min_total_variation", built)
    monkeypatch.setenv("EXCHKIT_CAP", "20")  # 13 mass-12 types, 26 variables
    with pytest.raises(CapacityError, match="lp dimensions: size 26"):
        check_extendible(URN, 12)
    with pytest.raises(CapacityError, match="lp dimensions: size 26"):
        norm_EN(URN, 12)


def test_staircase_mixture_detection():
    law, decomposition = dyadic_max_law(1, [1, Fraction(1, 2)])
    atoms = staircase_mixture(law)
    assert atoms is not None
    assert atoms == decomposition.atoms
    assert staircase_mixture(URN) is None
    witness = mixture_extension(atoms, 5, law.alphabet)
    assert marginal_matches(witness, law)


def _witness_with_denominators(rng, k, N, denominators):
    """Random mass-N law whose weights mix the given denominators."""
    types = enumerate_types(k, N)
    raw = {
        tv: Fraction(rng.randint(1, 9), rng.choice(denominators))
        for tv in rng.sample(types, rng.randint(1, len(types)))
    }
    total = sum(raw.values())
    return ExchangeableLaw(Alphabet.of_size(k), N, {tv: w / total for tv, w in raw.items()})


def _agrees_with_marginalize(witness, P):
    return marginal_matches(witness, P) == (
        dict(marginalize(witness, P.n).weights) == dict(P.weights)
    )


def test_marginal_matches_agrees_with_marginalize():
    rng = random.Random(43)
    for _ in range(40):
        k, N = rng.randint(1, 3), rng.randint(1, 5)
        witness = _witness_with_denominators(rng, k, N, (7, 11, 13))
        other = _witness_with_denominators(rng, k, N, (7, 11, 13))
        for n in range(1, N + 1):
            assert marginal_matches(witness, marginalize(witness, n))
            assert _agrees_with_marginalize(witness, marginalize(other, n))
    # weights whose common denominator is wider than a machine word
    big = {T((5, 0, 0)): Fraction(1, 7**12), T((0, 5, 0)): Fraction(1, 11**10),
           T((0, 0, 5)): Fraction(1, 13**9)}
    big[T((2, 2, 1))] = 1 - sum(big.values())
    witness = ExchangeableLaw(Alphabet.of_size(3), 5, big)
    assert math.lcm(*(w.denominator for w in witness.weights.values())) > 2**64
    for n in range(1, 6):
        assert marginal_matches(witness, marginalize(witness, n))
        shifted = marginalize(_witness_with_denominators(rng, 3, 5, (7, 11, 13)), n)
        assert _agrees_with_marginalize(witness, shifted)


def test_marginal_matches_rejects_moved_mass():
    rng = random.Random(47)
    witness = _witness_with_denominators(rng, 3, 4, (7, 11, 13))
    (nu, q), (kappa, _) = list(witness.weights.items())[:2]
    n = 2
    assert urn_measure(nu, n) != urn_measure(kappa, n)
    P = marginalize(witness, n)
    for D in (q.denominator, 2**70):
        moved = dict(witness.weights)
        moved[nu] -= Fraction(1, D)
        moved[kappa] += Fraction(1, D)
        forged = ExchangeableLaw(witness.alphabet, 4, moved)  # still sums to 1
        assert not marginal_matches(forged, P)


def test_marginal_matches_rejects_incompatible_shapes():
    P = product_law((Fraction(1, 3), Fraction(2, 3)), 2)
    witness = product_law((Fraction(1, 3), Fraction(2, 3)), 4)
    assert marginal_matches(witness, P)
    relabelled = ExchangeableLaw(Alphabet(("x", "y")), 4, witness.weights)
    assert not marginal_matches(relabelled, P)
    assert not marginal_matches(P, witness)  # witness.n < P.n


def test_mixture_extension_equals_fraction_sum():
    rng = random.Random(53)
    for _ in range(20):
        k, N = rng.randint(1, 4), rng.randint(1, 5)
        weights = [Fraction(rng.randint(1, 2), p) for p in (7, 11, 13)]
        weights.append(1 - sum(weights))
        atoms = tuple((w, random_theta(rng, k)) for w in weights)
        # the multinomial formula, summed in Fractions type by type
        expected = {
            tv: sum(
                w * multiset_count(tv) * math.prod(t**c for t, c in zip(theta, tv.counts))
                for w, theta in atoms
            )
            for tv in enumerate_types(k, N)
        }
        law = mixture_extension(atoms, N, Alphabet.of_size(k))
        assert dict(law.weights) == {tv: v for tv, v in expected.items() if v}


def test_mixture_extension_respects_cap(monkeypatch):
    from exchkit.errors import CapacityError

    atoms = ((Fraction(1), (Fraction(1, 2), Fraction(1, 2))),)
    monkeypatch.setenv("EXCHKIT_CAP", "4")
    with pytest.raises(CapacityError):
        mixture_extension(atoms, 4, URN.alphabet)  # 5 mass-4 types over 2 symbols
    assert mixture_extension(atoms, 3, URN.alphabet).n == 3


def test_corollary_criterion_examples():
    one = SymmetricFunction.constant(URN.alphabet, 2, Fraction(1))
    assert corollary_criterion(URN, one, 3, Fraction(1, 7))
    assert not corollary_criterion(URN, SPIKE, 3, Fraction(1, 2))  # 2 > 3/2
    P = product_law((Fraction(1, 4), Fraction(3, 4)), 2, URN.alphabet)
    for g in (one, SPIKE):
        assert corollary_criterion(P, g, 4, Fraction(1, 100))
    with pytest.raises(InputError):
        corollary_criterion(URN, one, 3, Fraction(0))


def test_probe_product_certifies_with_single_atom():
    P = product_law((Fraction(1, 2), Fraction(1, 2)), 3)
    report = probe_infinite(P, 8, 2)
    assert report.outcome is InfiniteOutcome.CERTIFIED_INFINITE
    assert report.mixture == ((Fraction(1), (Fraction(1, 2), Fraction(1, 2))),)
    assert report.grid_depth_used == 2


def test_probe_urn_refutes_at_first_target():
    report = probe_infinite(URN, 5, 2)
    assert report.outcome is InfiniteOutcome.REFUTED_AT
    assert report.failing_N == 3
    assert report.failing_report is not None
    assert_report_certified(URN, report.failing_report)


def test_probe_unknown_on_coarse_grid():
    # extendible at small N but not a mixture on the depth-1 grid, and the
    # single doubling to depth 2 still misses it: honest UNKNOWN
    P = product_law((Fraction(1, 3), Fraction(2, 3)), 2)
    report = probe_infinite(P, 3, 1)
    assert report.outcome is InfiniteOutcome.UNKNOWN
    assert report.mixture is None and report.failing_N is None
    # a grid that contains theta certifies
    assert probe_infinite(P, 3, 3).outcome is InfiniteOutcome.CERTIFIED_INFINITE


def test_probe_records_range_and_depth():
    report = probe_infinite(URN, 4, 7)
    assert (report.N_max, report.grid_depth) == (4, 7)


def test_probe_validation_and_capacity(monkeypatch):
    with pytest.raises(InputError):
        probe_infinite(URN, 1, 2)  # N_max < n
    with pytest.raises(InputError):
        probe_infinite(URN, 4, 0)  # bad grid depth
    from exchkit.errors import CapacityError

    monkeypatch.setenv("EXCHKIT_CAP", "4")
    with pytest.raises(CapacityError):
        # not a staircase law, so the probe must reach the grid search
        probe_infinite(product_law((Fraction(1, 3), Fraction(2, 3)), 2), 2, 9)


def test_values_are_immutable():
    import dataclasses

    with pytest.raises(dataclasses.FrozenInstanceError):
        URN.n = 3
    with pytest.raises(TypeError):
        URN.weights[T((2, 0))] = Fraction(1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        SPIKE.m = 3


def test_covariance_examples():
    law, embedding = disjoint_pairs_law()
    bound = covariance_bound(law, embedding)
    assert bound.cov == Fraction(3, 16)
    assert bound.var == Fraction(5, 16)
    assert bound.satisfies

    P = product_law((Fraction(1, 3), Fraction(2, 3)), 3)
    pb = covariance_bound(P, {"s1": Fraction(0), "s2": Fraction(1)})
    assert pb.cov == 0 and pb.satisfies

    ub = covariance_bound(URN, {"0": Fraction(0), "1": Fraction(1)})
    assert ub.cov == Fraction(-1, 4)
    assert ub.var == Fraction(1, 4)
    assert ub.satisfies  # floor at n=2 is exactly -1/4


def test_covariance_needs_pairs():
    P = product_law((Fraction(1, 2), Fraction(1, 2)), 1)
    with pytest.raises(InputError):
        covariance_bound(P, {"s1": Fraction(0), "s2": Fraction(1)})


def test_duality_on_random_laws_small():
    rng = random.Random(23)
    for _ in range(25):
        law = random_law(rng, rng.randint(1, 3), rng.randint(1, 3))
        for N in range(law.n, 5):
            report = check_extendible(law, N)
            norm = norm_EN(law, N)
            assert (report.verdict is Verdict.EXTENDIBLE) == (norm == 1)
            assert report.norm == norm if report.verdict is Verdict.NOT_EXTENDIBLE else report.norm == 1
            assert_report_certified(law, report)


def test_monotone_extendibility_via_witness_projection():
    rng = random.Random(31)
    hits = 0
    for _ in range(40):
        law = random_law(rng, 2, 2)
        report = check_extendible(law, 5)
        if report.verdict is not Verdict.EXTENDIBLE:
            continue
        hits += 1
        for M in range(law.n, 5):
            projected = marginalize(report.witness, M)
            assert marginal_matches(projected, law)
            assert check_extendible(law, M).verdict is Verdict.EXTENDIBLE
    assert hits >= 3  # the sweep actually exercised the property


def test_norm_monotone_in_N():
    rng = random.Random(37)
    for _ in range(10):
        law = random_law(rng, 2, 2)
        norms = [norm_EN(law, N) for N in range(law.n, law.n + 5)]
        assert norms[0] == 1
        assert all(a <= b for a, b in zip(norms, norms[1:]))


def test_covariance_necessity_on_extendible_laws():
    rng = random.Random(41)
    embeddings = [
        {"s1": Fraction(0), "s2": Fraction(1)},
        {"s1": Fraction(-1), "s2": Fraction(2)},
    ]
    for _ in range(20):
        law = random_law(rng, 2, 2)
        report = check_extendible(law, 4)
        if report.verdict is Verdict.EXTENDIBLE:
            for embedding in embeddings:
                lifted = covariance_bound(report.witness, embedding)
                assert lifted.cov >= -lifted.var / (4 - 1)
