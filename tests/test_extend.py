"""Extendibility: norm, witnesses, refutations, probes, covariance."""

import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from exchkit.corpus import (
    coarse_convergence_check,
    disjoint_pairs_law,
    dyadic_max_law,
    urn_without_replacement,
)
from exchkit.errors import CapacityError, InputError
from exchkit.extend import (
    InfiniteOutcome,
    Verdict,
    _staircase_steps,
    _staircase_type_weights,
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
from exchkit.measures import (
    ExchangeableLaw,
    _marginal,
    _transport,
    invert_urn,
    marginalize,
    product_law,
    simplex_grid,
    urn_coefficient,
    urn_measure,
)
from exchkit.oracle import urn_law_by_enumeration
from exchkit.ratlp import _Simplex
from exchkit.represent import reconstruct, signed_mixture, tv_lower_bound
from exchkit.symmetrize import SymmetricFunction, apply_U, expectation, sup_norm
from exchkit.typespace import (
    Alphabet,
    TypeVector,
    enumerate_types,
    multiset_count,
    subtypes,
    type_count,
    type_of,
)

from helpers import (
    assert_probe_certified,
    assert_report_certified,
    patch_simplex,
    random_law,
    random_theta,
)

T = TypeVector
URN = urn_without_replacement(2, 1)
SPIKE = SymmetricFunction(
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

    solves = []
    monkeypatch.setattr(extend, "_transport_witness", lambda P, N: None)
    monkeypatch.setattr(extend, "_staircase_steps", lambda P: None)
    patch_simplex(monkeypatch, built=lambda simplex, args: solves.append(args["columns"]))
    P = product_law((Fraction(1, 2), Fraction(1, 2)), 2)
    report = check_extendible(P, 4)
    assert report.refutation is None and marginal_matches(report.witness, P)
    refutation = check_extendible(URN, 3).refutation
    assert expectation(URN, refutation) > sup_norm(apply_U(refutation, 3))
    assert len(solves) == 2


def test_anchor_start_skips_phase_1_and_keeps_the_optimum(monkeypatch):
    # With the fast paths off, every decision solves the norm program from
    # its urn anchors: no artificial may be basic once they are pivoted in,
    # so phase 1 never runs, and the optimum must equal that of the same
    # program solved from all-artificial rows through phase 1.
    import exchkit.extend as extend

    values = []

    def started(simplex, args):
        assert simplex.pivots == len(args["rows"]) == len(args["start"])
        assert not simplex.artificials.intersection(simplex.basis)

    def compared(out, args):
        plain = _Simplex(args["rows"], args["columns"])
        assert plain.artificials.intersection(plain.basis)
        assert out.objective_value == plain.solve().objective_value
        values.append(out.objective_value)
        return out

    monkeypatch.setattr(extend, "_transport_witness", lambda P, N: None)
    monkeypatch.setattr(extend, "_staircase_steps", lambda P: None)
    patch_simplex(monkeypatch, built=started, solved=compared)
    rng = random.Random(24)
    laws = [random_law(rng, k, n) for k in (1, 2, 3) for n in (1, 2, 3) for _ in range(2)]
    cases = [(law, N) for law in laws for N in range(law.n, law.n + 4)]
    rng = random.Random(2024)  # the laws of acceptance criterion 5
    for _ in range(200):
        law = random_law(rng, rng.randint(1, 3), rng.randint(1, 3), 12)
        cases += [(law, N) for N in range(law.n, 6)]
    for law, N in cases:
        assert check_extendible(law, N).norm == -values[-1]
    assert len(values) == len(cases)
    assert {v == -1 for v in values} == {True, False}


def test_transport_witness_fast_path():
    P = product_law((Fraction(1, 2), Fraction(1, 2)), 2)
    w = _transport_witness(P, 3)
    assert w is not None and marginal_matches(w, P)
    assert _transport_witness(URN, 3) is None  # signed transport


def _inversion_sum(P, N):
    """The transport's reference: every type of P inverted on its own,
    summed in Fractions."""
    reference: dict[TypeVector, Fraction] = {}
    for mu, w in P.weights.items():
        for nu, c in invert_urn(mu, N).coeffs.items():
            reference[nu] = reference.get(nu, Fraction(0)) + w * c
    return {nu: v for nu, v in sorted(reference.items()) if v}


def _assert_transport_is_the_inversion_sum(P, N):
    """The signed transport equals the reference entry for entry, its
    marginal is P, and the witness is the reference, keys in sorted order,
    exactly when it is nonnegative.  Returns whether it was."""
    reference = _inversion_sum(P, N)
    acc, denominator = _transport(P.weights, P.alphabet.size, N)
    signed = {T(c): Fraction(v, denominator) for c, v in sorted(acc.items()) if v}
    assert signed == reference, (P, N)
    # the reference shares the transport's relabel; _marginal reads no
    # inversion table and no urn column
    assert _marginal(signed, P.alphabet.size, P.n) == dict(P.weights), (P, N)
    witness = _transport_witness(P, N)
    if any(v < 0 for v in reference.values()):
        assert witness is None
        return False
    assert witness.weights == reference
    assert list(witness.weights) == list(reference)
    return True


def test_transport_equals_the_sum_of_inversion_tables():
    rng = random.Random(23)
    laws = []
    for k, n in ((2, 2), (3, 2), (3, 3), (4, 3), (5, 2), (5, 3)):
        for _ in range(4):
            laws.append(random_law(rng, k, n))
            laws.append(product_law(random_theta(rng, k), n))
    repeated = signed = nonnegative = 0
    for P in laws:
        patterns = [tuple(sorted(c for c in mu.counts if c)) for mu in P.weights]
        repeated += P.alphabet.size == 5 and len(set(patterns)) < len(patterns)
        for N in range(P.n, P.n + 4):
            if _assert_transport_is_the_inversion_sum(P, N):
                nonnegative += 1
            else:
                signed += 1
    assert repeated and signed and nonnegative


@pytest.mark.parametrize(
    "types",
    [
        # one pattern, (1, 2), on three different supports
        ("2:1:0", "0:1:2", "1:0:2"),
        # tied counts: the slots go to the support in ascending count, then
        # position, so 1:1:2 fills symbols (0, 1, 2) and 2:1:1 fills (1, 2, 0)
        ("1:1:2", "2:1:1"),
        # a tie at the largest count decides which symbol takes the anchor's
        # extra N - n draws: symbol 2, 2 and 1 here (ties below it are
        # symmetric in the table)
        ("1:0:1", "0:1:1", "1:1:0"),
    ],
)
def test_transport_shares_one_table_per_count_pattern(types):
    import exchkit.measures as measures

    mus = [T.from_typestring(t) for t in types]
    weights = dict.fromkeys(mus, Fraction(1, len(mus)))
    P = ExchangeableLaw(Alphabet.of_size(3), mus[0].mass, weights)
    Ns = range(P.n, P.n + 4)
    for N in Ns:
        _assert_transport_is_the_inversion_sum(P, N)
    # one inverted table per N, whichever support the pattern sits on
    assert measures._pattern_table.cache_info().currsize == len(Ns)
    for N in Ns:
        _transport(P.weights, P.alphabet.size, N)
    assert measures._pattern_table.cache_info().misses == len(Ns)


def test_transport_checks_the_cap_on_a_cached_table(monkeypatch):
    # a table cached under a larger cap must not carry a transport past a
    # cap lowered since
    import exchkit.measures as measures

    P = ExchangeableLaw(Alphabet.of_size(3), 3, {T((1, 1, 1)): Fraction(1)})
    _transport_witness(P, 6)  # 10 mass-3 types over 3 symbols
    assert measures._pattern_table.cache_info().currsize == 1
    monkeypatch.setenv("EXCHKIT_CAP", "5")
    with pytest.raises(CapacityError, match="urn inversion types"):
        _transport_witness(P, 6)


def test_a_wrong_inversion_table_is_refused(monkeypatch):
    # The transport trusts the closed form of _pattern_table; the witness
    # check does not.  The transport settles (1/2, 1/2)^2 at N=3 with the
    # witness {1:2 3/4, 3:0 1/4}.  With one numerator unit moved from each
    # table's second entry to its first it is still nonnegative, but its
    # marginal is not the law.
    import exchkit.measures as measures

    real = measures._pattern_table

    def moved(pattern, N):
        den, entries = real(pattern, N)
        if len(entries) > 1:
            (a0, c0), (a1, c1) = entries[:2]
            entries = ((a0, c0 + 1), (a1, c1 - 1)) + entries[2:]
        return den, entries

    P = product_law((Fraction(1, 2), Fraction(1, 2)), 2)
    witness = _transport_witness(P, 3)
    assert dict(witness.weights) == {T((1, 2)): Fraction(3, 4), T((3, 0)): Fraction(1, 4)}
    monkeypatch.setattr(measures, "_pattern_table", moved)
    witness = _transport_witness(P, 3)
    assert dict(witness.weights) == {
        T((0, 3)): Fraction(1, 4), T((1, 2)): Fraction(1, 2), T((3, 0)): Fraction(1, 4)
    }
    with pytest.raises(AssertionError, match="extend: witness failed the marginal identity"):
        check_extendible(P, 3)


def test_norm_takes_the_constructive_witness_first(monkeypatch):
    # a transport or staircase witness pins the norm to 1 without a solve,
    # even where the norm program is over the cap
    import exchkit.extend as extend

    solves = []
    patch_simplex(monkeypatch, built=lambda simplex, args: solves.append(args["columns"]))
    point = ExchangeableLaw(Alphabet(("a", "b")), 3, {TypeVector((3, 0)): Fraction(1)})
    assert norm_EN(point, 30_000) == 1
    staircase = dyadic_max_law(1, [1, 1])[0]  # uniform product on two symbols
    assert _transport_witness(staircase, 4) is None
    assert staircase_mixture(staircase) is not None
    monkeypatch.setenv("EXCHKIT_CAP", "8")  # 5 mass-4 types, 10 variables
    assert norm_EN(staircase, 4) == 1
    assert not solves
    # a constructive witness is checked, and a failed check is never
    # answered by the program instead
    monkeypatch.setattr(extend, "marginal_matches", lambda witness, P: False)
    with pytest.raises(AssertionError, match="marginal identity"):
        norm_EN(point, 4)
    assert not solves


def test_transport_decides_beyond_the_norm_program(monkeypatch):
    # The type-space check allows |N_N| up to the cap, the norm program
    # needs 2|N_N| variables; in between only the transport can decide.
    import exchkit.extend as extend

    solves = []
    patch_simplex(monkeypatch, built=lambda simplex, args: solves.append(args["columns"]))
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

    def built(nu, n):
        raise AssertionError("norm program built over the cap")

    monkeypatch.setattr(extend, "_urn_column", built)
    monkeypatch.setenv("EXCHKIT_CAP", "20")  # 13 mass-12 types, 26 variables
    with pytest.raises(CapacityError, match="lp dimensions: size 26"):
        check_extendible(URN, 12)
    with pytest.raises(CapacityError, match="lp dimensions: size 26"):
        norm_EN(URN, 12)


K3N3 = ExchangeableLaw(
    Alphabet.of_size(3), 3, {T((1, 1, 1)): Fraction(1, 2), T((3, 0, 0)): Fraction(1, 2)}
)


def test_norm_is_the_checked_decision(monkeypatch):
    # a simplex whose optimum is off by one: the refutation check refuses
    # it, and norm_EN answers nothing that check_extendible would refuse
    import dataclasses

    def off_by_one(out, args):
        return dataclasses.replace(out, objective_value=out.objective_value - 1)

    assert norm_EN(URN, 3) == 2
    patch_simplex(monkeypatch, solved=off_by_one)
    with pytest.raises(AssertionError, match="not an optimal refutation"):
        check_extendible(URN, 3)
    with pytest.raises(AssertionError, match="not an optimal refutation"):
        norm_EN(URN, 3)


def test_norm_one_claim_is_checked_by_its_weights(monkeypatch):
    # A simplex that claims the optimum 1 (max form -1) where the norm is 2:
    # at norm 1 no refutation is checked, so the weights' own check, total
    # variation equal to the claimed norm, must refuse it.
    import dataclasses

    import exchkit.extend as extend

    def claims_one(out, args):
        return dataclasses.replace(out, objective_value=Fraction(-1))

    assert norm_EN(URN, 3) == 2
    monkeypatch.setattr(extend, "_transport_witness", lambda P, N: None)
    patch_simplex(monkeypatch, solved=claims_one)
    for decide in (check_extendible, norm_EN):
        with pytest.raises(AssertionError, match="signed weights do not reproduce P at the norm"):
            decide(URN, 3)


K4N3 = ExchangeableLaw(
    Alphabet.of_size(4),
    3,
    {
        T((1, 0, 2, 0)): Fraction(1, 16),
        T((0, 1, 2, 0)): Fraction(7, 16),
        T((0, 0, 3, 0)): Fraction(7, 16),
        T((1, 2, 0, 0)): Fraction(1, 16),
    },
)


def test_refuted_norm_is_pinned_from_both_sides(monkeypatch):
    # A simplex that loses the last marginal row solves a looser program.
    # Its dual, with a zero for the lost row, still passes apply_U and
    # prices P at the looser optimum, so the refutation bounds that too-low
    # norm only from below; the signed weights miss the lost row of P.
    import dataclasses

    def dropped_row(args):
        args["rows"], args["start"] = args["rows"][:-1], args["start"][:-1]

    def padded(out, args):
        return dataclasses.replace(out, certificate=(*out.certificate, Fraction(0)))

    cases = ((K3N3, 4), (K3N3, 5), (K3N3, 6), (K4N3, 6))
    assert [norm_EN(P, N) for P, N in cases] == [2, Fraction(8, 3), Fraction(8, 3), Fraction(113, 96)]
    patch_simplex(monkeypatch, inputs=dropped_row, solved=padded)
    for P, N in cases:
        for decide in (check_extendible, norm_EN):
            with pytest.raises(AssertionError, match="signed weights do not reproduce"):
                decide(P, N)


def test_certificate_checks_read_no_urn_column(monkeypatch):
    # Urn columns with their first two coefficients swapped mislead the
    # norm program, the one decider that reads them (the inversion tables
    # are a closed form in binomials and read none).
    # The refutation check sums its own draw table, so it refuses what
    # they decide; the witness check never read them.
    import exchkit.extend as extend
    import exchkit.measures as measures
    import exchkit.symmetrize as symmetrize

    real = measures._urn_column

    def swapped(nu, n):
        column = list(real(nu, n))
        if len(column) > 1:
            (mu0, a0), (mu1, a1) = column[:2]
            column[:2] = [(mu0, a1), (mu1, a0)]
        return tuple(column)

    cases = ((URN, 3), (URN, 4), (K3N3, 5))
    assert [norm_EN(P, N) for P, N in cases] == [2, 2, Fraction(8, 3)]
    measures._pattern_table.cache_clear()  # rebuilt from binomials, not columns
    monkeypatch.setattr(measures, "_urn_column", swapped)
    monkeypatch.setattr(extend, "_urn_column", swapped)
    monkeypatch.setattr(symmetrize, "_urn_column", swapped, raising=False)
    for P, N in cases:
        for decide in (check_extendible, norm_EN):
            with pytest.raises(AssertionError):
                decide(P, N)


def test_staircase_mixture_detection():
    law, decomposition = dyadic_max_law(1, [1, Fraction(1, 2)])
    atoms = staircase_mixture(law)
    assert atoms is not None
    assert atoms == decomposition.atoms
    assert staircase_mixture(URN) is None
    witness = mixture_extension(atoms, 5, law.alphabet)
    assert marginal_matches(witness, law)


def _staircase_law(profile):
    """The pair law with P(X1=a, X2=b) proportional to profile[max(a, b)]."""
    k = len(profile)
    total = sum((2 * r + 1) * h for r, h in enumerate(profile))
    weights = {}
    for r, h in enumerate(profile):
        weights[T(tuple(2 * (i == r) for i in range(k)))] = Fraction(h, total)
        for i in range(r):
            weights[T(tuple(int(j in (i, r)) for j in range(k)))] = Fraction(2 * h, total)
    return ExchangeableLaw(Alphabet.of_size(k), 2, weights)


def test_staircase_witness_equals_mixture_extension():
    # the one-walk builder against the atom-by-atom evaluator, order included
    rng = random.Random(59)
    profiles = [[3, 3, 1, 0, 0], [1], [2, 2, 2, 2, 2, 2], [5, 0]]
    for _ in range(30):
        k = rng.randint(1, 6)
        profile = sorted((rng.randint(0, 4) for _ in range(k)), reverse=True)
        if profile[0]:
            profiles.append(profile)
    tied = ended = 0
    for profile in profiles:
        law = _staircase_law(profile)
        steps = _staircase_steps(law)
        atoms = staircase_mixture(law)
        assert [w for _, w in steps] == [w for w, _ in atoms]
        tied += any(a == b for a, b in zip(profile, profile[1:]) if a)
        ended += profile[-1] == 0
        for N in range(2, 7):
            built = _staircase_type_weights(steps, N, len(profile))
            expected = mixture_extension(atoms, N, law.alphabet)
            assert list(built.items()) == list(expected.weights.items())
            assert marginal_matches(ExchangeableLaw(law.alphabet, N, built), law)
    assert tied and ended


def test_staircase_witness_respects_cap(monkeypatch):
    steps = _staircase_steps(_staircase_law([1, 1]))
    monkeypatch.setenv("EXCHKIT_CAP", "4")
    with pytest.raises(CapacityError, match="mass-N type space"):
        _staircase_type_weights(steps, 4, 2)  # 5 mass-4 types over 2 symbols
    assert len(_staircase_type_weights(steps, 3, 2)) == 4


def _witness_with_denominators(rng, k, N, denominators):
    """Random mass-N law whose weights mix the given denominators."""
    types = enumerate_types(k, N)
    raw = {
        tv: Fraction(rng.randint(1, 9), rng.choice(denominators))
        for tv in rng.sample(types, rng.randint(1, len(types)))
    }
    total = sum(raw.values())
    return ExchangeableLaw(Alphabet.of_size(k), N, {tv: w / total for tv, w in raw.items()})


def _agrees_with_brute_marginal(witness, P):
    return marginal_matches(witness, P) == (
        dict(_brute_marginal(witness, P.n).weights) == dict(P.weights)
    )


def test_marginal_matches_agrees_with_brute_marginal():
    # marginalize and marginal_matches read one sum, so the reference is
    # the urn_coefficient sum of _brute_marginal
    rng = random.Random(43)
    for _ in range(40):
        k, N = rng.randint(1, 3), rng.randint(1, 5)
        witness = _witness_with_denominators(rng, k, N, (7, 11, 13))
        other = _witness_with_denominators(rng, k, N, (7, 11, 13))
        for n in range(1, N + 1):
            assert marginal_matches(witness, _brute_marginal(witness, n))
            assert _agrees_with_brute_marginal(witness, _brute_marginal(other, n))
    # weights whose common denominator is wider than a machine word
    big = {T((5, 0, 0)): Fraction(1, 7**12), T((0, 5, 0)): Fraction(1, 11**10),
           T((0, 0, 5)): Fraction(1, 13**9)}
    big[T((2, 2, 1))] = 1 - sum(big.values())
    witness = ExchangeableLaw(Alphabet.of_size(3), 5, big)
    assert math.lcm(*(w.denominator for w in witness.weights.values())) > 2**64
    for n in range(1, 6):
        assert marginal_matches(witness, _brute_marginal(witness, n))
        shifted = _brute_marginal(_witness_with_denominators(rng, 3, 5, (7, 11, 13)), n)
        assert _agrees_with_brute_marginal(witness, shifted)


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


def _sparse_witness(rng, k, N):
    """A few random mass-N types over k symbols, each on a small support."""
    raw = {}
    for _ in range(rng.randint(1, 6)):
        support = rng.sample(range(k), rng.randint(1, min(k, N)))
        counts = [0] * k
        for i in support:
            counts[i] = 1
        for _ in range(N - len(support)):
            counts[rng.choice(support)] += 1
        raw[T(tuple(counts))] = Fraction(rng.randint(1, 9), rng.choice((1, 7, 11)))
    total = sum(raw.values())
    return ExchangeableLaw(Alphabet.of_size(k), N, {tv: w / total for tv, w in raw.items()})


def _brute_marginal(witness, n):
    """The mass-n marginal of a witness from urn_coefficient alone."""
    return ExchangeableLaw(witness.alphabet, n, {
        mu: sum(w * urn_coefficient(nu, mu) for nu, w in witness.weights.items())
        for mu in enumerate_types(witness.alphabet.size, n)
    })


def test_marginal_matches_agrees_with_urn_coefficients():
    rng = random.Random(61)
    rejected = 0
    for _ in range(80):
        k, N = rng.randint(1, 7), rng.randint(1, 5)
        witness = _sparse_witness(rng, k, N)
        for n in range(1, min(N, 3) + 1):
            P = _brute_marginal(witness, n)
            assert marginal_matches(witness, P)
            # half of one marginal weight moved to another mass-n type
            mus = enumerate_types(k, n)
            if len(mus) > 1:
                src = rng.choice(list(P.weights))
                dst = rng.choice([mu for mu in mus if mu != src])
                moved = dict(P.weights)
                moved[src] /= 2
                moved[dst] = moved.get(dst, 0) + moved[src]
                assert not marginal_matches(witness, ExchangeableLaw(P.alphabet, n, moved))
                rejected += 1
            other = _sparse_witness(rng, k, N)
            same = dict(_brute_marginal(other, n).weights) == dict(P.weights)
            assert marginal_matches(other, P) == same
    assert rejected > 100


def test_marginal_matches_tells_apart_supports_of_one_pattern():
    # each pair shares a count pattern (and so a table) but not its symbols
    alphabet = Alphabet.of_size(5)
    pairs = [
        ("2:1:0:0:0", "0:0:0:2:1"),
        ("2:1:0:0:0", "0:2:1:0:0"),
        ("1:0:2:0:0", "0:1:0:0:2"),
        ("1:1:1:0:0", "0:0:1:1:1"),
        ("3:0:0:0:0", "0:0:0:0:3"),
    ]
    for a, b in pairs:
        nu, kappa = T.from_typestring(a), T.from_typestring(b)
        third = Fraction(1, 3)
        witness = ExchangeableLaw(alphabet, 3, {nu: third, kappa: third, T((1, 0, 1, 0, 1)): third})
        for n in (1, 2):
            P = _brute_marginal(witness, n)
            assert marginal_matches(witness, P)
            for D in (6, 2**70):
                forged = dict(witness.weights)
                forged[nu] -= Fraction(1, D)
                forged[kappa] += Fraction(1, D)
                assert not marginal_matches(ExchangeableLaw(alphabet, 3, forged), P)


def test_marginal_matches_reads_no_fast_path(monkeypatch):
    import exchkit.extend as extend
    import exchkit.measures as measures

    P = product_law((Fraction(1, 3), Fraction(2, 3)), 2)
    transported = _transport_witness(P, 4)
    assert transported is not None
    law = _staircase_law([3, 3, 1, 0])
    built = _staircase_type_weights(_staircase_steps(law), 4, 4)
    staircase = ExchangeableLaw(law.alphabet, 4, built)
    (nu, _), (kappa, _) = list(built.items())[:2]
    assert urn_measure(nu, 2) != urn_measure(kappa, 2)
    forged = dict(built)
    forged[nu] -= Fraction(1, 2**40)
    forged[kappa] += Fraction(1, 2**40)
    forged = ExchangeableLaw(law.alphabet, 4, forged)

    def unavailable(*args):
        raise AssertionError("marginal_matches read a fast path")

    monkeypatch.setattr(measures, "_urn_column", unavailable)
    monkeypatch.setattr(extend, "_urn_column", unavailable)
    monkeypatch.setattr(extend, "_staircase_steps", unavailable)
    monkeypatch.setattr(extend, "_transport_witness", unavailable)
    assert marginal_matches(transported, P)
    assert marginal_matches(staircase, law)
    assert not marginal_matches(forged, law)


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


@pytest.mark.parametrize(
    "atoms, fault",
    [
        ((), "mixture_extension: weights must sum to 1, got 0"),
        (((Fraction(1, 2), (Fraction(1, 2), Fraction(1, 2))),),
         "mixture_extension: weights must sum to 1, got 1/2"),
        (((Fraction(2), (Fraction(1), Fraction(0))),
          (Fraction(-1), (Fraction(0), Fraction(1)))), "weights must be nonnegative"),
        (((Fraction(1), (Fraction(0), Fraction(0), Fraction(1))),), "atoms have width 3"),
        (((Fraction(1), (Fraction(1, 3), Fraction(1, 3))),), "not a probability vector"),
        (((Fraction(1, 2), (Fraction(1),)),
          (Fraction(1, 2), (Fraction(1, 2), Fraction(1, 2)))), "different alphabets"),
    ],
    ids=["empty", "mass", "negative", "width", "theta", "mixed-widths"],
)
def test_mixture_extension_validates_its_atoms(atoms, fault):
    # each fault is named up front, not met later as a law error about a type
    with pytest.raises(InputError, match=fault):
        mixture_extension(atoms, 3, URN.alphabet)


@pytest.mark.parametrize("N", [0, -1])
def test_mixture_extension_rejects_N_below_1(N):
    atoms = ((Fraction(1), (Fraction(1, 2), Fraction(1, 2))),)
    with pytest.raises(InputError, match=f"mixture_extension: N must be >= 1, got {N}"):
        mixture_extension(atoms, N, URN.alphabet)


def test_corollary_criterion_examples():
    one = SymmetricFunction.constant(URN.alphabet, 2, Fraction(1))
    assert corollary_criterion(URN, one, 3, Fraction(1, 7))
    assert not corollary_criterion(URN, SPIKE, 3, Fraction(1, 2))  # 2 > 3/2
    P = product_law((Fraction(1, 4), Fraction(3, 4)), 2, URN.alphabet)
    for g in (one, SPIKE):
        assert corollary_criterion(P, g, 4, Fraction(1, 100))
    with pytest.raises(InputError):
        corollary_criterion(URN, one, 3, Fraction(0))


# Half (1/4, 3/4)^2 and half (1/2, 1/2)^2: infinitely extendible but
# neither a staircase nor an i.i.d. law, so its probes reach the sweep and
# the grid search.
MIXED = ExchangeableLaw(
    Alphabet.of_size(2),
    2,
    {T((2, 0)): Fraction(5, 32), T((1, 1)): Fraction(7, 16), T((0, 2)): Fraction(13, 32)},
)


def test_probe_product_certifies_with_single_atom():
    P = product_law((Fraction(1, 2), Fraction(1, 2)), 3)
    report = probe_infinite(P, 8, 2)
    assert report.outcome is InfiniteOutcome.CERTIFIED_INFINITE
    assert report.mixture == ((Fraction(1), (Fraction(1, 2), Fraction(1, 2))),)
    assert report.grid_depth_used is None
    assert_probe_certified(P, report)


def test_probe_urn_refutes_at_first_target():
    report = probe_infinite(URN, 5, 2)
    assert report.outcome is InfiniteOutcome.REFUTED_AT
    assert report.failing_N == 3
    assert_probe_certified(URN, report)


def test_probe_unknown_on_coarse_grid():
    # extendible at small N but not a mixture on the depth-1 grid, and the
    # single doubling to depth 2 still misses it: honest UNKNOWN
    report = probe_infinite(MIXED, 3, 1)
    assert report.outcome is InfiniteOutcome.UNKNOWN
    assert report.mixture is None and report.failing_N is None
    assert_probe_certified(MIXED, report)
    # a grid that contains both atoms certifies
    report = probe_infinite(MIXED, 3, 4)
    assert report.outcome is InfiniteOutcome.CERTIFIED_INFINITE
    assert report.grid_depth_used == 4
    assert_probe_certified(MIXED, report)


def test_probe_certifies_an_iid_law_before_the_sweep(monkeypatch):
    # theta = (1/3, 2/3) is on neither the depth-1 nor the depth-2 grid; the
    # law's one-coordinate marginal certifies it with no decision and no LP
    import exchkit.extend as extend

    def unreachable(*args):
        raise AssertionError("the i.i.d. step must certify first")

    monkeypatch.setattr(extend, "check_extendible", unreachable)
    monkeypatch.setattr(extend, "_grid_mixture", unreachable)
    theta = (Fraction(1, 3), Fraction(2, 3))
    P = product_law(theta, 2)
    report = probe_infinite(P, 3, 1)
    assert report.outcome is InfiniteOutcome.CERTIFIED_INFINITE
    assert report.mixture == ((Fraction(1), theta),)
    assert report.grid_depth_used is None and report.failing_N is None
    assert_probe_certified(P, report)


def test_probe_certifies_an_iid_law_past_the_cap(monkeypatch):
    # a sweep would outgrow the cap at N = 10; the single atom holds for every N
    P = product_law((Fraction(1, 3), Fraction(2, 3)), 2)
    monkeypatch.setenv("EXCHKIT_CAP", "20")
    report = probe_infinite(P, 10**6, 1)
    assert report.outcome is InfiniteOutcome.CERTIFIED_INFINITE
    assert report.mixture == ((Fraction(1), (Fraction(1, 3), Fraction(2, 3))),)
    assert_probe_certified(P, report)


@pytest.mark.parametrize(
    "theta, n",
    [
        ((Fraction(1, 3), Fraction(2, 3)), 1),  # every length-1 law is i.i.d.
        ((Fraction(1, 5), Fraction(0), Fraction(4, 5)), 3),  # a zero slot stays in theta
    ],
    ids=["n1", "k3-zero-slot"],
)
def test_probe_iid_atom_is_the_one_marginal(monkeypatch, theta, n):
    import exchkit.extend as extend

    # with no grid to fall back on, only the i.i.d. step can certify
    monkeypatch.setattr(extend, "_grid_mixture", lambda law, depth: None)
    P = product_law(theta, n)
    report = probe_infinite(P, n + 2, 1)
    assert report.outcome is InfiniteOutcome.CERTIFIED_INFINITE
    assert report.mixture == ((Fraction(1), theta),)
    assert report.grid_depth_used is None
    assert_probe_certified(P, report)


def test_probe_refuses_iid_atoms_that_miss_the_law(monkeypatch):
    import exchkit.extend as extend

    P = product_law((Fraction(1, 3), Fraction(2, 3)), 2)
    forged = ((Fraction(1), (Fraction(2, 3), Fraction(1, 3))),)
    monkeypatch.setattr(extend, "_iid_mixture", lambda law: forged)
    with pytest.raises(AssertionError, match="i.i.d. atoms do not reproduce"):
        probe_infinite(P, 3, 1)


def test_probe_certifies_a_staircase_law_before_the_sweep(monkeypatch):
    # the sweep would enumerate the 201 types of mass 200; the staircase
    # atoms certify every N without it
    P, _ = dyadic_max_law(1, [1, 1])
    monkeypatch.setenv("EXCHKIT_CAP", "200")
    report = probe_infinite(P, 300, 1)
    assert report.outcome is InfiniteOutcome.CERTIFIED_INFINITE
    assert report.mixture == ((Fraction(1), (Fraction(1, 2), Fraction(1, 2))),)
    assert report.failing_N is None and report.grid_depth_used is None
    assert_probe_certified(P, report)


def test_probe_refuses_staircase_atoms_that_miss_the_law(monkeypatch):
    import exchkit.extend as extend

    P, _ = dyadic_max_law(1, [1, 1])
    forged = ((Fraction(1), (Fraction(1, 3), Fraction(2, 3))),)
    monkeypatch.setattr(extend, "staircase_mixture", lambda law: forged)
    with pytest.raises(AssertionError, match="staircase atoms do not reproduce"):
        probe_infinite(P, 3, 1)


def test_probe_refuses_grid_atoms_that_miss_the_law(monkeypatch):
    # a depth-4 grid optimum with two weights swapped still has total
    # variation 1, but its atoms no longer reproduce P
    import dataclasses

    weights = {T((2, 0)): Fraction(5, 16), T((1, 1)): Fraction(3, 8), T((0, 2)): Fraction(5, 16)}
    P = ExchangeableLaw(Alphabet.of_size(2), 2, weights)

    def swapped(out, args):
        primal = list(out.primal)
        primal[0], primal[2] = primal[2], primal[0]  # now 1/2 at (0, 1), 1/6 at (1/2, 1/2)
        return dataclasses.replace(out, primal=tuple(primal))

    patch_simplex(monkeypatch, solved=swapped)
    with pytest.raises(AssertionError, match="grid atoms do not reproduce"):
        probe_infinite(P, 2, 4)  # N_max = n: no sweep, the grid solves first
    # the grid program checks its optimum for signed_mixture too
    with pytest.raises(AssertionError, match="grid atoms do not reproduce"):
        signed_mixture(P, 4)


def test_probe_records_range_and_depth():
    report = probe_infinite(URN, 4, 7)
    assert (report.N_max, report.grid_depth) == (4, 7)
    assert_probe_certified(URN, report)


def test_probe_validation_and_capacity(monkeypatch):
    with pytest.raises(InputError):
        probe_infinite(URN, 1, 2)  # N_max < n
    with pytest.raises(InputError):
        probe_infinite(URN, 4, 0)  # bad grid depth
    from exchkit.errors import CapacityError

    monkeypatch.setenv("EXCHKIT_CAP", "4")
    with pytest.raises(CapacityError, match="simplex grid: size 10"):
        # neither staircase nor i.i.d., so the probe must reach the grid search
        probe_infinite(MIXED, 2, 9)



def test_probe_certifies_by_grid_when_the_sweep_hits_the_cap(monkeypatch):
    # the sweep's norm program outgrows the cap at N = 10 (2 * 11 columns),
    # but both atoms are on the depth-4 grid, whose certificate holds for
    # every N
    monkeypatch.setenv("EXCHKIT_CAP", "20")
    report = probe_infinite(MIXED, 30, 4)
    assert report.outcome is InfiniteOutcome.CERTIFIED_INFINITE
    assert report.grid_depth_used == 4 and report.failing_N is None
    assert_probe_certified(MIXED, report)


def test_probe_reraises_the_sweeps_cap_without_a_grid_certificate(monkeypatch):
    import exchkit.extend as extend

    monkeypatch.setenv("EXCHKIT_CAP", "20")
    monkeypatch.setattr(extend, "_grid_mixture", lambda law, depth: None)
    with pytest.raises(CapacityError, match="lp dimensions: size 22"):
        probe_infinite(MIXED, 30, 4)  # never UNKNOWN for an unfinished sweep


# A length-1 law: ``True`` passes every range check as 1, so only the type
# check stands between it and a misleading error deeper down.
COIN = product_law((Fraction(1, 2), Fraction(1, 2)), 1)
ONES = SymmetricFunction(COIN.alphabet, 1, {T((1, 0)): Fraction(1), T((0, 1)): Fraction(1)})


@pytest.mark.parametrize("bad", [2.0, True], ids=["float", "bool"])
@pytest.mark.parametrize(
    "name, call",
    [
        ("product_law: n", lambda v: product_law((Fraction(1, 2), Fraction(1, 2)), v)),
        ("urn_measure: n", lambda v: urn_measure(T((1, 1)), v)),
        ("marginalize: m", lambda v: marginalize(COIN, v)),
        ("invert_urn: N", lambda v: invert_urn(T((1, 0)), v)),
        ("check_extendible: N", lambda v: check_extendible(COIN, v)),
        ("norm_EN: N", lambda v: norm_EN(COIN, v)),
        ("probe_infinite: N_max", lambda v: probe_infinite(COIN, v, 2)),
        ("probe_infinite: grid_depth", lambda v: probe_infinite(COIN, 2, v)),
        ("signed_mixture: grid_depth", lambda v: signed_mixture(COIN, v)),
        ("tv_lower_bound: N", lambda v: tv_lower_bound(COIN, ONES, v)),
        ("corollary_criterion: N", lambda v: corollary_criterion(COIN, ONES, v, 1)),
        ("mixture_extension: N", lambda v: mixture_extension(
            ((Fraction(1), (Fraction(1), Fraction(0))),), v, COIN.alphabet)),
        ("apply_U: N", lambda v: apply_U(ONES, v)),
        ("reconstruct: n", lambda v: reconstruct(signed_mixture(COIN, 1), v)),
        ("type_count: k", lambda v: type_count(v, 2)),
        ("type_count: mass", lambda v: type_count(2, v)),
        ("subtypes: mass", lambda v: list(subtypes(T((1, 1)), v))),
        ("Alphabet.of_size: k", lambda v: Alphabet.of_size(v)),
        ("enumerate_types: k", lambda v: enumerate_types(v, 2)),
        ("enumerate_types: mass", lambda v: enumerate_types(2, v)),
        ("simplex_grid: depth", lambda v: simplex_grid(2, v)),
        ("urn_law_by_enumeration: n", lambda v: urn_law_by_enumeration(T((1, 1)), v)),
        ("dyadic_max_law: level", lambda v: dyadic_max_law(v, [1, 1])),
        ("urn_without_replacement: n", lambda v: urn_without_replacement(v, 1)),
        ("urn_without_replacement: ones", lambda v: urn_without_replacement(3, v)),
        ("coarse_convergence_check: i", lambda v: coarse_convergence_check([1, 2], v, [1] * 8)),
        ("coarse_convergence_check: levels",
         lambda v: coarse_convergence_check([1, v], 1, [1] * 8)),
    ],
)
def test_lengths_must_be_integers(name, call, bad):
    # the int-not-bool rule of serialize, at every public length argument
    message = f"^{re.escape(name)}: expected an integer, got {type(bad).__name__}$"
    with pytest.raises(InputError, match=message):
        call(bad)


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



def test_covariance_bound_against_sequences():
    # moments summed over every length-n sequence, without marginalize
    rng = random.Random(71)
    for _ in range(40):
        k, n = rng.randint(1, 3), rng.randint(2, 4)
        law = random_law(rng, k, n)
        values = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(k)]
        mean = second = cross = Fraction(0)
        for seq in itertools.product(range(k), repeat=n):
            p = law.point_probability(type_of(seq, law.alphabet))
            a, b = values[seq[0]], values[seq[1]]
            mean += p * a
            second += p * a * a
            cross += p * a * b
        cov, var = cross - mean * mean, second - mean * mean
        bound = covariance_bound(law, dict(zip(law.alphabet.symbols, values)))
        assert bound == (cov, var, cov >= -var / (n - 1))


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
