"""The built-in example laws and the claims made about them."""

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
    check_extendible,
    covariance_bound,
    marginal_matches,
    mixture_extension,
    probe_infinite,
)
from exchkit.represent import reconstruct
from exchkit.typespace import TypeVector

from helpers import assert_probe_certified

T = TypeVector


def test_urn_examples():
    assert dict(urn_without_replacement(2, 1).weights) == {T((1, 1)): Fraction(1)}
    assert dict(urn_without_replacement(3, 0).weights) == {T((3, 0)): Fraction(1)}
    assert dict(urn_without_replacement(4, 2).weights) == {T((2, 2)): Fraction(1)}
    with pytest.raises(InputError):
        urn_without_replacement(3, 4)
    with pytest.raises(InputError):
        urn_without_replacement(1, 0)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_urn_not_extendible_one_step_up(n):
    for ones in range(1, n):
        law = urn_without_replacement(n, ones)
        report = check_extendible(law, n + 1)
        assert report.verdict is Verdict.NOT_EXTENDIBLE


@pytest.mark.parametrize("n,ones", [(2, 0), (3, 3), (4, 0)])
def test_degenerate_urn_is_certified_infinite(n, ones):
    law = urn_without_replacement(n, ones)
    report = probe_infinite(law, n + 2, 1)
    assert report.outcome is InfiniteOutcome.CERTIFIED_INFINITE
    assert_probe_certified(law, report)


def test_disjoint_pairs_claims():
    law, embedding = disjoint_pairs_law()
    assert law.n == 2 and law.alphabet.size == 4
    assert law.weight(T((1, 1, 0, 0))) == Fraction(1, 2)
    assert law.weight(T((0, 0, 1, 1))) == Fraction(1, 2)

    bound = covariance_bound(law, embedding)
    assert bound.cov == Fraction(3, 16)

    assert check_extendible(law, 2).verdict is Verdict.EXTENDIBLE  # N = n

    report = probe_infinite(law, 12, 8)
    assert report.outcome is InfiniteOutcome.REFUTED_AT
    assert 2 < report.failing_N <= 12
    assert report.failing_N == 3  # frozen after cross-verifying the certificate
    assert_probe_certified(law, report)


def test_dyadic_level1_hand_values():
    law, mix = dyadic_max_law(1, [1, Fraction(1, 2)])
    assert dict(law.weights) == {
        T((2, 0)): Fraction(2, 5),
        T((1, 1)): Fraction(2, 5),
        T((0, 2)): Fraction(1, 5),
    }
    assert mix.atoms == (
        (Fraction(1, 5), (Fraction(1), Fraction(0))),
        (Fraction(4, 5), (Fraction(1, 2), Fraction(1, 2))),
    )
    assert reconstruct(mix, 2) == dict(law.weights)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_dyadic_profiles_decompose_nonnegatively(level):
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


def test_dyadic_mixture_is_extension_certificate():
    law, mix = dyadic_max_law(2, [Fraction(8 - r, 8) for r in range(8)])
    witness = mixture_extension(mix.atoms, 4, law.alphabet)
    assert marginal_matches(witness, law)


def test_dyadic_probe_small_grid():
    law, _ = dyadic_max_law(1, [1, Fraction(1, 2)])
    report = probe_infinite(law, 4, 2)
    assert report.outcome is InfiniteOutcome.CERTIFIED_INFINITE
    assert_probe_certified(law, report)


def test_dyadic_validation():
    with pytest.raises(InputError):
        dyadic_max_law(1, [Fraction(1, 2), 1])  # increasing
    with pytest.raises(InputError):
        dyadic_max_law(1, [1])  # wrong length
    with pytest.raises(InputError):
        dyadic_max_law(1, [0, 0])  # identically zero
    with pytest.raises(InputError):
        dyadic_max_law(1, [1, Fraction(-1, 2)])  # negative tail


def test_dyadic_respects_cap(monkeypatch):
    monkeypatch.setenv("EXCHKIT_CAP", "5")
    dyadic_max_law(1, [1, Fraction(1, 2)])  # 3 cell pairs
    with pytest.raises(CapacityError):
        dyadic_max_law(2, [1] * 8)  # 36 cell pairs


def test_convergence_check_respects_cap(monkeypatch):
    monkeypatch.setenv("EXCHKIT_CAP", "5")
    assert coarse_convergence_check([1], 1, [1, Fraction(1, 2)]) == [0]  # 3 cell pairs
    with pytest.raises(CapacityError):
        coarse_convergence_check([2], 1, [1] * 8)  # 36 cell pairs


def test_convergence_self_comparison():
    assert coarse_convergence_check([1], 1, [1, Fraction(1, 2)]) == [0]


def test_convergence_linear_profile():
    # profile g(t) = 1 - t/3 sampled on the level-3 grid (strictly positive)
    fine = [Fraction(24 - r, 24) + Fraction(1, 24) for r in range(1, 25)]
    out = coarse_convergence_check([1, 2, 3], 1, fine)
    assert len(out) == 3
    assert out[-1] == 0
    assert all(v >= 0 for v in out)
    print("coarse discrepancies (levels 1,2,3 vs 3):", [str(v) for v in out])


def test_convergence_constant_profile_closed_form():
    # constant profile: level-j rectangles carry (1/(j*2^i))^2 on level-i
    # cells, so the discrepancy against level 3 is explicit
    fine = [Fraction(1)] * 24
    out = coarse_convergence_check([1, 2, 3], 1, fine)
    assert out == [Fraction(2, 9), Fraction(5, 144), Fraction(0)]


def test_convergence_validation():
    with pytest.raises(InputError):
        coarse_convergence_check([1, 2], 2, [Fraction(1)] * 8)  # i > min level
    with pytest.raises(InputError):
        coarse_convergence_check([], 1, [])
    with pytest.raises(InputError):
        coarse_convergence_check([1], 1, [Fraction(1)] * 3)  # wrong length
    # each level is a dyadic-max law, which takes only these profiles
    for profile in ([1, -1], [0, 1]):
        with pytest.raises(InputError, match="dyadic_max_law: profile must be"):
            coarse_convergence_check([1], 1, profile)
