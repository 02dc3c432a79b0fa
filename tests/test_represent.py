"""Signed mixtures on grids: minimization, reconstruction, the tv bound."""

import random
from fractions import Fraction

import pytest

from exchkit.corpus import disjoint_pairs_law, urn_without_replacement
from exchkit.errors import CapacityError, InputError
from exchkit.extend import InfiniteOutcome, Verdict, check_extendible, probe_infinite
from exchkit.measures import product_law
from exchkit.ratlp import _Simplex
from exchkit.represent import (
    SignedMixture,
    reconstruct,
    signed_mixture,
    tv_lower_bound,
)
from exchkit.symmetrize import SymmetricFunction
from exchkit.typespace import TypeVector

from helpers import assert_probe_certified, patch_simplex, random_law, random_theta

T = TypeVector
URN = urn_without_replacement(2, 1)
HALF = (Fraction(1, 2), Fraction(1, 2))


def test_product_law_is_its_own_mixture():
    P = product_law(HALF, 2)
    mix = signed_mixture(P, 2)
    assert mix.atoms == ((Fraction(1), HALF),)
    assert mix.total_variation == 1


def test_urn_law_needs_cancellation():
    mix = signed_mixture(URN, 2)
    assert mix.total_variation == 3  # unique on the depth-2 grid
    assert mix.total_mass == 1
    assert reconstruct(mix, 2) == dict(URN.weights)
    assert mix.total_variation > 1


def test_nonextendible_tv_exceeds_one_at_every_depth():
    for depth in (2, 4, 8):
        assert signed_mixture(URN, depth).total_variation > 1


def test_reconstruct_examples():
    single = SignedMixture(((Fraction(1), HALF),))
    assert reconstruct(single, 2) == dict(product_law(HALF, 2).weights)

    theta2 = (Fraction(1), Fraction(0))
    half_half = SignedMixture(((Fraction(1, 2), HALF), (Fraction(1, 2), theta2)))
    out = reconstruct(half_half, 2)
    expected = {
        tv: (
            product_law(HALF, 2).weight(tv) / 2
            + product_law(theta2, 2).weight(tv) / 2
        )
        for tv in out
    }
    assert out == expected

    signed = SignedMixture(((Fraction(2), HALF), (Fraction(-1), theta2)))
    assert signed.total_mass == 1
    values = reconstruct(signed, 2)
    assert sum(values.values()) == 1
    assert values[T((2, 0))] == Fraction(2, 4) - 1


def test_reconstruct_drops_zeros_and_sorts():
    # 4 * (1/2, 1/2) - (1, 0) - (0, 1): the pure classes cancel exactly
    cancel = SignedMixture((
        (Fraction(4), HALF),
        (Fraction(-1), (Fraction(1), Fraction(0))),
        (Fraction(-1), (Fraction(0), Fraction(1))),
    ))
    assert reconstruct(cancel, 2) == {T((1, 1)): Fraction(2)}
    # atoms that reach the types out of lexicographic order
    third = Fraction(1, 3)
    mix = SignedMixture((
        (Fraction(3, 7), (Fraction(0), Fraction(0), Fraction(1))),
        (Fraction(-2, 11), (Fraction(1), Fraction(0), Fraction(0))),
        (Fraction(58, 77), (third, third, third)),
    ))
    out = reconstruct(mix, 3)
    assert list(out) == sorted(out)
    assert all(out.values()) and len(out) == 10
    assert out[T((0, 0, 3))] == Fraction(3, 7) + Fraction(58, 77) / 27


def test_reconstruct_requires_atoms():
    with pytest.raises(InputError):
        reconstruct(SignedMixture(()), 2)


def test_grid_refinement_kicks_in():
    # depth 1 cannot carry the (1,1) class; one doubling reaches depth 2
    mix = signed_mixture(product_law(HALF, 2), 1)
    assert mix.total_variation == 1
    assert reconstruct(mix, 2) == dict(product_law(HALF, 2).weights)


def test_deep_grid_represents_where_depth_16_cannot():
    # mass 17 needs 18 independent atoms; depths 1..16 top out at 17, so
    # the doubling goes on to depth 32 >= n
    law = urn_without_replacement(17, 8)
    mix = signed_mixture(law, 1)
    assert all((t * 32).denominator == 1 for _, theta in mix.atoms for t in theta)
    assert any((t * 16).denominator != 1 for _, theta in mix.atoms for t in theta)
    assert reconstruct(mix, 17) == dict(law.weights)


def test_depth_n_grid_always_represents():
    # the degree-n principal lattice is unisolvent, so no doubling happens
    rng = random.Random(31)
    for _ in range(36):
        k, n = rng.randint(2, 4), rng.randint(1, 4)
        law = random_law(rng, k, n)
        mix = signed_mixture(law, n)
        assert all((t * n).denominator == 1 for _, theta in mix.atoms for t in theta)
        assert reconstruct(mix, n) == dict(law.weights)


def test_infeasible_grid_at_depth_n_is_an_internal_error(monkeypatch):
    import exchkit.represent as represent

    widths = []

    def infeasible(P, keys, column, start=None):
        widths.append(len(keys))
        return None, None, {}

    monkeypatch.setattr(represent, "_min_total_variation", infeasible)
    with pytest.raises(AssertionError, match="depth-4 grid cannot represent a mass-3 law"):
        signed_mixture(urn_without_replacement(3, 1), 1)
    assert widths == [2, 3, 5]  # grid points at depths 1, 2 and 4


def test_mass_1_grid_program_starts_triangular(monkeypatch):
    # At mass 1 row e_b first meets the first grid point with a positive
    # b-th coordinate, and those points increase down the rows: the grid
    # program starts from them with no artificial basic, and its optimum
    # equals that of the same rows solved through phase 1.
    values = []

    def started(simplex, args):
        assert args["start"] is not None
        assert not simplex.artificials.intersection(simplex.basis)

    def compared(out, args):
        plain = _Simplex(args["rows"], args["columns"])
        assert out.objective_value == plain.solve().objective_value
        values.append(out.objective_value)
        return out

    patch_simplex(monkeypatch, built=started, solved=compared)
    rng = random.Random(13)
    for depth in (1, 2, 3, 4):
        for _ in range(5):
            assert signed_mixture(random_law(rng, 3, 1), depth).total_variation == -values[-1]
    assert len(values) == 20


def test_mass_2_grid_program_runs_phase_1(monkeypatch):
    # At mass 2 rows 0:0:1:1 and 0:0:2:0 first meet the same grid point,
    # (0, 0, 1/8, 7/8), so the pairs law's depth-8 grid program gets no start
    starts = []
    patch_simplex(monkeypatch, built=lambda simplex, args: starts.append(args["start"]))
    pairs, _ = disjoint_pairs_law()
    signed_mixture(pairs, 8)
    assert starts == [None]


def test_binary_sufficiency_depth_n():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(1, 3)
        law = random_law(rng, 2, n)
        mix = signed_mixture(law, max(n, 1))
        assert reconstruct(mix, n) == dict(law.weights)
        assert mix.total_mass == 1


def test_probability_mixture_consistency():
    rng = random.Random(19)
    for _ in range(10):
        theta = random_theta(rng, 2, 4)
        n = rng.randint(1, 3)
        law = product_law(theta, n)
        depth = max(t.denominator for t in theta)
        probe = probe_infinite(law, n + 2, depth)
        assert_probe_certified(law, probe)
        if probe.outcome is InfiniteOutcome.CERTIFIED_INFINITE:
            mix = signed_mixture(law, depth)
            assert mix.total_variation == 1


def test_tv_bound_constant_function():
    one = SymmetricFunction.constant(URN.alphabet, 2, Fraction(1))
    assert tv_lower_bound(URN, one, 2) == 1


def test_tv_bound_spike_on_depth4_grid():
    spike = SymmetricFunction(
        URN.alphabet,
        2,
        {T((2, 0)): Fraction(-1), T((1, 1)): Fraction(2), T((0, 2)): Fraction(-1)},
    )
    # numerator 2; the Bernstein coefficients of -p^2 + 4p(1-p) - (1-p)^2
    # reach 2 in absolute value at degree 2 and 1 from degree 3 on
    bounds = [tv_lower_bound(URN, spike, N) for N in (2, 3, 4, 8)]
    assert bounds == [1, 2, 2, 2]
    # consistency with an actual representation: no mixture beats the bound
    assert signed_mixture(URN, 4).total_variation == 3


def test_tv_bound_spike_regression_values():
    # U_N of the (1,1) indicator peaks at N / (2(N-1)) for even N, which
    # falls toward the polynomial's maximum 1/2, so the bound rises to 2
    spike = SymmetricFunction(
        URN.alphabet, 2, {T((1, 1)): Fraction(1)}
    )
    bounds = [tv_lower_bound(URN, spike, N) for N in (2, 3, 8, 16)]
    assert bounds == [1, Fraction(3, 2), Fraction(7, 4), Fraction(15, 8)]
    assert max(bounds) < signed_mixture(URN, 2).total_variation == 3


def test_tv_bound_zero_over_zero_is_zero():
    # U_N has a trivial kernel: only g = 0 has a zero denominator
    law = product_law((Fraction(1), Fraction(0)), 2)
    zero = SymmetricFunction.constant(law.alphabet, 2, Fraction(0))
    assert tv_lower_bound(law, zero, 2) == 0
    g = SymmetricFunction(law.alphabet, 2, {T((1, 1)): Fraction(1)})
    assert tv_lower_bound(law, g, 2) == 0  # E_P g = 0 over sup |U g| = 1


def test_tv_bound_below_tv_of_same_grid_mixtures():
    # |E g| <= TV * sup |U_N g| for every representation, so the bound
    # never exceeds a mixture signed_mixture found, and it rises with N
    rng = random.Random(29)
    from helpers import random_function

    for _ in range(15):
        k, n = rng.randint(2, 3), rng.randint(1, 3)
        law = random_law(rng, k, n)
        tvs = [signed_mixture(law, depth).total_variation for depth in (1, 2, n + 1)]
        for _ in range(4):
            g = random_function(rng, law.alphabet, n)
            bounds = [tv_lower_bound(law, g, N) for N in range(n, n + 5)]
            assert bounds == sorted(bounds)
            assert bounds[-1] <= min(tvs)


def test_tv_bound_equals_the_norm_on_refutations():
    rng = random.Random(37)
    laws = [URN, disjoint_pairs_law()[0]] + [random_law(rng, 3, 2) for _ in range(12)]
    refuted = 0
    for law in laws:
        for N in (law.n + 1, law.n + 3):
            report = check_extendible(law, N)
            if report.verdict is Verdict.NOT_EXTENDIBLE:
                refuted += 1
                assert tv_lower_bound(law, report.refutation, N) == report.norm
    assert refuted >= 4


def test_grid_program_over_the_cap_is_never_built(monkeypatch):
    # 61 grid points fit a cap of 100; the program's 122 variables do not
    import exchkit.extend as extend
    import exchkit.measures as measures
    import exchkit.represent as represent

    P = product_law(HALF, 2)
    built = []
    weights = measures._mixture_type_weights

    def counted(atoms, n):
        built.append(atoms)
        return weights(atoms, n)

    monkeypatch.setattr(measures, "_mixture_type_weights", counted)
    monkeypatch.setattr(represent, "_mixture_type_weights", counted)
    monkeypatch.setenv("EXCHKIT_CAP", "100")
    with pytest.raises(CapacityError, match="lp dimensions: size 122"):
        signed_mixture(P, 60)
    with pytest.raises(CapacityError, match="lp dimensions: size 122"):
        extend._grid_mixture(P, 60)
    assert not built


def test_reconstruct_respects_cap(monkeypatch):
    mix = SignedMixture(((Fraction(1), (Fraction(1, 3),) * 3),))
    monkeypatch.setenv("EXCHKIT_CAP", "5")
    assert len(reconstruct(SignedMixture(((Fraction(1), HALF),)), 4)) == 5
    with pytest.raises(CapacityError, match="mass-n type space: size 10"):
        reconstruct(mix, 3)  # 10 mass-3 types over 3 symbols


def test_mixture_validation():
    with pytest.raises(InputError):
        SignedMixture(((Fraction(1), (Fraction(1, 2), Fraction(1, 3))),))
    with pytest.raises(InputError):
        SignedMixture(((Fraction(1), (Fraction(3, 2), Fraction(-1, 2))),))
    mix = SignedMixture(((Fraction(0), HALF), (Fraction(1), HALF)))
    assert len(mix.atoms) == 1  # zero atoms dropped
