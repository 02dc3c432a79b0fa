"""Signed mixtures on grids: minimization, reconstruction, the tv bound."""

import random
from fractions import Fraction

import pytest

from exchkit.corpus import urn_without_replacement
from exchkit.errors import CapacityError, InputError, RepresentationError
from exchkit.extend import InfiniteOutcome, probe_infinite
from exchkit.measures import product_law
from exchkit.represent import (
    SignedMixture,
    reconstruct,
    signed_mixture,
    tv_lower_bound,
)
from exchkit.symmetrize import SymmetricFunction
from exchkit.typespace import TypeVector

from helpers import random_law, random_theta

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


def test_representation_error_carries_certificate():
    # mass 17 needs 18 independent atoms; depths 1..16 top out at 17
    law = urn_without_replacement(17, 8)
    with pytest.raises(RepresentationError) as err:
        signed_mixture(law, 1)
    assert err.value.grid_depth == 16
    assert err.value.farkas is not None


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
        if probe.outcome is InfiniteOutcome.CERTIFIED_INFINITE:
            mix = signed_mixture(law, depth)
            assert mix.total_variation == 1


def test_tv_bound_constant_function():
    one = SymmetricFunction.constant(URN.alphabet, 2, Fraction(1))
    bound = tv_lower_bound(URN, one)
    assert bound.value == 1 and not bound.infinite


def test_tv_bound_spike_on_depth4_grid():
    spike = SymmetricFunction.from_values(
        URN.alphabet,
        2,
        {T((2, 0)): Fraction(-1), T((1, 1)): Fraction(2), T((0, 2)): Fraction(-1)},
    )
    bound = tv_lower_bound(URN, spike, 4)
    # numerator 2; the quadratic -p^2 + 4p(1-p) - (1-p)^2 peaks at 1 in
    # absolute value over the grid {0, 1/4, 1/2, 3/4, 1}
    assert bound.value == 2
    assert bound.grid_only and bound.grid_depth == 4
    # consistency with an actual representation: no mixture beats the bound
    assert signed_mixture(URN, 4).total_variation >= bound.value


def test_tv_bound_degenerate_grid_is_infinite():
    spike = SymmetricFunction.from_values(
        URN.alphabet, 2, {T((1, 1)): Fraction(1)}
    )
    bound = tv_lower_bound(URN, spike, 1)  # depth-1 grid sees only corners
    assert bound.infinite and bound.value is None


def test_tv_bound_zero_over_zero_is_zero():
    law = product_law((Fraction(1), Fraction(0)), 2)
    g = SymmetricFunction.from_values(law.alphabet, 2, {T((1, 1)): Fraction(1)})
    bound = tv_lower_bound(law, g, 1)
    assert bound.value == 0 and not bound.infinite


def test_tv_bound_below_tv_of_same_grid_mixtures():
    # with the bound and the mixture on the same grid, the chain
    # |E g| <= TV * max_grid |I(g, .)| holds exactly for every g
    rng = random.Random(29)
    from helpers import random_function

    for _ in range(15):
        n = rng.randint(1, 3)
        law = random_law(rng, 2, n)
        depth = max(n, 2)
        mix = signed_mixture(law, depth)
        for _ in range(4):
            g = random_function(rng, law.alphabet, n)
            bound = tv_lower_bound(law, g, depth)
            if not bound.infinite:
                assert bound.value <= mix.total_variation


def test_grid_program_over_the_cap_is_never_built(monkeypatch):
    # 61 grid points fit a cap of 100; the program's 122 variables do not
    import exchkit.extend as extend
    import exchkit.measures as measures

    P = product_law(HALF, 2)
    built = []
    weights = measures._mixture_type_weights

    def counted(atoms, n):
        built.append(atoms)
        return weights(atoms, n)

    monkeypatch.setattr(measures, "_mixture_type_weights", counted)
    monkeypatch.setenv("EXCHKIT_CAP", "100")
    with pytest.raises(CapacityError, match="lp dimensions: size 122"):
        signed_mixture(P, 60)
    with pytest.raises(CapacityError, match="lp dimensions: size 122"):
        extend._grid_mixture(P, 60)
    assert not built


def test_mixture_validation():
    with pytest.raises(InputError):
        SignedMixture(((Fraction(1), (Fraction(1, 2), Fraction(1, 3))),))
    with pytest.raises(InputError):
        SignedMixture(((Fraction(1), (Fraction(3, 2), Fraction(-1, 2))),))
    mix = SignedMixture(((Fraction(0), HALF), (Fraction(1), HALF)))
    assert len(mix.atoms) == 1  # zero atoms dropped
