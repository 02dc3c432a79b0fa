"""JSON round trips and schema validation errors."""

from fractions import Fraction

import pytest

from exchkit.errors import CapacityError, InputError
from exchkit.measures import urn_measure
from exchkit.ratlp import LinearProgram, solve
from exchkit.represent import SignedMixture
from exchkit.serialize import (
    function_from_dict,
    function_to_dict,
    law_from_dict,
    law_to_dict,
    lp_from_dict,
    lp_to_dict,
    mixture_from_dict,
    mixture_to_dict,
    outcome_to_dict,
)
from exchkit.symmetrize import SymmetricFunction
from exchkit.typespace import Alphabet, TypeVector


def test_law_round_trip():
    law = urn_measure(TypeVector((2, 1, 1)), 3, Alphabet(("x", "y", "z")))
    assert law_from_dict(law_to_dict(law)) == law


def test_law_sparse_zero_weights_accepted():
    data = {
        "alphabet": ["a", "b"],
        "n": 2,
        "weights": {"1:1": "1/2", "2:0": "1/2", "0:2": "0"},
    }
    law = law_from_dict(data)
    assert TypeVector((0, 2)) not in law.weights


@pytest.mark.parametrize(
    "mutation,field",
    [
        ({"alphabet": ["a", "a"]}, "alphabet"),
        ({"n": "2"}, "n"),
        ({"weights": {"1:1:1": "1"}}, "weights"),
        ({"weights": {"1:1": "0.5"}}, "weights"),
        ({"weights": {"1:1": "2/3"}}, "sum"),
        ({"weights": {"1:1": "-1", "2:0": "2"}}, "negative"),
        ({"weights": {"1:1": True}}, "weights"),
        ({"n": True, "weights": {"1:0": "1"}}, "n"),
    ],
)
def test_law_schema_errors_name_the_field(mutation, field):
    data = {"alphabet": ["a", "b"], "n": 2, "weights": {"1:1": "1"}}
    data.update(mutation)
    with pytest.raises(InputError):
        law_from_dict(data)


def test_function_round_trip_sparse():
    alphabet = Alphabet(("a", "b"))
    g = SymmetricFunction(alphabet, 2, {TypeVector((1, 1)): Fraction(2)})
    data = function_to_dict(g)
    assert data["values"] == {"1:1": "2/1"}  # zeros omitted
    assert function_from_dict(data) == g


def test_mixture_round_trip():
    mix = SignedMixture(
        (
            (Fraction(3, 2), (Fraction(1, 2), Fraction(1, 2))),
            (Fraction(-1, 2), (Fraction(1), Fraction(0))),
        )
    )
    data = mixture_to_dict(mix)
    assert data["total_variation"] == "2/1"
    assert data["total_mass"] == "1/1"
    assert mixture_from_dict(data) == mix


def test_lp_round_trip_and_outcome():
    lp = LinearProgram.build(
        "min",
        [1, Fraction(-2, 3)],
        [((1, 1), ">=", 1), ((2, -1), "=", 0)],
        free=[1],
        upper={0: Fraction(5)},
    )
    assert lp_from_dict(lp_to_dict(lp)) == lp
    out = outcome_to_dict(solve(lp))
    assert out["status"] in ("optimal", "infeasible", "unbounded")


def test_lp_default_bounds():
    lp = lp_from_dict(
        {
            "sense": "max",
            "objective": ["1"],
            "constraints": [{"coeffs": ["1"], "rel": "<=", "rhs": "1"}],
        }
    )
    assert lp.lower == (Fraction(0),)
    assert lp.upper == (None,)


def test_type_given_twice_is_an_input_error():
    # "01:1" parses to the type 1:1, so it must not overwrite the key "1:1"
    law = {"alphabet": ["a", "b"], "n": 2, "weights": {"1:1": "1/2", "01:1": "1/2", "2:0": "1/2"}}
    with pytest.raises(InputError, match="given twice"):
        law_from_dict(law)
    g = {"alphabet": ["a", "b"], "m": 2, "values": {"2:0": "1", "02:0": "-1"}}
    with pytest.raises(InputError, match="given twice"):
        function_from_dict(g)
    # a count with a space in it is not a spelling of 2 at all
    g = {"alphabet": ["a", "b"], "m": 2, "values": {"2:0": "1", " 2:0": "-1"}}
    with pytest.raises(InputError, match="bad typestring"):
        function_from_dict(g)


@pytest.mark.parametrize("lower,upper", [(["inf"], ["inf"]), (["-inf"], ["-inf"])])
def test_lp_bounds_take_only_their_own_infinity(lower, upper):
    data = {
        "sense": "max",
        "objective": ["1"],
        "constraints": [],
        "lower": lower,
        "upper": upper,
    }
    with pytest.raises(InputError):
        lp_from_dict(data)
    free = lp_from_dict(dict(data, lower=["-inf"], upper=["inf"]))
    assert free.lower == (None,) and free.upper == (None,)


def test_function_from_dict_respects_cap(monkeypatch):
    data = {"alphabet": list("abcdef"), "m": 2, "values": {}}  # 21 mass-2 types
    monkeypatch.setenv("EXCHKIT_CAP", "21")
    assert function_from_dict(data).is_zero()
    monkeypatch.setenv("EXCHKIT_CAP", "5")
    with pytest.raises(CapacityError, match="mass-m type space: size 21"):
        function_from_dict(data)
