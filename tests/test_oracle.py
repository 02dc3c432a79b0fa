"""The brute-force oracle's exact dense linear algebra, on hand examples."""

from fractions import Fraction

import pytest

from exchkit.errors import InputError
from exchkit.oracle import matrix_rank, null_space_generator, solve_square

F = Fraction


def _rows(*rows):
    return [[F(v) for v in row] for row in rows]


def test_solve_square_hand_example():
    # 2x + y = 3, x + 3y = 5  ->  x = 4/5, y = 7/5
    assert solve_square(_rows((2, 1), (1, 3)), [F(3), F(5)]) == [F(4, 5), F(7, 5)]
    # needs a row swap: the first pivot sits in the second row
    assert solve_square(_rows((0, 1), (1, 0)), [F(2), F(3)]) == [F(3), F(2)]
    assert solve_square([], []) == []


def test_solve_square_singular_is_none():
    assert solve_square(_rows((1, 2), (2, 4)), [F(1), F(2)]) is None
    assert solve_square(_rows((1, 2), (2, 4)), [F(1), F(3)]) is None
    # singular in the first column only
    assert solve_square(_rows((0, 1), (0, 2)), [F(1), F(2)]) is None


def test_matrix_rank_hand_examples():
    assert matrix_rank([]) == 0
    assert matrix_rank(_rows((0, 0), (0, 0))) == 0
    assert matrix_rank(_rows((1, 2, 3), (2, 4, 6), (1, 0, 1))) == 2
    assert matrix_rank(_rows((0, 0, 0), (1, 1, 0), (0, 0, 0))) == 1
    assert matrix_rank(_rows((1, 0), (0, 1), (1, 1))) == 2
    assert matrix_rank(_rows((F(1, 3), F(1, 2)), (F(2, 7), F(3, 7)))) == 1
    assert matrix_rank(_rows((F(1, 3), F(1, 2)), (F(2, 7), F(1, 7)))) == 2


def test_null_space_generator_one_dimensional():
    # x + y + z = 0, y - z = 0  ->  spanned by (-2, 1, 1)
    gen = null_space_generator(_rows((1, 1, 1), (0, 1, -1)), 3)
    assert gen == [F(-2), F(1), F(1)]
    # zero and dependent rows do not count
    gen = null_space_generator(_rows((0, 0), (2, 4), (1, 2)), 2)
    assert gen == [F(-2), F(1)]


def test_null_space_generator_other_dimensions():
    assert null_space_generator(_rows((1, 1, 1)), 3) is None  # two-dimensional
    assert null_space_generator(_rows((1, 0), (0, 1)), 2) is None  # trivial
    with pytest.raises(InputError):
        null_space_generator(_rows((1, 1, 1)), 2)
