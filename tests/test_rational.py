"""Scalar coercion and the shared linear-algebra helpers."""

import random
import sys
from fractions import Fraction
from math import gcd

import pytest

from farkaskit import lp, semiinf, sets
from farkaskit.rational import (Q, ZERO, as_q, as_q_matrix, as_q_vector, dot,
                                mat_vec, over_lcm, transpose_apply)


def test_as_q_returns_a_rational_unchanged():
    x = Q(3, 7)
    assert as_q(x) is x


def test_as_q_converts_ints_strings_and_fractions():
    assert as_q(4) == Q(4) and type(as_q(4)) is Q
    assert as_q(" 2/4 ") == Q(1, 2) and type(as_q("2/4")) is Q
    assert as_q(Fraction(5, 3)) == Q(5, 3) and type(as_q(Fraction(5, 3))) is Q


@pytest.mark.parametrize("bad, error", [
    (0.5, TypeError), (True, TypeError), (False, TypeError),
    (None, TypeError), ("1/0", ValueError), ("x", ValueError),
])
def test_as_q_rejects_non_rationals(bad, error):
    with pytest.raises(error):
        as_q(bad)


def test_as_q_vector_keeps_rationals_and_converts_the_rest():
    x = Q(3, 7)
    out = as_q_vector([x, 2, "1/2"])
    assert out[0] is x and out[1:] == [Q(2), Q(1, 2)]
    assert all(type(v) is Q for v in out)


def test_as_q_vector_and_matrix_refuse_another_width_with_the_callers_text():
    assert as_q_vector([1, 2], 2, "unused") == [Q(1), Q(2)]
    assert as_q_matrix([], 3, "unused") == []
    with pytest.raises(ValueError, match="^want 3$"):
        as_q_vector([1, 2], 3, "want 3")
    with pytest.raises(ValueError, match="^want 3$"):
        as_q_matrix([[1, 2], [3, 4]], 3, "want 3")
    # a ragged matrix is reported before its width
    with pytest.raises(ValueError, match="^ragged matrix$"):
        as_q_matrix([[1, 2, 3], [4]], 3, "want 3")


@pytest.mark.parametrize("make", [
    lambda: as_q_vector("12"),
    lambda: as_q_vector(b"12"),
    lambda: as_q_matrix(["12", "34"]),
    lambda: sets.Box(["12"]),
    lambda: semiinf.decompose("12"),
    lambda: lp.LinearProgram(c="12", G=[], h=[], E=[], e=[]),
], ids=["vector", "bytes", "matrix", "Box", "decompose", "LinearProgram"])
def test_text_is_not_a_vector_of_its_characters(make):
    # read as a vector of characters, "12" would be [1, 2] and Box(["12"])
    # the bound (1, 2)
    with pytest.raises(TypeError, match="^expected a vector, got (str|bytes)$"):
        make()


def test_as_q_bounds_the_digits_of_decimal_literals():
    # refused before 10 to the exponent is formed: past the interpreter's
    # bound on integer text the value could not be printed or parsed back
    limit = sys.get_int_max_str_digits() or 4300
    assert as_q(f"1e{limit - 1}") == Q(10) ** (limit - 1)
    assert as_q(f"-001.5e{limit - 1}") == -Q(15) * Q(10) ** (limit - 2)
    assert as_q(f"1e-{limit - 1}") == Q(1, 10 ** (limit - 1))
    assert as_q(" -2.5E-3 ") == Q(-1, 400)
    for bad in (f"1e{limit}", f"1.5e{limit}", f"1e-{limit}", "1e-99999",
                "1e" + "9" * 5000):
        with pytest.raises(ValueError):
            as_q(bad)


def test_dot_and_mat_vec():
    assert dot([Q(1, 2), ZERO, Q(3)], [Q(4), Q(9), Q(-1, 3)]) == Q(1)
    assert dot([], []) == ZERO
    assert mat_vec([[Q(1), Q(2)], [Q(0), Q(-1)]], [Q(3), Q(1, 2)]) == \
        [Q(4), Q(-1, 2)]


def test_transpose_apply_combines_rows():
    rows = [[Q(1), Q(0), Q(2)], [Q(0), Q(1), Q(-1)]]
    assert transpose_apply(rows, [Q(2), Q(1, 2)], 3) == \
        [Q(2), Q(1, 2), Q(7, 2)]


def test_dot_and_transpose_apply_refuse_unequal_lengths():
    with pytest.raises(ValueError):
        dot([Q(1), Q(2)], [Q(1)])
    with pytest.raises(ValueError):
        dot([], [Q(1)])
    with pytest.raises(ValueError):
        transpose_apply([[Q(1)], [Q(2)]], [Q(1)], 1)
    with pytest.raises(ValueError):
        transpose_apply([[Q(1)]], [Q(1), Q(0)], 1)


def test_transpose_apply_without_rows_is_zero():
    # an unconstrained block contributes the zero vector, at full width
    assert transpose_apply([], [], 2) == [ZERO, ZERO]


def test_over_lcm_of_no_values_is_nothing_over_one():
    assert over_lcm([]) == ([], 1)


def test_over_lcm_takes_zeros_negatives_and_mixed_denominators():
    nums, d = over_lcm([ZERO, Q(-3, 4), Q(5, 6), Q(-2), ZERO, Q(7)])
    assert (nums, d) == ([0, -9, 10, -24, 0, 84], 12)
    assert all(type(v) is int for v in nums)
    assert over_lcm([ZERO, ZERO]) == ([0, 0], 1)


def test_over_lcm_gives_back_each_value_sharing_no_factor_with_d():
    # nums[i] / d is values[i], and d shares no factor with the numerators
    # taken together, so a tableau row built from it is in lowest terms
    rng = random.Random(20261026)
    for _ in range(500):
        values = [Q(rng.randint(-60, 60),
                    rng.choice((1, 2, 6, 35, 360, rng.randint(1, 10**6))))
                  for _ in range(rng.randint(1, 8))]
        nums, d = over_lcm(values)
        assert d > 0 and len(nums) == len(values)
        assert [Q(v, d) for v in nums] == values
        assert gcd(d, *nums) == 1
