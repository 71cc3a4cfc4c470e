"""Scalar coercion and the shared linear-algebra helpers."""

from fractions import Fraction

import pytest

from farkaskit.rational import Q, ZERO, as_q, dot, mat_vec, transpose_apply


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


def test_dot_and_mat_vec():
    assert dot([Q(1, 2), ZERO, Q(3)], [Q(4), Q(9), Q(-1, 3)]) == Q(1)
    assert dot([], []) == ZERO
    assert mat_vec([[Q(1), Q(2)], [Q(0), Q(-1)]], [Q(3), Q(1, 2)]) == \
        [Q(4), Q(-1, 2)]


def test_transpose_apply_combines_rows():
    rows = [[Q(1), Q(0), Q(2)], [Q(0), Q(1), Q(-1)]]
    assert transpose_apply(rows, [Q(2), Q(1, 2)], 3) == \
        [Q(2), Q(1, 2), Q(7, 2)]


def test_transpose_apply_without_rows_is_zero():
    # an unconstrained block contributes the zero vector, at full width
    assert transpose_apply([], [], 2) == [ZERO, ZERO]
