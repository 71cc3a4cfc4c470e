"""Exact rational scalars and the two extended values +oo / -oo.

Everything in this package computes over exact rationals, as `Q`, which is
fractions.Fraction. The simplex kernel pivots in plain integers and meets
`Q` only in its input and its outcome.
"""

from __future__ import annotations

import sys
from decimal import Decimal
from fractions import Fraction
from math import lcm

Q = Fraction

ZERO = Q(0)
ONE = Q(1)

_QTYPES = (int, Fraction)


class _Extended:
    """Signed infinity. Only ordering and negation are meaningful."""

    __slots__ = ("_pos",)

    def __init__(self, pos: bool):
        self._pos = pos

    def __neg__(self):
        return NEG_INF if self._pos else INF

    def __lt__(self, other):
        if other is self:
            return False
        return not self._pos

    def __gt__(self, other):
        if other is self:
            return False
        return self._pos

    def __le__(self, other):
        return self is other or not self._pos

    def __ge__(self, other):
        return self is other or self._pos

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return hash(("extended", self._pos))

    def __repr__(self):
        return "+oo" if self._pos else "-oo"


INF = _Extended(True)
NEG_INF = _Extended(False)


def is_finite(x) -> bool:
    return not isinstance(x, _Extended)


def as_q(value):
    """Coerce an int, 'p/q' string, or rational to an exact rational.

    Floats are rejected on purpose: a float input has already lost the value
    the caller meant, and every consumer here requires exactness. A value
    that is already a `Q` is returned as it is. A literal with an exponent
    is rejected, before 10 to that power is formed, when its numerator or
    denominator could have more digits than the interpreter's bound on
    integer text (4300 when that bound is off).
    """
    if type(value) is Q:
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rational scalars")
    if isinstance(value, _QTYPES):
        return Q(value)
    if isinstance(value, str):
        try:
            mantissa, e, power = value.strip().lower().partition("e")
            whole, _, frac = mantissa.partition(".")
            limit = getattr(sys, "get_int_max_str_digits", int)() or 4300
            if e and len(whole.lstrip("+-0") + frac) + abs(
                    int(power) - len(frac)) > limit:
                raise ValueError("too many digits")
            return Q(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational literal: {value!r}") from exc
    if isinstance(value, float):
        raise TypeError(f"float {value!r} rejected: exact rationals only (write e.g. \"1/3\")")
    raise TypeError(f"cannot convert {type(value).__name__} to a rational")


def q_str(x) -> str:
    """Canonical 'p/q' (or plain integer) text form, of any length: the
    digits come from `Decimal`, which the interpreter's bound on integer
    text does not limit. It round-trips through as_q only while numerator
    and denominator stay within that bound."""
    num = str(Decimal(x.numerator))
    if x.denominator == 1:
        return num
    return f"{num}/{Decimal(x.denominator)}"


def scalar_text(x) -> str:
    """Rendering for reports and files: 'p/q' for finite values, 'inf'/'-inf'
    for the extended ones."""
    if x is INF:
        return "inf"
    if x is NEG_INF:
        return "-inf"
    return q_str(x)


def as_q_vector(values, width=None, error=None):
    """`values` as a list of rationals (`as_q` of each); given a width, a
    list of any other length raises ValueError(error). A str or bytes is
    text, not a vector of its characters, and raises TypeError."""
    if isinstance(values, (str, bytes)):
        raise TypeError(f"expected a vector, got {type(values).__name__}")
    vec = [v if type(v) is Q else as_q(v) for v in values]
    if width is not None and len(vec) != width:
        raise ValueError(error)
    return vec


def as_q_matrix(rows, width=None, error=None):
    """`rows` as a list of rational rows; a ragged matrix raises first,
    then, given a width, rows of any other width raise ValueError(error)."""
    mat = [as_q_vector(r) for r in rows]
    if mat:
        if any(len(r) != len(mat[0]) for r in mat):
            raise ValueError("ragged matrix")
        if width is not None and len(mat[0]) != width:
            raise ValueError(error)
    return mat


def over_lcm(values):
    """(numerators, d): the rationals `values` as plain integers over d, the
    lcm of their denominators (1 when there are none)."""
    # lcm of a list, not of a generator: a tuple built from a generator is
    # resized, and the interpreter then keeps such tuples on its free lists
    # (about 1 MB more peak memory over some 10^5 solves)
    dens = [v.denominator for v in values]
    d = lcm(*dens)
    return [v.numerator * (d // b) for v, b in zip(values, dens)], d


def dot(a, b):
    """a . b over exact rationals, skipping zero terms; vectors of unequal
    length raise ValueError."""
    s = ZERO
    for x, y in zip(a, b, strict=True):
        if x and y:
            s += x * y
    return s


def mat_vec(rows, x):
    """The row-list matrix applied to x."""
    return [dot(row, x) for row in rows]


def transpose_apply(rows, weights, width):
    """rows^T weights: sum_i weights[i] * rows[i], a vector of `width`
    entries (zeros when there are no rows); one weight per row, or
    ValueError."""
    out = [ZERO] * width
    for row, w in zip(rows, weights, strict=True):
        if w:
            for j, a in enumerate(row):
                if a:
                    out[j] += w * a
    return out
