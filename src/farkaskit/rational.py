"""Exact rational scalars and the two extended values +oo / -oo.

Everything in this package computes over exact rationals. `Q` is gmpy2.mpq
when gmpy2 is installed (the optional `fast` extra) and fractions.Fraction
otherwise; every result is the same either way. The simplex kernel pivots in
plain integers and meets `Q` only in its input and its outcome, so the
choice matters mostly outside it, and the wall-clock budgets of the
acceptance tests hold on the Fraction fallback.
"""

from __future__ import annotations

from fractions import Fraction

try:
    from gmpy2 import mpq as Q
except ImportError:  # supported fallback: the same exact values, only slower
    Q = Fraction

ZERO = Q(0)
ONE = Q(1)

_QTYPES = (int, type(Q(0)), Fraction)


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
    that is already a `Q` is returned as it is.
    """
    if type(value) is Q:
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rational scalars")
    if isinstance(value, _QTYPES):
        return Q(value)
    if isinstance(value, str):
        try:
            return Q(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational literal: {value!r}") from exc
    if isinstance(value, float):
        raise TypeError(f"float {value!r} rejected: exact rationals only (write e.g. \"1/3\")")
    raise TypeError(f"cannot convert {type(value).__name__} to a rational")


def q_str(x) -> str:
    """Canonical 'p/q' (or plain integer) text form, round-trippable by as_q."""
    return str(x)


def scalar_text(x) -> str:
    """Rendering for reports and files: 'p/q' for finite values, 'inf'/'-inf'
    for the extended ones."""
    if x is INF:
        return "inf"
    if x is NEG_INF:
        return "-inf"
    return q_str(x)


def as_q_vector(values):
    return [as_q(v) for v in values]


def as_q_matrix(rows):
    mat = [as_q_vector(r) for r in rows]
    if mat:
        width = len(mat[0])
        if any(len(r) != width for r in mat):
            raise ValueError("ragged matrix")
    return mat


def dot(a, b):
    """a . b over exact rationals, skipping zero terms."""
    s = ZERO
    for x, y in zip(a, b):
        if x and y:
            s += x * y
    return s


def mat_vec(rows, x):
    """The row-list matrix applied to x."""
    return [dot(row, x) for row in rows]


def transpose_apply(rows, weights, width):
    """rows^T weights: sum_i weights[i] * rows[i], a vector of `width`
    entries (zeros when there are no rows)."""
    out = [ZERO] * width
    for row, w in zip(rows, weights):
        if w:
            for j, a in enumerate(row):
                if a:
                    out[j] += w * a
    return out
