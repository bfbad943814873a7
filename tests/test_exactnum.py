from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spindex.exactnum import GaussianRational, bareiss, det, realify


def test_field_arithmetic():
    a = GaussianRational(Fraction(1, 2), Fraction(3, 4))
    b = GaussianRational(2, -1)
    assert a + b == GaussianRational(Fraction(5, 2), Fraction(-1, 4))
    assert a * b == GaussianRational(Fraction(7, 4), 1)
    assert (a / b) * b == a
    assert -a + a == GaussianRational(0)
    assert a.conjugate().conjugate() == a


def test_exactness_no_rounding():
    third = GaussianRational(Fraction(1, 3))
    assert third + third + third == GaussianRational(1)
    tiny = GaussianRational(Fraction(1, 10 ** 30))
    assert (tiny + GaussianRational(1)) - GaussianRational(1) == tiny


def test_parse_and_repr():
    assert GaussianRational.parse("3/4", "-2") == GaussianRational(Fraction(3, 4), -2)
    assert str(GaussianRational(1, 1)) == "1+1i"
    assert str(GaussianRational(0, -2)) == "-2i"


@pytest.mark.parametrize("re_str, im_str, bad", [("1/0", "0", "'1/0'"), ("1", "-2/0", "'-2/0'")])
def test_parse_names_a_zero_denominator(re_str, im_str, bad):
    with pytest.raises(ValueError, match=f"^coefficient {bad} has a zero denominator$"):
        GaussianRational.parse(re_str, im_str)


def test_mixed_float_raises_a_type_error():
    a = GaussianRational(1, 2)
    for inexact in (0.5, 1.0, complex(0.5, 1.0)):
        for op in (a.__add__, a.__radd__, a.__sub__, a.__rsub__, a.__mul__,
                   a.__rmul__, a.__truediv__, a.__rtruediv__):
            with pytest.raises(TypeError, match="Fraction"):
                op(inexact)
    with pytest.raises(TypeError, match="Fraction"):
        GaussianRational(0.5)
    # the exact counterparts: 0.5 and 1.0 as Fractions
    assert a * Fraction(1, 2) == GaussianRational(Fraction(1, 2), 1)
    assert a + Fraction(1) == GaussianRational(2, 2)


def test_any_rational_is_accepted_exactly():
    big = np.int64(2 ** 62)
    z = GaussianRational(big, np.int32(-3))
    assert z == GaussianRational(2 ** 62, -3)
    assert type(z.re) is int and type(z.im) is int
    # no int64 overflow in later products
    assert (z * z).re == 2 ** 124 - 9
    assert GaussianRational(1) * np.int64(3) == 3
    assert GaussianRational(1) == np.int64(1)


def test_unknown_operands_are_left_to_the_other_type():
    class Other:
        def __radd__(self, other):
            return "radd"

        def __rmul__(self, other):
            return "rmul"

    assert GaussianRational(1) + Other() == "radd"
    assert GaussianRational(1) * Other() == "rmul"
    assert GaussianRational(1).__truediv__(Other()) is NotImplemented


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


def test_rejects_inexact_coercion():
    with pytest.raises(TypeError):
        GaussianRational.coerce(0.5 + 0j)


def test_integral_parts_are_ints_and_division_stays_exact():
    one, three = GaussianRational(1), GaussianRational(3)
    assert type(one.re) is int and type(one.im) is int
    third = one / three
    assert third == GaussianRational(Fraction(1, 3))
    assert type(third.re) is Fraction
    assert type((third * three).re) is int
    assert GaussianRational(Fraction(6, 3), Fraction(4, 2)).re == 2
    assert type(GaussianRational(Fraction(6, 3)).re) is int
    assert GaussianRational(2, 2) / GaussianRational(1, 1) == GaussianRational(2)
    assert GaussianRational(1) / GaussianRational(0, 2) == GaussianRational(0, Fraction(-1, 2))


def test_over_builds_from_integer_numerators():
    z = GaussianRational.over(6, -4, 4)
    assert z == GaussianRational(Fraction(3, 2), -1)
    assert type(z.im) is int
    assert GaussianRational.over(3, 0, -3) == GaussianRational(-1)


@pytest.mark.parametrize("value", [0, 1, 2, -7, Fraction(3, 5), Fraction(-9, 4), 10 ** 30])
def test_a_real_value_hashes_like_the_rational_it_equals(value):
    z = GaussianRational(value)
    assert z == value and hash(z) == hash(value)
    assert len({z, value}) == 1
    assert {value: "found"}[z] == "found"


def test_hash_separates_values_with_an_imaginary_part():
    assert len({GaussianRational(1), GaussianRational(1, 1), GaussianRational(0, 1)}) == 3
    assert hash(GaussianRational(Fraction(1, 2), 3)) == hash(GaussianRational(Fraction(2, 4), 3))


def _cofactor_det(rows):
    if not rows:
        return Fraction(1)
    return sum((-1) ** j * rows[0][j] * _cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)) if rows[0][j])


_entries = st.fractions(min_value=-9, max_value=9, max_denominator=8)


@st.composite
def _square_matrices(draw):
    """Rational matrices up to 5 x 5; about half made singular by replacing
    the last row with a combination of the others."""
    n = draw(st.integers(1, 5))
    rows = [draw(st.lists(_entries, min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        weights = draw(st.lists(_entries, min_size=n - 1, max_size=n - 1))
        rows[-1] = [sum((w * r[j] for w, r in zip(weights, rows)), Fraction(0))
                    for j in range(n)]
    return rows


@settings(max_examples=60, deadline=None)
@given(_square_matrices())
def test_bareiss_det_matches_cofactor_expansion(rows):
    assert det(rows) == _cofactor_det(rows)


def test_realify_determinant_is_squared_modulus():
    re, im = [[1, 2], [0, 1]], [[0, 1], [3, 0]]
    # det(re + i*im) = (1)(1) - (2 + i)(3i) = 4 - 6i
    assert det(realify(re, im)) == 4 ** 2 + 6 ** 2
    assert bareiss(realify([[1, 1], [1, 1]], [[1, 1], [1, 1]])) == 0
