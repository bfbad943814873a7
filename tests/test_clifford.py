import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spindex import exactnum
from spindex.clifford import (AlgebraType, FormMismatchError, GaussianRational,
                              Multivector, QuadraticForm, blade_from_indices,
                              blade_grade, blade_indices, blade_product, blade_sign,
                              classify_complex, classify_real, embed_lower)
from spindex.spin_groups import lift_rotation

E3 = QuadraticForm.euclidean(3)


def mv(form, **blades):
    terms = {blade_from_indices([int(c) for c in name[1:]]) if name != "s" else 0: v
             for name, v in blades.items()}
    return Multivector(form, terms)


def word_product_oracle(word, signs):
    """Reduce a word of 1-based generator indices step by step with the
    defining relation (independent of the bitmask sign rule)."""
    word = list(word)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            a, b = word[i], word[i + 1]
            if a == b:
                sign *= -signs[a - 1]
                del word[i:i + 2]
                changed = True
                break
            if a > b:
                word[i], word[i + 1] = b, a
                sign = -sign
                changed = True
                break
    return sign, tuple(word)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_blade_product_matches_word_reduction(n):
    signatures = {(1,) * n, (-1,) * n,
                  tuple((-1) ** i for i in range(n)),
                  tuple(-(-1) ** i for i in range(n)),
                  (1,) * (n // 2) + (-1,) * (n - n // 2)}
    for signs in signatures:
        form = QuadraticForm(n, signs)
        for a in range(1 << n):
            for b in range(1 << n):
                coeff, mask = blade_product(a, b, form)
                sign, word = word_product_oracle(
                    list(blade_indices(a)) + list(blade_indices(b)), form.signs)
                assert mask == blade_from_indices(word)
                assert coeff == GaussianRational(sign)


def test_blade_product_spec_cases():
    e1 = blade_from_indices([1])
    e2 = blade_from_indices([2])
    e12 = blade_from_indices([1, 2])
    assert blade_product(e1, e1, E3) == (GaussianRational(-1), 0)
    assert blade_product(e1, e2, E3) == (GaussianRational(1), e12)
    assert blade_product(e2, e1, E3) == (GaussianRational(-1), e12)
    assert blade_product(e12, e12, E3) == (GaussianRational(-1), 0)


def test_blade_product_dimension_check():
    with pytest.raises(ValueError):
        blade_product(1 << 5, 1, E3)


def test_multiply_basic_identities():
    one = Multivector.scalar(E3, 1)
    e1 = Multivector.basis_vector(E3, 1)
    assert (one + e1) * (one - e1) == Multivector.scalar(E3, 2)
    x = mv(E3, s=2, e12=3, e3=-1)
    assert x * one == x
    v = Multivector.vector(E3, [3, 4, 0])
    assert v * v == Multivector.scalar(E3, -25)


def test_multiply_form_mismatch():
    with pytest.raises(FormMismatchError):
        Multivector.scalar(E3, 1) * Multivector.scalar(QuadraticForm.euclidean(2), 1)


def test_grade_involution():
    e1 = Multivector.basis_vector(E3, 1)
    assert e1.grade_involution() == -e1
    even = mv(E3, s=1, e12=1)
    assert even.grade_involution() == even
    x = mv(E3, e1=1, e123=1)
    assert x.grade_involution() == -x


def test_reversal():
    assert mv(E3, e12=1).reversal() == mv(E3, e12=-1)
    v = Multivector.vector(E3, [2, -1, 5])
    assert v.reversal() == v
    assert mv(E3, e123=1).reversal() == mv(E3, e123=-1)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = random_mv(rng, E3)
        assert x.reversal().reversal() == x


def test_grade_decompose():
    x = mv(E3, s=1, e1=1)
    even, odd = x.grade_decompose()
    assert even == Multivector.scalar(E3, 1)
    assert odd == Multivector.basis_vector(E3, 1)
    y = mv(E3, e12=1, e3=1)
    even, odd = y.grade_decompose()
    assert even == mv(E3, e12=1) and odd == mv(E3, e3=1)
    prod = Multivector.basis_vector(E3, 1) * Multivector.basis_vector(E3, 2)
    even, odd = prod.grade_decompose()
    assert odd.is_zero() and even == mv(E3, e12=1)


def random_mv(rng, form, terms=4):
    out = {}
    for _ in range(terms):
        mask = int(rng.integers(0, 1 << form.dim))
        out[mask] = GaussianRational(int(rng.integers(-5, 6)),
                                     int(rng.integers(-2, 3)))
    return Multivector(form, out)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_associativity_and_relation_random(n):
    rng = np.random.default_rng(n)
    form = QuadraticForm.euclidean(n)
    for _ in range(60):
        x, y, z = (random_mv(rng, form) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        coords = [Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
                  for _ in range(n)]
        v = Multivector.vector(form, coords)
        assert v * v == Multivector.scalar(form, -form.value(coords))


def test_blade_sign_is_a_two_cocycle():
    """sign(a, b) sign(a ^ b, c) = sign(b, c) sign(a, b ^ c) for all blades:
    the product is associative on basis blades, so by bilinearity on every
    element.  All 64 signatures of n = 6 hold every n < 6 as sub-blades."""
    blades = np.arange(64)
    a, b, c = np.meshgrid(blades, blades, blades, indexing="ij")
    for positive_mask in range(64):
        sign = np.array([[blade_sign(x, y, positive_mask) for y in range(64)]
                         for x in range(64)])
        assert np.array_equal(sign[a, b] * sign[a ^ b, c], sign[b, c] * sign[a, b ^ c])


def test_mixed_signature_relation():
    form = QuadraticForm(3, (1, -1, 1))
    e2 = Multivector.basis_vector(form, 2)
    assert e2 * e2 == Multivector.scalar(form, 1)   # q(e2) = -1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_blade_basis_closed_and_independent(n):
    form = QuadraticForm.euclidean(n)
    for a in range(1 << n):
        seen = set()
        for b in range(1 << n):
            coeff, mask = blade_product(a, b, form)
            assert coeff * coeff == GaussianRational(1)
            seen.add(mask)
        assert seen == set(range(1 << n))   # row of the table is a permutation


def test_involution_is_algebra_map():
    rng = np.random.default_rng(7)
    for _ in range(30):
        x, y = random_mv(rng, E3), random_mv(rng, E3)
        assert (x * y).grade_involution() == x.grade_involution() * y.grade_involution()
        assert x.grade_involution().grade_involution() == x


def test_grading_multiplication_rule():
    rng = np.random.default_rng(11)
    for _ in range(30):
        x, y = random_mv(rng, E3), random_mv(rng, E3)
        xe, xo = x.grade_decompose()
        ye, yo = y.grade_decompose()
        for part, expect_even in [(xe * ye, True), (xo * yo, True),
                                  (xe * yo, False), (xo * ye, False)]:
            even, odd = part.grade_decompose()
            assert (odd if expect_even else even).is_zero()


def test_reversal_antiautomorphism():
    rng = np.random.default_rng(13)
    for _ in range(20):
        x, y = random_mv(rng, E3), random_mv(rng, E3)
        assert (x * y).reversal() == y.reversal() * x.reversal()


# -- even subalgebra embedding ------------------------------------------------

def test_embed_lower_generators():
    f2 = QuadraticForm.euclidean(2)
    img = embed_lower(Multivector.basis_vector(QuadraticForm.euclidean(1), 1), f2)
    assert img == Multivector.blade(f2, [1, 2])
    assert embed_lower(Multivector.scalar(QuadraticForm.euclidean(1), 1), f2) \
        == Multivector.scalar(f2, 1)
    img2 = embed_lower(Multivector.blade(QuadraticForm.euclidean(2), [1, 2]), E3)
    assert img2 == Multivector.blade(E3, [1, 2])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_embed_lower_homomorphism_and_image(n):
    source = QuadraticForm.euclidean(n - 1)
    target = QuadraticForm.euclidean(n)
    rng = np.random.default_rng(n)
    for _ in range(15):
        x, y = random_mv(rng, source), random_mv(rng, source)
        assert embed_lower(x * y, target) == embed_lower(x, target) * embed_lower(y, target)
    image_masks = set()
    for mask in range(1 << (n - 1)):
        img = embed_lower(Multivector(source, {mask: GaussianRational(1)}), target)
        ((m, _),) = img.terms().items()
        assert blade_grade(m) % 2 == 0
        image_masks.add(m)
    assert len(image_masks) == 1 << (n - 1)


def _embed_lower_chain(x, target, generators=None):
    """The embedding as a product chain: each term c e_A goes to
    c (e_{i_1} e_n) ... (e_{i_k} e_n), with full multivector products."""
    n = target.dim
    if generators is None:
        e_n = Multivector.basis_vector(target, n)
        generators = [Multivector.basis_vector(target, i) * e_n for i in range(1, n)]
    out = Multivector.zero(target)
    for mask, v in x.terms().items():
        img = Multivector.scalar(target, 1)
        for i in blade_indices(mask):
            img = img * generators[i - 1]
        out = out + img * v
    return out


def test_embed_lower_matches_product_chain_on_every_blade():
    """Every blade of every signature up to n = 8, with integer, rational and
    Gaussian rational coefficients (43 690 blade images)."""
    coefficients = (GaussianRational(-3), GaussianRational(Fraction(2, 7), Fraction(-5, 3)),
                    Fraction(5, 16), GaussianRational(Fraction(-3, 2), Fraction(1, 4)))
    count = 0
    for n in range(1, 9):
        for signs in itertools.product((1, -1), repeat=n):
            target = QuadraticForm(n, signs)
            source = QuadraticForm(n - 1, tuple(s * signs[-1] for s in signs[:-1]))
            e_n = Multivector.basis_vector(target, n)
            generators = [Multivector.basis_vector(target, i) * e_n for i in range(1, n)]
            for mask in range(1 << (n - 1)):
                img = _embed_lower_chain(Multivector(source, {mask: 1}), target, generators)
                for c in coefficients:
                    assert embed_lower(Multivector(source, {mask: c}), target).terms() \
                        == (img * c).terms()
                count += 1
    assert count == 43690


@pytest.mark.parametrize("n", [1, 3, 5, 8])
def test_embed_lower_matches_product_chain_on_random_sums(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(10):
        signs = tuple(int(s) for s in rng.choice((1, -1), n))
        target = QuadraticForm(n, signs)
        source = QuadraticForm(n - 1, tuple(s * signs[-1] for s in signs[:-1]))
        x = random_mv(rng, source, terms=6)
        assert embed_lower(x, target) == _embed_lower_chain(x, target)
        # dense, with the unlike denominators that float samples used to bring
        dense = Multivector(source, {m: Fraction(int(rng.integers(-10 ** 6, 10 ** 6)),
                                                 int(rng.integers(1, 10 ** 6)))
                                     for m in range(1 << (n - 1))})
        image, chain = embed_lower(dense, target), _embed_lower_chain(dense, target)
        assert image.terms() == chain.terms()
        assert len(image.terms()) == len(dense.terms())
    with pytest.raises(TypeError, match="Fraction"):
        Multivector(source, {0: float(rng.normal())})


def test_embed_lower_sign_compatibility():
    bad_source = QuadraticForm(1, (-1,))
    with pytest.raises(ValueError, match="incompatible signs"):
        embed_lower(Multivector.basis_vector(bad_source, 1),
                    QuadraticForm.euclidean(2))
    with pytest.raises(ValueError, match="source dimension \\+ 1"):
        embed_lower(Multivector.basis_vector(QuadraticForm.euclidean(2), 1),
                    QuadraticForm.euclidean(4))
    with pytest.raises(ValueError, match="source dimension \\+ 1"):
        embed_lower(Multivector.scalar(QuadraticForm.euclidean(2), 1),
                    QuadraticForm.euclidean(2))
    # signs_src[i] = signs_tgt[i] * signs_tgt[last] is accepted
    src = QuadraticForm(1, (-1,))
    tgt = QuadraticForm(2, (1, -1))
    img = embed_lower(Multivector.basis_vector(src, 1), tgt)
    assert img == Multivector.blade(tgt, [1, 2])


# -- classification ------------------------------------------------------------

@pytest.mark.parametrize("n,factors", [
    (0, (("C", 1),)),
    (1, (("C", 1), ("C", 1))),
    (2, (("C", 2),)),
    (3, (("C", 2), ("C", 2))),
    (4, (("C", 4),)),
])
def test_classify_complex(n, factors):
    assert classify_complex(n).factors == factors


@pytest.mark.parametrize("p,m,expected", [
    (0, 0, "M(1,R)"),
    (1, 0, "M(1,C)"),
    (2, 0, "M(1,H)"),
    (3, 0, "M(1,H) + M(1,H)"),
    (4, 0, "M(2,H)"),
    (5, 0, "M(4,C)"),
    (6, 0, "M(8,R)"),
    (7, 0, "M(8,R) + M(8,R)"),
    (8, 0, "M(16,R)"),
    (0, 1, "M(1,R) + M(1,R)"),
    (0, 2, "M(2,R)"),
    (1, 1, "M(2,R)"),
    (2, 2, "M(4,R)"),
])
def test_classify_real(p, m, expected):
    algebra = classify_real(p, m)
    assert str(algebra) == expected
    assert algebra.real_dimension() == 1 << (p + m)


def test_algebra_type_validation():
    with pytest.raises(ValueError):
        AlgebraType((("X", 2),))
    with pytest.raises(ValueError):
        AlgebraType(())


# -- inversion and serialization ------------------------------------------------

def test_inverse_round_trip():
    one = Multivector.scalar(E3, 1)
    for x in [Multivector.blade(E3, [1, 2]),
              mv(E3, s=2, e123=1),
              mv(E3, s=1, e1=Fraction(1, 2))]:
        assert x.inverse() * x == one
        assert x * x.inverse() == one


def test_lift_product_inverse_takes_the_shortcut(monkeypatch):
    f4 = QuadraticForm.euclidean(4)
    x = (lift_rotation(1, 2, 0.3, f4) * lift_rotation(2, 3, 1.1, f4)
         * lift_rotation(3, 4, -0.7, f4)).value
    norm = x.reversal().grade_involution() * x
    assert norm == Multivector.scalar(f4, 1)     # exactly: lifts have unit norm

    def refuse(self):
        raise AssertionError("general recursion taken")

    monkeypatch.setattr(Multivector, "_inverse_by_recursion", refuse)
    inv = x.inverse()
    one = Multivector.scalar(f4, 1)
    assert x * inv == one and inv * x == one
    assert inv == x.reversal()


def test_numpy_integer_coefficients_are_exact():
    form = QuadraticForm.euclidean(2)
    x = Multivector(form, {0: np.int64(2), 3: 1})
    assert x * x == Multivector(form, {0: 2, 3: 1}) * Multivector(form, {0: 2, 3: 1})
    big = Multivector(form, {0: np.int64(2 ** 62)})
    assert (big * big).scalar_part() == 2 ** 124          # no int64 wrap-around


@pytest.mark.parametrize("value", [0.5, 1.0, complex(1, 2), np.float64(0.25)])
def test_inexact_coefficients_raise_a_type_error(value):
    with pytest.raises(TypeError, match="Fraction"):
        Multivector(E3, {0: 1, 3: value})
    x = Multivector.vector(E3, [1, 2, 3])
    with pytest.raises(TypeError, match="Fraction"):
        x * value


def test_gaussian_rational_scales_from_either_side():
    x = mv(E3, s=1, e12=Fraction(1, 3), e123=-2)
    z = GaussianRational(1, 1)
    assert z * x == x * z == Multivector.scalar(E3, z) * x
    assert Fraction(1, 2) * x == x * Fraction(1, 2)


def test_non_invertible_raises(monkeypatch):
    form = QuadraticForm(1, (-1,))   # e1^2 = +1, so 1 + e1 is a zero divisor
    x = Multivector(form, {0: GaussianRational(1), 1: GaussianRational(1)})
    # its norm (1 - e1)(1 + e1) is the scalar 0: refused with no recursion
    monkeypatch.setattr(Multivector, "_inverse_by_recursion", None)
    with pytest.raises(ZeroDivisionError):
        x.inverse()


def test_general_inverse_recurses_on_the_norm(monkeypatch):
    """Outside the Clifford group the recursion inverts the norm
    M = rev(alpha(x)) x, and x^-1 = M^-1 rev(alpha(x))."""
    recursion = Multivector._inverse_by_recursion
    receivers = []

    def record(self):
        receivers.append(self)
        return recursion(self)

    monkeypatch.setattr(Multivector, "_inverse_by_recursion", record)
    f4 = QuadraticForm(4, (1, -1, 1, 1))
    for x in (mv(E3, s=2, e1=1, e123=1), Multivector(f4, {0: 5, 0b11: 1, 0b110: -2, 0b1111: 1})):
        norm = x.grade_involution().reversal() * x
        assert not norm.is_scalar()
        receivers.clear()
        inv = x.inverse()
        assert receivers == [norm]
        assert inv == recursion(x)
        one = Multivector.scalar(x.form, 1)
        assert x * inv == one and inv * x == one


def test_json_round_trip():
    x = Multivector(E3, {0: GaussianRational(Fraction(1, 2)),
                         blade_from_indices([1, 3]): GaussianRational(-3, 7)})
    data = json.loads(json.dumps(x.to_json()))
    assert Multivector.from_json(data) == x
    assert data["terms"][0]["re"] == "1/2"


def test_quadratic_form_validation():
    with pytest.raises(ValueError):
        QuadraticForm(2, (1,))
    with pytest.raises(ValueError):
        QuadraticForm(2, (1, 0))
    with pytest.raises(ValueError):
        QuadraticForm(20, (1,) * 20)


# ---------------------------------------------------------------------------
# properties over random Gaussian-rational elements of Cl(p, q), n <= 6
# ---------------------------------------------------------------------------

_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_gaussians = st.tuples(_rationals, _rationals | st.just(Fraction(0)))


@st.composite
def _forms(draw, max_dim=6):
    n = draw(st.integers(1, max_dim))
    return QuadraticForm(n, tuple(draw(st.lists(st.sampled_from((1, -1)),
                                                min_size=n, max_size=n))))


def _elements(form, max_terms=6):
    return st.dictionaries(st.integers(0, (1 << form.dim) - 1), _gaussians,
                           max_size=max_terms)


def _multivector(form, pairs):
    return Multivector(form, {m: GaussianRational(re, im) for m, (re, im) in pairs.items()})


def _oracle_product(x, y, signs):
    """Product of coefficient maps {mask: (re, im)} by word reduction."""
    acc = {}
    for ma, (ar, ai) in x.items():
        for mb, (br, bi) in y.items():
            sign, word = word_product_oracle(
                list(blade_indices(ma)) + list(blade_indices(mb)), signs)
            m = blade_from_indices(word)
            re, im = acc.get(m, (0, 0))
            acc[m] = (re + sign * (ar * br - ai * bi), im + sign * (ar * bi + ai * br))
    return {m: v for m, v in acc.items() if v != (0, 0)}


def _canonical_pairs(x):
    """Coefficients as (re, im) Fractions; every integral part must be an int."""
    out = {}
    for m, v in x.terms().items():
        for part in (v.re, v.im):
            assert type(part) is (int if Fraction(part).denominator == 1 else Fraction)
        out[m] = (Fraction(v.re), Fraction(v.im))
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_product_matches_word_reduction_property(data):
    form = data.draw(_forms())
    x, y = data.draw(_elements(form)), data.draw(_elements(form))
    product = _multivector(form, x) * _multivector(form, y)
    assert _canonical_pairs(product) == _oracle_product(x, y, form.signs)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_versor_inverse_property(data):
    form = data.draw(_forms())
    one = Multivector.scalar(form, 1)
    x = one
    for _ in range(data.draw(st.integers(1, 3))):
        coords = data.draw(st.lists(_rationals, min_size=form.dim, max_size=form.dim)
                           .filter(lambda c: form.value(c) != 0))
        x = x * Multivector.vector(form, coords)
    inv = x.inverse()
    assert x * inv == one and inv * x == one
    _canonical_pairs(inv)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_general_inverse_property(data):
    """Elements with a dominant scalar part are invertible (the left
    multiplication by a blade is a signed permutation); most have no scalar
    norm and take the Faddeev-LeVerrier recursion, which is also called
    directly."""
    form = data.draw(_forms())
    pairs = data.draw(_elements(form))
    pairs[0] = (1 + sum(abs(re) + abs(im) for m, (re, im) in pairs.items() if m), Fraction(0))
    x = _multivector(form, pairs)
    one = Multivector.scalar(form, 1)
    for inv in (x.inverse(), x._inverse_by_recursion()):
        assert x * inv == one and inv * x == one
        _canonical_pairs(inv)


def _zero_divisor_factors(form):
    """1 + e_i with e_i**2 = +1, (1 - e_i)(1 + e_i) = 0, and 1 + i e12 with
    e12**2 = -1, (1 - i e12)(1 + i e12) = 0."""
    one = {0: GaussianRational(1)}
    factors = [{**one, 1 << i: GaussianRational(1)} for i, s in enumerate(form.signs) if s == -1]
    if form.dim >= 2 and form.signs[0] == form.signs[1]:
        factors.append({**one, 0b11: GaussianRational(0, 1)})
    return factors


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_zero_divisors_are_not_inverted_property(data):
    form = data.draw(_forms().filter(_zero_divisor_factors))
    factor = data.draw(st.sampled_from(_zero_divisor_factors(form)))
    y = _multivector(form, data.draw(_elements(form)))
    x = Multivector(form, factor) * y
    with pytest.raises(ZeroDivisionError):
        x.inverse()
    with pytest.raises(ZeroDivisionError):
        x._inverse_by_recursion()


def test_cl0_inverse_is_the_reciprocal_and_zero_raises():
    """Cl_0 has N = 1: the recursion takes no product and V = 1."""
    f0 = QuadraticForm(0, ())
    x = Multivector.scalar(f0, GaussianRational(Fraction(3, 2), 1))
    assert x._inverse_by_recursion() == x.inverse() == Multivector.scalar(
        f0, GaussianRational(Fraction(6, 13), Fraction(-4, 13)))
    for zero in (Multivector.zero(f0).inverse, Multivector.zero(f0)._inverse_by_recursion):
        with pytest.raises(ZeroDivisionError):
            zero()


def _dominant(rng, form):
    """A dense Gaussian-rational element with a dominant scalar part."""
    terms = {m: GaussianRational(Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4))),
                                 int(rng.integers(-2, 3)))
             for m in range(1, 1 << form.dim)}
    terms[0] = 1 + sum(abs(c.re) + abs(c.im) for c in terms.values())
    return terms


def test_dense_inverse_at_n7_matches_the_oracle():
    form = QuadraticForm(7, (1, -1, 1, 1, -1, -1, 1))
    terms = _dominant(np.random.default_rng(7), form)
    x = Multivector(form, terms)
    assert not (x.reversal().grade_involution() * x).is_scalar()    # not a versor
    assert _oracle_mul(_gaussian(terms), x.inverse().terms(), form) == {0: GaussianRational(1)}


def test_general_inverse_runs_no_elimination(monkeypatch):
    def refuse(*args):
        raise AssertionError("Bareiss elimination taken")

    monkeypatch.setattr(exactnum, "bareiss", refuse)
    rng = np.random.default_rng(29)
    for n in range(1, 7):
        form = QuadraticForm(n, tuple(int(s) for s in rng.choice((1, -1), size=n)))
        x = Multivector(form, _dominant(rng, form))
        one = Multivector.scalar(form, 1)
        assert x * x.inverse() == one and x.inverse() * x == one


# ---------------------------------------------------------------------------
# the integer (den, re, im) representation against a GaussianRational oracle
# ---------------------------------------------------------------------------

# integers, Fractions and Gaussian rationals with im != 0, over unlike denominators
_exact_coefficients = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
    st.builds(GaussianRational, st.fractions(min_value=-3, max_value=3, max_denominator=7),
              st.fractions(min_value=-3, max_value=3, max_denominator=9).filter(bool)))


def _exact_terms(form, max_terms=5):
    return st.dictionaries(st.integers(0, (1 << form.dim) - 1), _exact_coefficients,
                           max_size=max_terms)


def _gaussian(terms):
    """The coefficient map with GaussianRational values, zeros left out."""
    return {m: GaussianRational.coerce(c) for m, c in terms.items() if c}


def _oracle_mul(x, y, form):
    """Term by term over GaussianRational with blade_product's factors."""
    acc = {}
    for a, ca in x.items():
        for b, cb in y.items():
            factor, m = blade_product(a, b, form)
            acc[m] = acc.get(m, GaussianRational(0)) + factor * ca * cb
    return {m: c for m, c in acc.items() if c}


def _oracle_add(x, y, sign=1):
    acc = dict(x)
    for m, c in y.items():
        acc[m] = acc.get(m, GaussianRational(0)) + sign * c
    return {m: c for m, c in acc.items() if c}


def _oracle_signs(x, negate):
    return {m: -c if negate(blade_grade(m)) else c for m, c in x.items()}


def _oracle_embed(x, source, target):
    """Each term c e_A as c (e_{i_1} e_n) ... (e_{i_k} e_n), by oracle products."""
    top = {1 << source.dim: GaussianRational(1)}
    out = {}
    for mask, c in x.items():
        image = {0: c}
        for i in blade_indices(mask):
            image = _oracle_mul(image, _oracle_mul({1 << (i - 1): GaussianRational(1)}, top,
                                                   target), target)
        out = _oracle_add(out, image)
    return out


def _oracle_versor_inverse(x, form):
    candidate = _oracle_signs(x, lambda k: (k * (k + 1) // 2) % 2)   # rev(alpha(x))
    (m, norm), = _oracle_mul(candidate, x, form).items()
    assert m == 0
    return {m: c / norm for m, c in candidate.items()}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_integer_representation_matches_the_gaussian_oracle(data):
    form = data.draw(_forms())
    tx, ty = data.draw(_exact_terms(form)), data.draw(_exact_terms(form))
    c = data.draw(_exact_coefficients)
    x, y = Multivector(form, tx), Multivector(form, ty)
    gx, gy = _gaussian(tx), _gaussian(ty)
    assert x.terms() == gx
    assert (x * y).terms() == _oracle_mul(gx, gy, form)
    assert (x + y).terms() == _oracle_add(gx, gy)
    assert (x - y).terms() == _oracle_add(gx, gy, -1)
    assert (-x).terms() == _oracle_signs(gx, lambda k: True)
    assert x.reversal().terms() == _oracle_signs(gx, lambda k: (k * (k - 1) // 2) % 2)
    assert x.grade_involution().terms() == _oracle_signs(gx, lambda k: k % 2)
    for k in range(form.dim + 1):
        assert x.grade_part(k).terms() == {m: v for m, v in gx.items() if blade_grade(m) == k}
    assert [part.terms() for part in x.grade_decompose()] == [
        {m: v for m, v in gx.items() if blade_grade(m) % 2 == odd} for odd in (0, 1)]
    scaled = {m: GaussianRational.coerce(c) * v for m, v in gx.items() if c}
    assert (x * c).terms() == scaled
    if not isinstance(c, GaussianRational):     # GaussianRational * Multivector is a TypeError
        assert (c * x).terms() == scaled
    _canonical_pairs(x * y)
    if form.dim < 6:
        last = data.draw(st.sampled_from((1, -1)))
        target = QuadraticForm(form.dim + 1, tuple(s * last for s in form.signs) + (last,))
        assert embed_lower(x, target).terms() == _oracle_embed(gx, form, target)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_inverses_match_the_gaussian_oracle(data):
    """A versor's inverse from the shortcut and from the recursion is the
    oracle's rev(alpha(x)) / N(x); a general element's inverse is checked by
    an oracle product."""
    form = data.draw(_forms())
    x = Multivector.scalar(form, data.draw(_exact_coefficients.filter(bool)))
    for _ in range(data.draw(st.integers(1, 3))):
        coords = data.draw(st.lists(_exact_coefficients, min_size=form.dim, max_size=form.dim)
                           .filter(lambda v: form.value([GaussianRational.coerce(c)
                                                         for c in v]) != 0))
        x = x * Multivector.vector(form, coords)
    want = _oracle_versor_inverse(x.terms(), form)
    assert x.inverse().terms() == want
    if form.dim <= 4:
        assert x._inverse_by_recursion().terms() == want
        terms = data.draw(_exact_terms(form))
        terms[0] = 1 + sum(abs(g.re) + abs(g.im) for g in _gaussian(terms).values())
        y = Multivector(form, terms)
        for inv in (y.inverse(), y._inverse_by_recursion()):
            assert _oracle_mul(_gaussian(terms), inv.terms(), form) == {0: GaussianRational(1)}


def test_unreduced_denominators_compare_and_hash_by_value():
    half_times_two = Multivector.scalar(E3, Fraction(1, 2)) * Multivector.scalar(E3, 2)
    one = Multivector.scalar(E3, 1)
    assert half_times_two == one and hash(half_times_two) == hash(one)
    assert half_times_two.terms() == {0: GaussianRational(1)}
    # a sum keeps the lcm of its operands' denominators: 2/2 here
    half = Multivector.scalar(E3, Fraction(1, 2))
    assert (half + half)._den == 2
    assert half + half == one and hash(half + half) == hash(one)
    z = Multivector(E3, {0: GaussianRational(Fraction(1, 3), Fraction(2, 3)), 0b101: 4})
    w = Multivector.scalar(E3, Fraction(3, 7)) * z * Multivector.scalar(E3, Fraction(7, 3))
    assert w == z and hash(w) == hash(z) and w != z * 2


def test_products_and_inverses_keep_the_denominator_reduced():
    x = Multivector(QuadraticForm.euclidean(2), {0: Fraction(3, 5), 0b11: Fraction(4, 5)})
    inv = x.inverse()
    y = x
    for _ in range(30):
        y = y * (x * inv)
    # N(x) = 25/25 reduces to den 1, not den(x)^2 = 25, in the inverse shortcut
    assert y == x and y._den == 5 and inv._den == 5
    # a rational element with N(z) = 25/4
    z = Multivector(E3, {0: Fraction(3, 2), 0b11: 2})
    assert z.inverse().terms() == {0: GaussianRational(Fraction(6, 25)),
                                   0b11: GaussianRational(Fraction(-8, 25))}
    assert z.inverse()._den == 25 and z * z.inverse() == Multivector.scalar(E3, 1)


def test_products_that_cancel_are_zero():
    form = QuadraticForm(1, (-1,))                 # e1**2 = +1
    x = Multivector(form, {0: Fraction(1, 2), 1: Fraction(1, 2)})
    y = Multivector(form, {0: 2, 1: -2})
    prod = x * y                                   # (1 + e1)(1 - e1) = 0
    assert prod.is_zero() and prod.terms() == {} and repr(prod) == "0"
    assert prod == Multivector.zero(form) and hash(prod) == hash(Multivector.zero(form))
    i = Multivector.scalar(form, GaussianRational(0, 1))
    assert (i * i + Multivector.scalar(form, 1)).is_zero()


@pytest.mark.parametrize("signs", [(1, 1, 1), (1, -1, 1), (-1, -1, -1, -1)])
def test_defining_relation_inequality_as_in_the_acceptance_criterion(signs):
    form = QuadraticForm(len(signs), signs)
    rng = np.random.default_rng(len(signs))
    for _ in range(20):
        coords = [Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4))) for _ in signs]
        v = Multivector.vector(form, coords)
        q = form.value(coords)
        assert not v * v != Multivector.scalar(form, -q)
        assert v * v != Multivector.scalar(form, -q + Fraction(1, 5))
        assert v * v != Multivector.scalar(form, GaussianRational(-q, 1))
