import math
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spindex import spin_groups
from spindex.clifford import (MAX_DIM, GaussianRational, Multivector, QuadraticForm,
                              _gaussian_product, _nonzero, _reversed)
from spindex.spin_groups import (NotInvertibleError, NotScalarNormError, RotationMatrix,
                                 SpinCElement, SpinCertificate, SpinElement, _certify,
                                 _conjugation_matrix, _image_pairs, _norm_pairs, _pair_terms,
                                 _vector_columns, covering_map,
                                 is_in_spin, lift_rotation,
                                 rational_unit_vector, random_spin_element,
                                 spin_norm, spinc_canonicalize,
                                 twisted_conjugation)

F4 = QuadraticForm.euclidean(4)


def blade(*idx):
    return Multivector.blade(F4, idx)


def test_twisted_conjugation_identity():
    v = Multivector.vector(F4, [1, 2, 3, 4])
    assert twisted_conjugation(Multivector.scalar(F4, 1), v) == v


def test_twisted_conjugation_by_vector_is_reflection():
    # exact blade-product chain: x v alpha(x)^-1 with x = e1 negates e1 and
    # fixes the orthogonal directions
    e1, e2 = blade(1), blade(2)
    assert twisted_conjugation(e1, e1) == -e1
    assert twisted_conjugation(e1, e2) == e2
    # q-norm of the image is preserved
    v = Multivector.vector(F4, [3, 4, 0, 0])
    image = twisted_conjugation(e1, v)
    assert image * image == v * v


def test_twisted_conjugation_not_invertible():
    form = QuadraticForm(2, (-1, -1))
    zero_divisor = Multivector(form, {0: GaussianRational(1),
                                      1: GaussianRational(1)})
    with pytest.raises(ZeroDivisionError):
        twisted_conjugation(zero_divisor, Multivector.basis_vector(form, 1))


def test_spin_norm_values():
    assert spin_norm(Multivector.scalar(F4, 1)) == 1
    v = Multivector.vector(F4, [1, 2, 0, 0])
    assert spin_norm(v) == 5
    w = Multivector.vector(F4, [0, 1, 1, 1])
    assert spin_norm(v * w) == GaussianRational(15)   # q(v) q(w)


def test_spin_norm_multiplicative_on_products():
    rng = np.random.default_rng(2)
    for _ in range(10):
        total = Multivector.scalar(F4, 1)
        expected = GaussianRational(1)
        for _ in range(int(rng.integers(1, 7))):
            coords = [Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
                      for _ in range(4)]
            v = Multivector.vector(F4, coords)
            if v.is_zero():
                continue
            total = total * v
            expected = expected * GaussianRational(F4.value(coords))
        assert spin_norm(total) == expected


def test_spin_norm_rejects_non_group_elements():
    x = Multivector.scalar(F4, 1) + blade(1, 2, 3)
    with pytest.raises(NotScalarNormError):
        spin_norm(x)


def test_is_in_spin_certificates():
    assert is_in_spin(blade(1, 2)).ok
    cert_odd = is_in_spin(blade(1))
    assert not cert_odd.ok and "odd" in cert_odd.reason
    cert_norm = is_in_spin(2 * blade(1, 2))
    assert not cert_norm.ok and "norm" in cert_norm.reason


F3, F6, F11 = QuadraticForm.euclidean(3), QuadraticForm.euclidean(6), QuadraticForm(2, (1, -1))


@pytest.mark.parametrize("x, reason", [
    (blade(1), "element has an odd component"),
    (Multivector.scalar(F3, GaussianRational(Fraction(3, 5), Fraction(4, 5))),
     "coefficients are not real"),
    (Multivector.scalar(F4, 1) + blade(1, 2) + blade(3, 4), "norm is not scalar"),
    (2 * blade(1, 2), "norm is 4, not 1"),
    (Multivector(F11, {0: Fraction(3, 4), 0b11: Fraction(5, 4)}), "norm is -1, not 1"),
    # even, real and N = 1, but not a versor: x e_i rev(x) has an e_i e123456 part
    (Multivector(F6, {0: Fraction(3, 5), 0b111111: Fraction(4, 5)}),
     "twisted conjugation leaves the vector space"),
    # an odd blade is reported first, whatever the order of the terms
    (Multivector(F3, {0: GaussianRational(0, 1), 1: 1}), "element has an odd component"),
    (Multivector(F3, {0: GaussianRational(1, 1), 1: 1}), "element has an odd component"),
])
def test_is_in_spin_rejection_reasons(x, reason):
    assert is_in_spin(x) == SpinCertificate(False, reason)


def test_mixed_float_and_exact_element_raises_a_type_error():
    with pytest.raises(TypeError, match="Fraction"):
        Multivector(F3, {0: 0.6, 0b11: Fraction(4, 5)})
    # the exact counterpart: 0.6 as 3/5, mixed with an int-valued Fraction
    mixed = Multivector(F3, {0: Fraction(3, 5), 0b11: Fraction(4, 5), 0b101: 0})
    assert is_in_spin(mixed) == SpinCertificate(True)
    rot = covering_map(SpinElement(mixed))
    assert rot.entries == _conjugation_matrix(mixed).entries
    assert rot.entries[0][:2] == (Fraction(-7, 25), Fraction(-24, 25))


def test_rotation_matrices_and_phases_are_exact():
    with pytest.raises(TypeError, match="Fraction"):
        RotationMatrix(((0.6, -0.8), (0.8, 0.6)))
    u = SpinElement(blade(1, 2))
    for phase in (1j, complex(0.6, 0.8), -1.0):
        with pytest.raises(TypeError, match="Fraction"):
            spinc_canonicalize(u, phase)
        with pytest.raises(TypeError, match="Fraction"):
            SpinCElement(u, phase)
    assert spinc_canonicalize(u, -1).phase == GaussianRational(1)


def test_rotation_matrix_path_rejects_images_that_are_not_real_vectors():
    x = Multivector(F6, {0: Fraction(3, 5), 0b111111: Fraction(4, 5)})
    assert spin_norm(x) == 1
    with pytest.raises(NotScalarNormError, match="not a vector"):
        _conjugation_matrix(x)
    # N(2 + i e12) = 3, and x e_1 alpha(x)^-1 = (5 e1 + 4i e2) / 3; the
    # integer path takes real even elements only
    y = Multivector(QuadraticForm.euclidean(2), {0: 2, 0b11: GaussianRational(0, 1)})
    assert spin_norm(y) == 3
    with pytest.raises(ValueError, match="coefficients are not real"):
        _conjugation_matrix(y)


@pytest.mark.parametrize("signs, rows, special_orthogonal", [
    ((1, 1), ((Fraction(3, 5), Fraction(-4, 5)), (Fraction(4, 5), Fraction(3, 5))), True),
    ((1, 1), ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1))), False),
    ((1, 1), ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1, 2))), False),
    ((1, -1), ((Fraction(5, 4), Fraction(3, 4)), (Fraction(3, 4), Fraction(5, 4))), True),
    ((1, 1), ((Fraction(5, 4), Fraction(3, 4)), (Fraction(3, 4), Fraction(5, 4))), False),
])
def test_exact_special_orthogonal_check(signs, rows, special_orthogonal):
    rot = RotationMatrix(rows)
    assert rot.is_special_orthogonal(QuadraticForm(2, signs)) is special_orthogonal


def test_spin_elements_are_even():
    rng = np.random.default_rng(4)
    for _ in range(5):
        u = random_spin_element(rng, F4, pairs=2)
        _, odd = u.value.grade_decompose()
        assert odd.is_zero()


def test_covering_map_examples():
    assert covering_map(SpinElement(Multivector.scalar(F4, 1))).to_numpy().tolist() \
        == np.eye(4).tolist()
    u = SpinElement(blade(1, 2))
    rot = covering_map(u)
    assert rot.to_numpy().tolist() == np.diag([-1.0, -1.0, 1.0, 1.0]).tolist()
    assert covering_map(-u).entries == rot.entries


def test_covering_map_quarter_turn():
    u = lift_rotation(1, 2, math.pi / 2, F4)
    m = covering_map(u).to_numpy()
    expected = np.eye(4)
    expected[0, 0] = expected[1, 1] = 0.0
    expected[1, 0], expected[0, 1] = 1.0, -1.0
    assert np.max(np.abs(m - expected)) < 1e-12


def test_lift_rotation_two_sheets():
    one = Multivector.scalar(F4, 1)
    assert lift_rotation(1, 2, 0.0, F4).value == one
    full = lift_rotation(1, 2, 2 * math.pi, F4)
    assert full.value == -one
    assert covering_map(full).entries == covering_map(SpinElement(one)).entries
    assert lift_rotation(1, 2, math.pi, F4).value == blade(1, 2)
    theta = 1.37
    # theta + 2 pi is rounded, so the two lifts agree up to the float angle
    turned = lift_rotation(1, 2, theta + 2 * math.pi, F4).value
    negated = -lift_rotation(1, 2, theta, F4).value
    assert max(abs(float((turned - negated).coefficient(m).re)) for m in (0, 0b11)) <= 2e-15


@pytest.mark.parametrize("k", range(-3, 4))
def test_lift_rotation_is_exact_at_multiples_of_pi(k):
    """lift(k pi) = (e1 e2)^k, and e2 e1 = -e1 e2 gives lift(2, 1) its sign."""
    power = Multivector.scalar(F4, 1)
    for _ in range(k % 4):
        power = power * blade(1, 2)
    assert lift_rotation(1, 2, k * math.pi, F4).value == power
    assert lift_rotation(2, 1, k * math.pi, F4).value == (-1) ** (k % 2) * power


@given(st.floats(-4 * math.pi, 4 * math.pi), st.sampled_from([3, 4]), st.data())
@settings(max_examples=150, deadline=None)
def test_lift_rotation_covers_exactly_and_near_the_float_rotation(theta, n, data):
    form = QuadraticForm.euclidean(n)
    i, j = data.draw(st.permutations(range(1, n + 1)))[:2]
    u = lift_rotation(i, j, theta, form)
    assert spin_norm(u.value) == 1
    rot = covering_map(u)
    assert all(type(e) is Fraction for row in rot.entries for e in row)
    assert rot.is_special_orthogonal(form)
    want = np.eye(n)
    a, b = i - 1, j - 1
    want[a, a] = want[b, b] = math.cos(theta)
    want[b, a], want[a, b] = math.sin(theta), -math.sin(theta)
    assert np.max(np.abs(rot.to_numpy() - want)) <= 2e-15


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_lift_rotation_refuses_a_non_finite_angle(theta):
    with pytest.raises(ValueError, match="theta must be finite"):
        lift_rotation(1, 2, theta, F4)


def test_lift_rotation_orientation_convention():
    theta = 0.7
    m = covering_map(lift_rotation(1, 2, theta, F4)).to_numpy()
    assert abs(m[0, 0] - math.cos(theta)) < 1e-12
    assert abs(m[1, 0] - math.sin(theta)) < 1e-12


def test_covering_map_is_homomorphism_exact():
    rng = np.random.default_rng(8)
    for dim in (3, 4, 5):
        form = QuadraticForm.euclidean(dim)
        a = random_spin_element(rng, form, pairs=1)
        b = random_spin_element(rng, form, pairs=2)
        ra, rb = covering_map(a), covering_map(b)
        product = tuple(tuple(sum(ra.entries[i][k] * rb.entries[k][j]
                                  for k in range(dim)) for j in range(dim))
                        for i in range(dim))
        assert covering_map(a * b).entries == product


def test_kernel_is_exactly_plus_minus_one():
    rng = np.random.default_rng(9)
    f3 = QuadraticForm.euclidean(3)
    elements = [random_spin_element(rng, f3, pairs=p) for p in (1, 2, 3, 1, 2)]
    for i, u in enumerate(elements):
        assert _conjugation_matrix(-u.value).entries == covering_map(u).entries
        for j, w in enumerate(elements):
            if covering_map(u).entries == covering_map(w).entries and i != j:
                assert w.value in (u.value, -u.value)


def test_negated_float_element_keeps_its_cover():
    """An element lifted from float angles: its negation keeps the exact cover."""
    u = (lift_rotation(1, 2, 0.3, F4) * lift_rotation(2, 3, 1.1, F4)
         * lift_rotation(3, 4, -0.7, F4))
    neg = -u
    assert neg.value == -u.value
    assert covering_map(neg).entries == _conjugation_matrix(-u.value).entries
    assert covering_map(neg).entries == covering_map(u).entries


def _conjugation_matrix_by_products(x):
    """Columns x e_i alpha(x)^-1 from full multivector products;
    NotScalarNormError when N(x) is not scalar or an image is not a real
    vector."""
    form = x.form
    alpha_inv = x.reversal() * (1 / spin_norm(x))
    cols = []
    for i in range(1, form.dim + 1):
        image = x * Multivector.basis_vector(form, i) * alpha_inv
        vector = image.grade_part(1)
        if image != vector or any(c.im for c in vector.vector_coords()):
            raise NotScalarNormError("image is not a real vector")
        cols.append([Fraction(c.re) for c in vector.vector_coords()])
    return tuple(tuple(col[r] for col in cols) for r in range(form.dim))


def _certify_by_products(x):
    """The Spin certificate and matrix of exact x from full products, with
    M^T Q M = Q on Fractions and det M by the Leibniz formula."""
    if any(bin(m).count("1") % 2 for m in x.terms()):
        return SpinCertificate(False, "element has an odd component"), None
    if any(v.im for v in x.terms().values()):
        return SpinCertificate(False, "coefficients are not real"), None
    try:
        norm = spin_norm(x)
    except NotScalarNormError:
        return SpinCertificate(False, "norm is not scalar"), None
    if norm != 1:
        return SpinCertificate(False, f"norm is {norm}, not 1"), None
    try:
        m = _conjugation_matrix_by_products(x)
    except NotScalarNormError:
        return SpinCertificate(False, "twisted conjugation leaves the vector space"), None
    n, q = x.form.dim, x.form.signs
    gram = [[sum(q[r] * m[r][i] * m[r][j] for r in range(n)) for j in range(n)]
            for i in range(n)]
    det = 0
    for p in permutations(range(n)):
        inversions = sum(p[a] > p[b] for a in range(n) for b in range(a + 1, n))
        det += (-1) ** inversions * math.prod(m[r][p[r]] for r in range(n))
    if gram != [[q[i] if i == j else 0 for j in range(n)] for i in range(n)] or det != 1:
        return SpinCertificate(False, "image is not special orthogonal"), None
    return SpinCertificate(True), m


def _random_clifford_element(rng, form, vectors=4):
    """Product of random integer vectors with nonzero q: in the Clifford
    group of any signature, with a norm that is rarely 1 (odd for an odd
    number of vectors)."""
    x = Multivector.scalar(form, 1)
    while vectors:
        coords = [int(c) for c in rng.integers(-3, 4, form.dim)]
        if form.value(coords) != 0:
            x = x * Multivector.vector(form, coords)
            vectors -= 1
    return x


def _unit_vector(rng, form):
    """A rational vector with q(v) = q(e_j) = +-1: e_j reflected in a random
    integer w with q(w) != 0, v = e_j - 2 B(e_j, w) / q(w) w.  In signature
    (1, -1), e_1 and w = (1, 3) give (5/4, 3/4)."""
    j = int(rng.integers(form.dim))
    while True:
        w = [int(c) for c in rng.integers(-3, 4, form.dim)]
        if form.value(w):
            break
    f = Fraction(2 * form.signs[j] * w[j], form.value(w))
    return [int(i == j) - f * c for i, c in enumerate(w)]


def _indefinite_versors(rng, n, count):
    """Products of two or four vectors with q(v) = +-1 in signatures with
    both signs, kept when N(x) = 1: Spin elements of indefinite forms."""
    found = []
    while len(found) < count:
        signs = (1, -1) + tuple(int(s) for s in rng.choice((1, -1), n - 2))
        form = QuadraticForm(n, tuple(int(s) for s in rng.permutation(signs)))
        x = Multivector.scalar(form, 1)
        for _ in range(2 * int(rng.integers(1, 3))):
            x = x * Multivector.vector(form, _unit_vector(rng, form))
        if spin_norm(x) == 1:
            found.append(x)
    return found


def _pseudoscalar_rotor(n):
    """3/5 + 4/5 e123456 in Cl_n, n >= 6: even, real and N = 1, but e1's
    image has an e1 e123456 part, so not a versor."""
    return Multivector(QuadraticForm.euclidean(n), {0: Fraction(3, 5), 0b111111: Fraction(4, 5)})


def _random_even_element(rng, form, count):
    """``count`` random rational terms on even blades: its norm is not
    scalar for most draws once n >= 4."""
    blades = [m for m in range(1 << form.dim) if m.bit_count() % 2 == 0]
    chosen = rng.choice(blades, size=min(count, len(blades)), replace=False)
    return Multivector(form, {int(m): Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 4)))
                              for m in chosen})


def _compare_with_products(x):
    want_cert, want_matrix = _certify_by_products(x)
    cert, matrix = _certify(x)
    assert cert == want_cert
    assert (matrix.entries if matrix else None) == want_matrix
    # the phase element and the odd one: the integer path takes real
    # even elements only
    if want_cert.reason in ("element has an odd component", "coefficients are not real"):
        with pytest.raises(ValueError, match=want_cert.reason):
            _conjugation_matrix(x)
        return want_cert.reason
    _compare_matrix_with_products(x)
    return want_cert.reason


def _compare_matrix_with_products(x):
    try:
        expected = _conjugation_matrix_by_products(x)
    except NotScalarNormError:
        with pytest.raises(NotScalarNormError):
            _conjugation_matrix(x)
    except ZeroDivisionError:
        with pytest.raises(NotInvertibleError):
            _conjugation_matrix(x)
    else:
        entries = _conjugation_matrix(x).entries
        assert entries == expected
        assert all(type(e) is Fraction for row in entries for e in row)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_conjugation_matrix_matches_full_products(n):
    rng = np.random.default_rng(40 + n)
    form = QuadraticForm.euclidean(n)
    phase = Multivector.scalar(form, GaussianRational(Fraction(3, 5), Fraction(4, 5)))
    exact = [random_spin_element(rng, form, pairs=p).value for p in (1, 2, 3)]
    exact += [phase * exact[0], 2 * exact[1]]
    for _ in range(3):
        signs = tuple(int(s) for s in rng.choice((1, -1), n))
        exact.append(_random_clifford_element(rng, QuadraticForm(n, signs)))
    lifts = []
    for _ in range(4):
        u = lift_rotation(1, 2, float(rng.uniform(-3, 3)), form)
        for _ in range(3):
            i, j = (int(k) for k in rng.choice(n, 2, replace=False) + 1)
            u = u * lift_rotation(i, j, float(rng.uniform(-3, 3)), form)
        lifts.append(u.value)
    exact += lifts
    exact.append(phase * lifts[0])
    # the dyadic rationals nearest an exact element: N(x) is off by an ulp,
    # and for n >= 4 not even scalar
    exact.append(Multivector(form, {m: Fraction(float(v.re))
                                    for m, v in exact[1].terms().items()}))
    # an odd element, where rev and rev alpha differ
    signs = tuple(int(s) for s in rng.choice((1, -1), n))
    exact.append(_random_clifford_element(rng, QuadraticForm(n, signs), vectors=3))
    for count in (2, 4, 8):
        signs = tuple(int(s) for s in rng.choice((1, -1), n))
        exact.append(_random_even_element(rng, QuadraticForm(n, signs), count))
    # the oracle certifies every one of these, with its own SO(q) check: the
    # reason "image is not special orthogonal" stays unreachable beyond the
    # Euclidean forms (module docstring of spin_groups)
    versors = _indefinite_versors(rng, n, 4)
    assert all(_certify_by_products(x)[0].ok for x in versors)
    exact += versors + [2 * versors[0]]
    if n >= 6:
        exact.append(_pseudoscalar_rotor(n))
    reasons = {_compare_with_products(x) for x in exact}
    assert {None, "element has an odd component", "coefficients are not real"} <= reasons
    assert any(r and r.startswith("norm is ") and r.endswith(", not 1") for r in reasons)
    if n >= 4:
        assert "norm is not scalar" in reasons
    if n >= 6:
        assert "twisted conjugation leaves the vector space" in reasons


def test_conjugation_matrix_matches_full_products_at_n8():
    """At n = 8 the oracle's Leibniz determinant is out of reach: the
    matrices, and the typed errors of the refusals, from full products."""
    rng = np.random.default_rng(48)
    form = QuadraticForm.euclidean(8)
    exact = [random_spin_element(rng, form, pairs=p).value for p in (1, 2)]
    exact += [2 * exact[0], _pseudoscalar_rotor(8), _random_even_element(rng, form, 6)]
    exact += _indefinite_versors(rng, 8, 2)
    for x in exact:
        _compare_matrix_with_products(x)
    assert _certify(exact[0])[0].ok
    assert _certify(exact[3])[0] == SpinCertificate(
        False, "twisted conjugation leaves the vector space")


def test_a_refused_norm_takes_no_column_loop(monkeypatch):
    """The columns are read only after the norm has passed."""
    def refuse(terms, form):
        raise AssertionError("column loop taken")

    monkeypatch.setattr(spin_groups, "_image_pairs", refuse)
    assert not is_in_spin(2 * blade(1, 2)).ok
    assert not is_in_spin(Multivector.scalar(F4, 1) + blade(1, 2) + blade(3, 4)).ok


@st.composite
def _even_integer_elements(draw):
    """A real even integer blade map X in Cl(p, q), n <= 6, up to every
    even blade."""
    n = draw(st.integers(0, 6))
    form = QuadraticForm(n, tuple(draw(st.lists(st.sampled_from((1, -1)),
                                                min_size=n, max_size=n))))
    blades = [m for m in range(1 << n) if m.bit_count() % 2 == 0]
    terms = draw(st.dictionaries(st.sampled_from(blades), st.integers(-10 ** 6, 10 ** 6),
                                 max_size=len(blades)))
    return Multivector(form, terms)


@settings(max_examples=150, deadline=None)
@given(_even_integer_elements())
def test_pair_loops_match_the_full_products(x):
    """The two loops over X's term pairs give the full products: s0 and the
    other entries of rev(X) X, and every entry of each X e_i rev(X) (module
    docstring of spin_groups)."""
    form, re = x.form, x._re
    pos = form.positive_mask
    terms = _pair_terms(x)
    s0, rest = _norm_pairs(terms)
    norm, _ = _gaussian_product((_reversed(re), {}), (re, {}), pos)
    assert s0 == norm.get(0, 0)
    assert _nonzero(rest) == {m: v for m, v in norm.items() if m}
    image = _image_pairs(terms, form)
    blades = (1 << MAX_DIM) - 1
    images = []
    for i in range(form.dim):
        x_ei = (x * Multivector.basis_vector(form, i + 1))._re
        full, _ = _gaussian_product((x_ei, {}), (_reversed(re), {}), pos)
        assert _nonzero({key & blades: v for key, v in image.items()
                         if key >> MAX_DIM == 1 << i}) == full
        images.append(full)
    cols = _vector_columns(image, form.dim)
    if any(m.bit_count() != 1 for full in images for m in full):
        assert cols is None
    else:
        assert cols == [[full.get(1 << r, 0) for r in range(form.dim)] for full in images]


def test_rotation_matrix_exactness():
    rng = np.random.default_rng(10)
    f5 = QuadraticForm.euclidean(5)
    for _ in range(10):
        u = random_spin_element(rng, f5, pairs=2)
        rot = covering_map(u)
        assert all(type(e) is Fraction for row in rot.entries for e in row)
        assert rot.is_special_orthogonal(f5)
        assert rot.determinant() == 1


def test_covering_map_of_integral_element_is_exact():
    e3 = QuadraticForm.euclidean(3)
    e12 = Multivector.basis_vector(e3, 1) * Multivector.basis_vector(e3, 2)
    rot = covering_map(SpinElement(e12))
    assert all(type(e) is Fraction for row in rot.entries for e in row)
    assert rot.to_json() == {"dim": 3, "rows": [["-1", "0", "0"], ["0", "-1", "0"],
                                                ["0", "0", "1"]]}


def test_rational_unit_vectors():
    rng = np.random.default_rng(11)
    for dim in (1, 2, 3, 4, 5):
        v = rational_unit_vector(rng, dim)
        assert sum(x * x for x in v) == 1
        assert all(isinstance(x, Fraction) for x in v)


def test_spinc_canonicalization():
    u = SpinElement(blade(1, 2))
    z = GaussianRational(0, 1)
    assert spinc_canonicalize(u, z) == spinc_canonicalize(-u, -z)
    one = SpinElement(Multivector.scalar(F4, 1))
    sc = spinc_canonicalize(one, GaussianRational(1))
    assert sc.phase == GaussianRational(1)
    flipped = spinc_canonicalize(one, GaussianRational(-1))
    assert flipped.phase == GaussianRational(1)
    assert flipped.spin.value == -Multivector.scalar(F4, 1)


def test_spinc_multiplication_well_defined():
    u = SpinElement(blade(1, 2))
    z = GaussianRational(0, 1)
    a = spinc_canonicalize(u, z)
    b = spinc_canonicalize(-u, -z)
    prod = a * b
    assert prod == a * a
    assert prod.spin.value == Multivector.scalar(F4, 1)
    assert prod.phase == GaussianRational(1)
    # Pythagorean phase stays exact
    p = GaussianRational(Fraction(3, 5), Fraction(4, 5))
    sc = spinc_canonicalize(u, p)
    assert isinstance(sc.phase, GaussianRational)


def test_spinc_rejects_non_unit_phase():
    u = SpinElement(blade(1, 2))
    with pytest.raises(ValueError):
        spinc_canonicalize(u, GaussianRational(2))


def test_spinc_product_independent_of_representatives():
    u = SpinElement(blade(1, 2))
    w = SpinElement(blade(2, 3))
    z1 = GaussianRational(Fraction(3, 5), Fraction(4, 5))
    z2 = GaussianRational(Fraction(5, 13), Fraction(-12, 13))
    reference = spinc_canonicalize(u, z1) * spinc_canonicalize(w, z2)
    for su, sw in [(1, -1), (-1, 1), (-1, -1)]:
        a = spinc_canonicalize(SpinElement(su * u.value), su * z1)
        b = spinc_canonicalize(SpinElement(sw * w.value), sw * z2)
        assert a * b == reference


def test_rotation_matrix_json():
    u = SpinElement(blade(1, 2))
    data = covering_map(u).to_json()
    assert data["dim"] == 4
    assert data["rows"][0][0] == "-1"


def test_spin_element_json_round_trip():
    u = SpinElement(blade(1, 2))
    assert SpinElement.from_json(u.to_json()).value == u.value
