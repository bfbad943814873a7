import itertools

import numpy as np
import pytest

from spindex import spinors, symbols
from spindex.symbols import (OperatorSpec, SymbolClass,
                             abs_class, abs_group, dalembertian_operator,
                             dirac_operator, is_elliptic, laplacian_operator,
                             principal_symbol, thom_class_complex,
                             winding_number)


def test_laplacian_symbol():
    sym = principal_symbol(laplacian_operator(3))
    xi = (0.4, -1.1, 2.0)
    assert np.allclose(sym.evaluate(xi), sum(x * x for x in xi) * np.eye(1))


def test_dalembertian_symbol_sign():
    sym = principal_symbol(dalembertian_operator(2))
    tau, s1, s2 = 0.9, 0.3, -0.5
    value = sym.evaluate((tau, s1, s2))[0, 0]
    assert np.isclose(value, -(tau ** 2 - s1 ** 2 - s2 ** 2))


def test_dirac_symbol_is_clifford_multiplication():
    sym = principal_symbol(dirac_operator(2))
    gammas = spinors.gamma_matrices(2)
    xi = (0.8, -0.6)
    expected = 1j * (xi[0] * gammas[0] + xi[1] * gammas[1])
    assert np.allclose(sym.evaluate(xi), expected)
    squared = sym.evaluate(xi) @ sym.evaluate(xi)
    assert np.allclose(squared, np.eye(2))   # |xi| = 1


def test_principal_symbol_drops_lower_order():
    op = OperatorSpec(1, 2, (((2,), np.array([[1.0]])),
                             ((1,), np.array([[5.0]])),
                             ((0,), np.array([[7.0]]))))
    sym = principal_symbol(op)
    assert list(sym.terms) == [(2,)]


def test_operator_spec_validation():
    with pytest.raises(ValueError):
        OperatorSpec(2, 1, ())
    with pytest.raises(ValueError):
        OperatorSpec(2, 1, (((1,), np.eye(2)),))
    with pytest.raises(ValueError):
        OperatorSpec(1, 1, (((2,), np.eye(2)),))


def test_symbol_homogeneity():
    rng = np.random.default_rng(0)
    sym = principal_symbol(dalembertian_operator(2))
    for _ in range(10):
        xi = rng.normal(size=3)
        t = float(rng.normal())
        assert np.allclose(sym.evaluate(t * xi), t ** 2 * sym.evaluate(xi))
    dir_sym = principal_symbol(dirac_operator(2))
    xi = rng.normal(size=2)
    assert np.allclose(dir_sym.evaluate(2.5 * xi), 2.5 * dir_sym.evaluate(xi))


def test_ellipticity_three_canonical_cases():
    assert is_elliptic(principal_symbol(laplacian_operator(2))).elliptic
    report = is_elliptic(principal_symbol(dalembertian_operator(1)))
    assert not report.elliptic
    assert report.witness_exact is not None
    tau, x = report.witness_exact
    assert tau * tau == x * x   # on the light cone
    assert is_elliptic(principal_symbol(dirac_operator(2))).elliptic


def test_ellipticity_witness_higher_dimension():
    report = is_elliptic(principal_symbol(dalembertian_operator(3)))
    assert not report.elliptic
    tau, *space = report.witness_exact
    assert tau * tau == sum(x * x for x in space)


@pytest.mark.parametrize("terms", [
    (((1, 0), [[1, 0]]), ((0, 1), [[0, 1]])),          # 1 x 2 gradient
    (((1, 0), [[1], [0]]), ((0, 1), [[0], [2]])),      # 2 x 1
])
def test_non_square_symbol_is_not_elliptic(terms, monkeypatch):
    sym = principal_symbol(OperatorSpec(2, 1, terms))

    def no_sampling(self, xis):
        raise AssertionError("a non-square symbol needs no sampling")

    monkeypatch.setattr(symbols.SymbolPolynomial, "evaluate_many", no_sampling)
    assert is_elliptic(sym) == symbols.EllipticityReport(
        elliptic=False, min_singular=0.0, scale=0.0, samples=0, evaluations=0,
        minimum_round=0, witness=(1.0, 0.0), witness_exact=(1, 0))


def _evaluate_loop(sym, xi):
    """Scalar evaluation, one covector at a time: the reference for evaluate_many."""
    out = np.zeros(sym.shape, dtype=complex)
    z = [1j * x for x in xi]
    for alpha, a in sym.terms.items():
        factor = 1.0 + 0.0j
        for zj, k in zip(z, alpha):
            factor *= zj ** k
        out += factor * a
    return out


def test_evaluate_many_matches_pointwise_loop_bitwise():
    rng = np.random.default_rng(7)
    for n in range(1, 6):
        for order in (1, 2, 3):
            alphas = [a for a in itertools.product(range(order + 1), repeat=n)
                      if sum(a) == order][:5]
            op = OperatorSpec(n, order, tuple(
                (a, rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)))
                for a in alphas))
            sym = principal_symbol(op)
            xis = rng.normal(size=(40, n))
            xis[::6] = 0.0
            stack = sym.evaluate_many(xis)
            assert stack.shape == (40, 3, 2)
            loop = np.array([_evaluate_loop(sym, xi) for xi in xis])
            assert stack.tobytes() == loop.tobytes()
            assert sym.evaluate(xis[1]).tobytes() == stack[1].tobytes()
    with pytest.raises(ValueError):
        sym.evaluate_many(np.zeros((3, n + 1)))
    with pytest.raises(ValueError):
        sym.evaluate((1.0,) * (n + 1))


def _evaluate_many_by_terms(sym, xis):
    """One numpy call per term and coordinate: the reference for the stacked
    evaluate_many (the same operations in the same order)."""
    out = np.zeros((len(xis),) + tuple(sym.shape), dtype=complex)
    z = 1j * xis
    for alpha, a in sym.terms.items():
        factor = np.ones(len(xis), dtype=complex)
        for zj, k in zip(z.T, alpha):
            factor *= zj ** k
        out += factor[:, None, None] * a
    return out


@pytest.mark.parametrize("dim", range(2, 7))
def test_evaluate_many_matches_the_term_loop_bitwise(dim):
    rng = np.random.default_rng(dim)
    eye = np.eye(dim)
    xis = np.concatenate([symbols._sphere_points(dim, min(4 ** dim, symbols.MAX_SPHERE_POINTS)),
                          eye, -eye, rng.normal(size=(50, dim)), np.zeros((1, dim))])
    ops = [laplacian_operator(dim), dalembertian_operator(dim - 1)]
    if dim % 2 == 0:
        ops.append(dirac_operator(dim))
    for op in ops:
        sym = principal_symbol(op)
        assert sym.evaluate_many(xis).tobytes() == _evaluate_many_by_terms(sym, xis).tobytes()


def test_evaluate_many_without_top_order_terms_is_zero():
    sym = principal_symbol(OperatorSpec(2, 2, (((1, 0), np.eye(2)),)))
    assert sym.terms == {}
    assert np.array_equal(sym.evaluate_many(np.ones((3, 2))), np.zeros((3, 2, 2)))


def _halton_scalar(index, base):
    f, r = 1.0, 0.0
    while index > 0:
        f /= base
        r += f * (index % base)
        index //= base
    return r


def _sphere_points_loop(n, count):
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    pts, idx = [], 1
    while len(pts) < count:
        v = np.array([2.0 * _halton_scalar(idx, primes[j % len(primes)]) - 1.0
                      for j in range(n)])
        idx += 1
        norm = np.linalg.norm(v)
        if norm > 1e-3:
            pts.append(v / norm)
    return np.array(pts)


@pytest.mark.parametrize("n", range(1, 9))
def test_sphere_points_match_scalar_halton_bitwise(n):
    for count in (16, 24, 256, 4096):
        pts = symbols._sphere_points(n, count)
        assert pts.shape == (count, n)
        assert pts.tobytes() == _sphere_points_loop(n, count).tobytes()


# Reports of the symbols that the benchmark, the acceptance suite and the CLI
# test; every field but evaluations and minimum_round is the value of the
# probe-by-probe implementation this one replaced.  The floats are those of
# numpy 2.4 with OpenBLAS 0.3.31 on x86-64; another LAPACK build may round
# the SVDs differently and move the last digits and the refinement path.
_GOLDEN_REPORTS = {
    "laplacian-2": (laplacian_operator(2), dict(
        elliptic=True, min_singular=0.9999999999999996, scale=1.0000000000000002,
        samples=20, evaluations=1501, minimum_round=28)),
    "laplacian-3": (laplacian_operator(3), dict(
        elliptic=True, min_singular=0.9999999999999996, scale=1.0000000000000002,
        samples=70, evaluations=1521, minimum_round=4)),
    "laplacian-4": (laplacian_operator(4), dict(
        elliptic=True, min_singular=0.9999999999999996, scale=1.0000000000000004,
        samples=264, evaluations=1706, minimum_round=4)),
    "dalembertian-2": (dalembertian_operator(1), dict(
        elliptic=False, min_singular=2.999633874622987e-11, scale=1.0,
        samples=20, evaluations=1710, minimum_round=59,
        witness=(-0.7071067811865475, -0.7071067811865475), witness_exact=(-1, -1))),
    "dalembertian-3": (dalembertian_operator(2), dict(
        elliptic=False, min_singular=7.939135460155455e-13, scale=1.0,
        samples=70, evaluations=1616, minimum_round=59,
        witness=(-0.7071067811865475, -0.7071067811865475, 0.0),
        witness_exact=(-1, -1, 0))),
    "dalembertian-4": (dalembertian_operator(3), dict(
        elliptic=False, min_singular=2.687906841547516e-09, scale=1.0,
        samples=264, evaluations=2102, minimum_round=60,
        witness=(-0.7071067811865475, -0.7071067811865475, 0.0, 0.0),
        witness_exact=(-1, -1, 0, 0))),
    "dirac-2": (dirac_operator(2), dict(
        elliptic=True, min_singular=0.9999999999999998, scale=1.0000000000000002,
        samples=20, evaluations=1472, minimum_round=11)),
    "dirac-4": (dirac_operator(4), dict(
        elliptic=True, min_singular=0.9999999999999993, scale=1.0000000000000007,
        samples=264, evaluations=1704, minimum_round=0)),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_REPORTS))
def test_ellipticity_reports_golden(name):
    operator, fields = _GOLDEN_REPORTS[name]
    report = is_elliptic(principal_symbol(operator))
    assert report == symbols.EllipticityReport(**fields)


# -- difference-bundle classes ---------------------------------------------------

def test_abs_class_of_spinor_module():
    sc = abs_class(spinors.spinor_module(2))
    assert (sc.rank_plus, sc.rank_minus) == (1, 1)
    m = sc.clutching((1.0, 0.0))
    assert m.shape == (1, 1) and abs(m[0, 0]) == 1.0


def test_abs_class_empty_module():
    zero = spinors.CliffordModule(
        2, tuple(np.zeros((0, 0), dtype=complex) for _ in range(2)),
        np.zeros((0, 0), dtype=complex))
    sc = abs_class(zero)
    assert sc.rank_plus == 0
    assert winding_number(sc) == 0


def test_abs_class_direct_sum_block_structure():
    s2 = spinors.spinor_module(2)
    sc = abs_class(spinors.direct_sum(s2, s2))
    m = sc.clutching((0.6, 0.8))
    assert m.shape == (2, 2)
    svals = np.linalg.svd(m, compute_uv=False)
    assert np.allclose(svals, 1.0)


def test_clutching_norm_matches_vector_norm():
    sc = abs_class(spinors.spinor_module(4))
    rng = np.random.default_rng(1)
    for _ in range(5):
        v = rng.normal(size=4)
        svals = np.linalg.svd(sc.clutching(v), compute_uv=False)
        assert np.allclose(svals, np.linalg.norm(v))


def test_winding_numbers():
    s2 = spinors.spinor_module(2)
    w = winding_number(abs_class(s2))
    assert w in (1, -1)
    assert winding_number(abs_class(spinors.flip_grading(s2))) == -w
    assert winding_number(abs_class(spinors.direct_sum(s2, s2))) == 2 * w
    # clutchings from coefficient matrices: v0 + i v1 winds once, and
    # diag(v0 + i v1, v0 - i v1) has determinant 1 on the circle
    assert winding_number(SymbolClass([[[1]], [[1j]]])) == 1
    assert winding_number(SymbolClass([[[1]], [[-1j]]])) == -1
    balanced = SymbolClass([np.eye(2), np.diag([1j, -1j])])
    assert (balanced.k, balanced.rank_minus, balanced.rank_plus) == (2, 2, 2)
    assert winding_number(balanced) == 0


def test_winding_requires_circle():
    with pytest.raises(ValueError):
        winding_number(abs_class(spinors.spinor_module(4)))


def test_winding_additivity_random_mixtures():
    s2 = spinors.spinor_module(2)
    f2 = spinors.flip_grading(s2)
    w = winding_number(abs_class(s2))
    for mp, mm in itertools.product(range(3), repeat=2):
        if mp + mm == 0:
            continue
        pieces = [s2] * mp + [f2] * mm
        module = pieces[0]
        for piece in pieces[1:]:
            module = spinors.direct_sum(module, piece)
        assert winding_number(abs_class(module)) == (mp - mm) * w


def test_symbol_class_rejects_singular_clutching():
    with pytest.raises(ValueError):
        SymbolClass([[[1]], [[0]]])       # v -> v0 vanishes at (0, 1)
    with pytest.raises(ValueError):
        SymbolClass(np.zeros((2, 1, 2)))  # unequal ranks
    with pytest.raises(ValueError):
        SymbolClass(np.eye(2))            # not a stack of matrices
    with pytest.raises(ValueError):
        SymbolClass([[[1]], [[1j]]]).clutching((1.0, 0.0, 0.0))


# -- periodicity --------------------------------------------------------------

@pytest.mark.parametrize("k", range(0, 7))
def test_abs_group_parity(k):
    group = abs_group(k)
    assert group.group == ("Z" if k % 2 == 0 else "0")
    if group.group == "Z":
        assert group.generator is not None
    else:
        assert group.generator is None


def test_abs_group_generator_k4():
    group = abs_group(4)
    assert group.generator.dim == spinors.spinor_module(4).dim
    dec = spinors.decompose_module(group.generator, graded=True)
    assert sorted(dec.multiplicities.values()) == [0, 1]


def test_extension_criterion_matches_bookkeeping():
    """Winding vanishes exactly for classes restricted from one dimension up
    (graded modules of dimension <= 8)."""
    s2 = spinors.spinor_module(2)
    f2 = spinors.flip_grading(s2)
    for mp, mm in itertools.product(range(3), repeat=2):
        if not 0 < (mp + mm) * 2 <= 8:
            continue
        pieces = [s2] * mp + [f2] * mm
        module = pieces[0]
        for piece in pieces[1:]:
            module = spinors.direct_sum(module, piece)
        w = winding_number(abs_class(module))
        # restrictions from dimension 3 are exactly the balanced classes
        assert (w == 0) == (mp == mm)
    restricted = spinors.restrict_module(spinors.spinor_module(3))
    assert winding_number(abs_class(restricted)) == 0


# -- the exterior-algebra model ---------------------------------------------------

def test_thom_class_rank_one():
    sc = thom_class_complex(1)
    v = (0.3, 0.4)
    m = sc.clutching(v)
    assert m.shape == (1, 1)
    assert np.isclose(m[0, 0], complex(0.3, 0.4))   # multiplication by v
    assert winding_number(sc) == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exterior_clifford_squares_to_minus_norm(n):
    rng = np.random.default_rng(n)
    for _ in range(4):
        v = rng.normal(size=2 * n)
        cl = np.tensordot(v, symbols._exterior_coefficients(n), axes=1)
        assert np.allclose(cl @ cl, -float(v @ v) * np.eye(1 << n))


def test_thom_matches_spinor_class_up_to_sign():
    w_thom = winding_number(thom_class_complex(1))
    w_abs = winding_number(abs_class(spinors.spinor_module(2)))
    assert abs(w_thom) == abs(w_abs) == 1
