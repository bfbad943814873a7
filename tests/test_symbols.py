import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    # is_elliptic would fail inside numpy on either: no sphere to sample,
    # or an SVD that does not converge
    with pytest.raises(ValueError, match="base dimension"):
        OperatorSpec(0, 0, (((), np.eye(2)),))
    for bad in (np.nan, np.inf, -np.inf, complex(1.0, np.nan)):
        a = np.eye(2, dtype=complex)
        a[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            OperatorSpec(2, 1, (((1, 0), np.eye(2)), ((0, 1), a)))


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
# test.  Every field but evaluations is the value of the one-round-per-batch
# loop below, and so of the probe-by-probe implementation before it;
# evaluations also counts the probes of rounds that a batch ran ahead of the
# path.  The floats are those of numpy 2.4 with OpenBLAS 0.3.31 on x86-64;
# another LAPACK build may round the SVDs differently and move the last
# digits and the refinement path.
_GOLDEN_REPORTS = {
    "laplacian-2": (laplacian_operator(2), dict(
        elliptic=True, min_singular=0.9999999999999996, scale=1.0000000000000002,
        samples=20, evaluations=2269, minimum_round=28)),
    "laplacian-3": (laplacian_operator(3), dict(
        elliptic=True, min_singular=0.9999999999999996, scale=1.0000000000000002,
        samples=70, evaluations=1689, minimum_round=4)),
    "laplacian-4": (laplacian_operator(4), dict(
        elliptic=True, min_singular=0.9999999999999996, scale=1.0000000000000004,
        samples=264, evaluations=1874, minimum_round=4)),
    "dalembertian-2": (dalembertian_operator(1), dict(
        elliptic=False, min_singular=2.999633874622987e-11, scale=1.0,
        samples=20, evaluations=2526, minimum_round=59,
        witness=(-0.7071067811865475, -0.7071067811865475), witness_exact=(-1, -1))),
    "dalembertian-3": (dalembertian_operator(2), dict(
        elliptic=False, min_singular=7.939135460155455e-13, scale=1.0,
        samples=70, evaluations=2192, minimum_round=59,
        witness=(-0.7071067811865475, -0.7071067811865475, 0.0),
        witness_exact=(-1, -1, 0))),
    "dalembertian-4": (dalembertian_operator(3), dict(
        elliptic=False, min_singular=2.687906841547516e-09, scale=1.0,
        samples=264, evaluations=2582, minimum_round=60,
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


def _is_elliptic_one_round(sym):
    """is_elliptic with one batch per refinement round at most: the path
    that the multi-round batches must reproduce."""
    n = sym.base_dim
    eye = np.eye(n)
    pts = np.concatenate([symbols._sphere_points(n, min(4 ** n, symbols.MAX_SPHERE_POINTS)),
                          np.stack([eye, -eye], axis=1).reshape(2 * n, n)])
    lo, hi = symbols._extreme_singular_values(sym, pts)
    first = int(np.argmin(lo))
    best, best_v, scale = lo[first], pts[first], hi.max()
    evaluations, minimum_round = len(pts), 0
    radius = 0.5
    probe_dirs = symbols._sphere_points(n, symbols.PROBES_PER_ROUND)
    for round_ in range(1, symbols.REFINE_ROUNDS + 1):
        rest = probe_dirs
        while len(rest):
            cand = best_v + radius * rest
            cand = cand / symbols._row_norms(cand)[:, None]
            lo, _ = symbols._extreme_singular_values(sym, cand)
            evaluations += len(cand)
            better = np.flatnonzero(lo < best)
            if not better.size:
                break
            first = better[0]
            best, best_v, minimum_round = lo[first], cand[first], round_
            rest = rest[first + 1:]
        if minimum_round != round_:
            radius *= 0.6
    threshold = symbols.ELLIPTIC_RTOL * max(scale, 1e-300)
    if best > threshold:
        return symbols.EllipticityReport(True, float(best), float(scale), len(pts),
                                         evaluations, minimum_round)
    witness = tuple(float(x) for x in best_v)
    exact = symbols._snap_exact_witness(sym, best_v)
    if exact is not None:
        norm = math.sqrt(sum(x * x for x in exact))
        witness = tuple(x / norm for x in exact)
    return symbols.EllipticityReport(False, float(best), float(scale), len(pts),
                                     evaluations, minimum_round, witness, exact)


def _report_and_probes(elliptic, sym):
    """The report of ``elliptic(sym)`` and the bytes of every covector at
    which it evaluated the symbol."""
    probes = set()
    extreme = symbols._extreme_singular_values

    def recording(sym, xis):
        probes.update(row.tobytes() for row in xis)
        return extreme(sym, xis)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(symbols, "_extreme_singular_values", recording)
        return elliptic(sym), probes


def _assert_same_path(sym):
    report, probes = _report_and_probes(is_elliptic, sym)
    reference, reference_probes = _report_and_probes(_is_elliptic_one_round, sym)
    # every probe of the one-round path, bit for bit, and perhaps more
    assert reference_probes <= probes
    assert report.evaluations >= reference.evaluations
    assert dataclasses.replace(report, evaluations=0) == \
        dataclasses.replace(reference, evaluations=0)


@pytest.mark.parametrize("name", sorted(_GOLDEN_REPORTS))
def test_ellipticity_path_matches_one_round_batches_golden(name):
    _assert_same_path(principal_symbol(_GOLDEN_REPORTS[name][0]))


@pytest.mark.parametrize("coefficient", [np.zeros((2, 2)), np.zeros((0, 0))])
def test_ellipticity_path_matches_one_round_batches_degenerate(coefficient):
    # the zero symbol and the 0 x 0 symbol never improve on the scan
    _assert_same_path(principal_symbol(OperatorSpec(2, 1, (((1, 0), coefficient),))))


@st.composite
def _gaussian_integer_operators(draw):
    n = draw(st.integers(1, 4))
    order = draw(st.integers(1, 2))
    size = draw(st.integers(1, 3))
    alphas = [a for a in itertools.product(range(order + 1), repeat=n) if sum(a) == order]
    chosen = draw(st.lists(st.sampled_from(alphas), min_size=1, max_size=len(alphas),
                           unique=True))
    entries = st.integers(-2, 2)
    terms = []
    for alpha in chosen:
        re = draw(st.lists(entries, min_size=size * size, max_size=size * size))
        im = draw(st.lists(entries, min_size=size * size, max_size=size * size))
        terms.append((alpha, (np.array(re) + 1j * np.array(im)).reshape(size, size)))
    return OperatorSpec(n, order, tuple(terms))


@settings(max_examples=60, deadline=None)
@given(_gaussian_integer_operators())
def test_ellipticity_path_matches_one_round_batches_random(op):
    _assert_same_path(principal_symbol(op))


def test_sphere_points_are_cached_and_read_only():
    pts = symbols._sphere_points(3, 24)
    assert symbols._sphere_points(3, 24) is pts
    with pytest.raises(ValueError):
        pts[0, 0] = 0.0


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

@pytest.mark.parametrize("k", range(0, 12))
def test_abs_group_parity(k, monkeypatch):
    # decompositions read dimensions and traces only: no float linear algebra
    def refuse(*args, **kwargs):
        raise AssertionError("abs_group called numpy.linalg")
    for name in ("eig", "eigh", "eigvals", "eigvalsh", "pinv", "inv", "svd",
                 "solve", "lstsq", "det", "slogdet", "qr", "matrix_rank"):
        monkeypatch.setattr(np.linalg, name, refuse)
    group = abs_group(k)
    assert group.group == ("Z" if k % 2 == 0 else "0")
    if group.group == "Z":
        assert group.generator.dim == 1 << (k // 2)
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
