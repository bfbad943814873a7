import functools

import numpy as np
import pytest

from spindex import spinors, symbols
from spindex.spinors import (CliffordModule, MINUS_ODD, PLUS_ODD, UNIQUE_EVEN,
                             ModuleDecomposition, chirality_operator, clifford_action,
                             decompose_module, direct_sum, flip_grading,
                             gamma_matrices, graded_to_ungraded, odd_irreps,
                             restrict_module, spinor_module,
                             ungraded_to_graded, volume_image)


def _conjugate_module(module, p):
    """Isomorphic copy with generators p g p^-1."""
    pinv = np.linalg.inv(p)
    gens = tuple(p @ g @ pinv for g in module.generators)
    grading = p @ module.grading @ pinv if module.grading is not None else None
    return CliffordModule(module.clifford_dim, gens, grading)


@pytest.mark.parametrize("k", [2, 4, 6])
def test_generator_relations_exact(k):
    gens = gamma_matrices(k)
    eye = np.eye(1 << (k // 2))
    for i, gi in enumerate(gens):
        for j, gj in enumerate(gens):
            target = -2 * eye if i == j else 0 * eye
            assert np.array_equal(gi @ gj + gj @ gi, target)


def test_dimension_two_module():
    gens = gamma_matrices(2)
    assert all(g.shape == (2, 2) for g in gens)
    assert np.array_equal(gens[0] @ gens[1], -(gens[1] @ gens[0]))
    # surjectivity: the four blade images are linearly independent
    blades = [np.eye(2), gens[0], gens[1], gens[0] @ gens[1]]
    flat = np.array([b.flatten() for b in blades])
    assert np.linalg.matrix_rank(flat) == 4


def test_dimension_four_module():
    assert spinor_module(4).dim == 4


_S1 = np.array([[0, 1], [1, 0]], dtype=complex)
_S2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_S3 = np.array([[1, 0], [0, -1]], dtype=complex)


def _gamma_by_kron(k):
    """One np.kron per generator and step: the reference for gamma_matrices."""
    gens = [1j * _S1, 1j * _S2]
    while len(gens) < k:
        eye = np.eye(gens[0].shape[0])
        gens = [np.kron(g, _S3) for g in gens]
        gens.append(np.kron(eye, 1j * _S1))
        gens.append(np.kron(eye, 1j * _S2))
    return gens


@pytest.mark.parametrize("k", range(2, 13, 2))
def test_gamma_matrices_match_kron_recursion(k):
    gens, ref = gamma_matrices(k), _gamma_by_kron(k)
    assert len(gens) == k
    for g, r in zip(gens, ref):
        assert g.dtype == r.dtype and np.array_equal(g, r)


def _blade_trace_loop(mask, gens):
    """The image of one blade as a product chain: the reference for blade_traces."""
    img = np.eye(gens[0].shape[0], dtype=complex)
    for i in range(mask.bit_length()):
        if mask >> i & 1:
            img = img @ gens[i]
    return complex(img.trace())


@pytest.mark.parametrize("n", range(1, 10))
def test_blade_traces_match_product_chains(n):
    reps = ([gamma_matrices(n)] if n % 2 == 0
            else [m.generators for m in odd_irreps(n)])
    for gens in reps:
        traces = spinors.blade_traces(gens)
        assert traces.shape == (1 << n,)
        assert [complex(t) for t in traces] == [_blade_trace_loop(m, gens)
                                                for m in range(1 << n)]


@pytest.mark.parametrize("k", [2, 4, 6])
def test_blade_images_traceless(k):
    gens = gamma_matrices(k)
    for mask in range(1, 1 << k):
        img = np.eye(1 << (k // 2), dtype=complex)
        for i in range(k):
            if mask >> i & 1:
                img = img @ gens[i]
        assert np.trace(img) == 0


def test_chirality_operator():
    m2 = spinor_module(2)
    om = chirality_operator(m2)
    evals = np.linalg.eigvalsh(om)
    assert np.allclose(np.sort(evals), [-1.0, 1.0])
    m4 = spinor_module(4)
    om4 = chirality_operator(m4)
    assert np.array_equal(om4 @ om4, np.eye(4))
    assert np.trace(om4) == 0
    for g in m4.generators:
        assert np.array_equal(om4 @ g, -(g @ om4))
    w = np.linalg.eigvalsh(om4)
    assert int(np.sum(w > 0)) == 2 and int(np.sum(w < 0)) == 2


def test_clifford_action():
    m = spinor_module(2)
    rng = np.random.default_rng(0)
    s = rng.normal(size=2) + 1j * rng.normal(size=2)
    assert np.allclose(clifford_action([1, 0], m, clifford_action([1, 0], m, s)), -s)
    assert np.allclose(clifford_action([0, 0], m, s), 0)
    v = np.array([0.6, 0.8])
    cs = clifford_action(v, m, s / np.linalg.norm(s))
    assert np.isclose(np.linalg.norm(cs), 1.0)   # |cl(v)s| = |v||s|, |v| = 1
    cm = sum(vi * g for vi, g in zip(v, m.generators))
    assert np.allclose(cm @ cm, -np.eye(2))      # cl(v)^2 = -|v|^2
    # action swaps the grading eigenspaces
    plus = np.array([1.0, 0.0])
    out = clifford_action(v, m, plus)
    assert np.allclose(m.grading @ out, -out)


def test_clifford_action_dimension_errors():
    m = spinor_module(2)
    with pytest.raises(ValueError):
        clifford_action([1.0], m, np.zeros(2))
    with pytest.raises(ValueError):
        clifford_action([1.0, 0.0], m, np.zeros(3))


def test_restrict_module():
    r = restrict_module(spinor_module(2))
    assert r.clifford_dim == 1 and r.dim == 2
    w = np.linalg.eigvalsh(r.grading)
    assert int(np.sum(w > 0)) == 1 and int(np.sum(w < 0)) == 1
    m4 = spinor_module(4)
    twice = restrict_module(restrict_module(m4))
    assert twice.clifford_dim == 2
    assert all(np.array_equal(a, b)
               for a, b in zip(twice.generators, m4.generators[:2]))
    dec = decompose_module(restrict_module(CliffordModule(4, m4.generators, None)))
    assert dec.multiplicities == {PLUS_ODD: 1, MINUS_ODD: 1}


@pytest.mark.parametrize("k", range(1, 12, 2))
def test_odd_irreps_labels(k):
    plus, minus = odd_irreps(k)
    plus.validate()
    minus.validate()
    norm = 1j ** ((k + 1) // 2)
    assert np.array_equal(volume_image(plus), norm * np.eye(plus.dim))
    assert np.array_equal(volume_image(minus), -norm * np.eye(minus.dim))


def test_decompose_even():
    m4 = CliffordModule(4, spinor_module(4).generators, None)
    assert decompose_module(m4).multiplicities == {UNIQUE_EVEN: 1}
    assert decompose_module(direct_sum(m4, m4)).multiplicity(UNIQUE_EVEN) == 2


def test_decompose_odd_first_factor():
    plus, minus = odd_irreps(3)
    assert decompose_module(plus).multiplicities == {PLUS_ODD: 1, MINUS_ODD: 0}
    assert decompose_module(minus).multiplicities == {PLUS_ODD: 0, MINUS_ODD: 1}
    both = direct_sum(plus, minus)
    assert decompose_module(both).multiplicities == {PLUS_ODD: 1, MINUS_ODD: 1}


def test_decompose_invariant_under_conjugation():
    rng = np.random.default_rng(5)
    plus, minus = odd_irreps(3)
    module = direct_sum(direct_sum(plus, plus), minus)
    p = rng.normal(size=(module.dim, module.dim)) \
        + 0.1j * rng.normal(size=(module.dim, module.dim)) + 3 * np.eye(module.dim)
    conj = _conjugate_module(module, p)
    assert decompose_module(conj) == decompose_module(module)


def test_graded_decompose_invariant_under_conjugation():
    rng = np.random.default_rng(6)
    module = direct_sum(spinor_module(2), flip_grading(spinor_module(2)))
    p = rng.normal(size=(4, 4)) + 0.1j * rng.normal(size=(4, 4)) + 3 * np.eye(4)
    conj = _conjugate_module(module, p)
    assert decompose_module(conj, graded=True) \
        == decompose_module(module, graded=True)


def test_decompose_rejects_broken_relations():
    bad = CliffordModule(2, (np.eye(2, dtype=complex), 1j * np.eye(2)), None)
    with pytest.raises(spinors.ModuleError):
        decompose_module(bad)


def test_decompose_accepts_float_modules_near_gaussian_integers():
    # entries such as 1.000003j are not Gaussian integers: the relations
    # hold to rounding, so exact validation would wrongly reject them
    t = np.sqrt(1 + 3e-6)
    conj = _conjugate_module(spinor_module(2), np.diag([t, 1 / t]))
    assert decompose_module(conj) == decompose_module(spinor_module(2)) \
        == ModuleDecomposition(2, True, {MINUS_ODD: 1})
    assert symbols.winding_number(symbols.abs_class(conj)) == 1


def _decompose_by_eigenbasis(module):
    """A graded decomposition through an explicit ungraded module one
    dimension down (grading eigenbasis and pseudo-inverse): the reference
    for the trace rule of decompose_module."""
    k, dim = module.clifford_dim, module.dim
    if k == 0:
        w = np.linalg.eigvals(module.grading) if dim else np.zeros(0)
        n_plus = int(np.sum(np.abs(w - 1) < 0.5))
        return ModuleDecomposition(0, True, {PLUS_ODD: n_plus, MINUS_ODD: dim - n_plus})
    under = decompose_module(graded_to_ungraded(module))
    return ModuleDecomposition(k, True, dict(under.multiplicities))


def _graded_pinning_modules():
    for k in range(13):
        for m in symbols.graded_irreducibles(k):
            yield m
            if k:
                yield restrict_module(m)
    for k in range(1, 7):
        s = spinor_module(k)
        f = flip_grading(s)
        yield direct_sum(s, f)
        yield direct_sum(direct_sum(s, s), f)
        yield direct_sum(f, direct_sum(f, s))
    rng = np.random.default_rng(7)
    for k in (2, 4, 6):
        # three summands conjugated by a random near-identity matrix, as in
        # the modules-symbols benchmark
        s = spinor_module(k)
        for a in range(4):
            module = functools.reduce(direct_sum, [s] * a + [flip_grading(s)] * (3 - a))
            d = module.dim
            p = np.eye(d) + 0.2 * (rng.normal(size=(d, d))
                                   + 1j * rng.normal(size=(d, d))) / np.sqrt(d)
            yield _conjugate_module(module, p)
    for signs in ((1,), (-1,), (1, 1, -1), (-1, -1, -1, 1, 1)):
        eps = np.diag(np.array(signs, dtype=complex))
        yield CliffordModule(0, (), eps)
        p = np.eye(len(signs)) + 0.3 * rng.normal(size=(len(signs),) * 2)
        yield _conjugate_module(CliffordModule(0, (), eps), p)
    for k in range(5):
        zero = np.zeros((0, 0), dtype=complex)
        yield CliffordModule(k, (zero,) * k, zero)


def test_graded_decomposition_matches_the_eigenbasis_route():
    for module in _graded_pinning_modules():
        assert decompose_module(module, graded=True) == _decompose_by_eigenbasis(module)


@pytest.mark.parametrize("k,position", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
def test_validate_checks_every_shape_first(k, position):
    gens = list(gamma_matrices(k + k % 2)[:k])
    gens[position] = np.eye(3, dtype=complex)
    bad = CliffordModule(k, tuple(gens))
    for check in (bad.validate, lambda: decompose_module(bad)):
        with pytest.raises(spinors.ModuleError, match="^generator shape mismatch$"):
            check()


def _validate_by_pairs(module, tol):
    """One product per generator pair, in row-major order: the reference for
    validate (given generators of matching shapes)."""
    def close(a, b):
        if tol == 0.0:
            return np.array_equal(a, b)
        return bool(np.max(np.abs(a - b)) <= tol) if a.size else True

    d = module.dim
    eye = np.eye(d)
    for i, gi in enumerate(module.generators):
        for j, gj in enumerate(module.generators):
            target = -2 * eye if i == j else np.zeros((d, d))
            if not close(gi @ gj + gj @ gi, target):
                raise spinors.ModuleError(f"relation violated for generators {i + 1},{j + 1}")
    if module.grading is not None:
        eps = module.grading
        if not close(eps @ eps, eye):
            raise spinors.ModuleError("grading does not square to the identity")
        for i, gi in enumerate(module.generators):
            if not close(eps @ gi + gi @ eps, np.zeros((d, d))):
                raise spinors.ModuleError(f"generator {i + 1} is not odd for the grading")


def _broken_modules():
    """Modules each breaking one relation, the grading or its oddness."""
    base = spinor_module(5)
    d = base.dim
    for g in range(5):
        for (r, c), value in (((0, 0), 1e-3), ((d - 1, 2), 1.0), ((3, 1), np.nan)):
            gens = [m.copy() for m in base.generators]
            gens[g][r, c] += value
            yield CliffordModule(5, tuple(gens), base.grading)
    for a, b in ((1, 2), (2, 4), (3, 4), (0, 4)):
        # a repeated generator breaks the one pair (a, b), from either side
        for src, dst in ((a, b), (b, a)):
            gens = list(base.generators)
            gens[dst] = gens[src]
            yield CliffordModule(5, tuple(gens), base.grading)
    for j in range(4):
        # i g_j squares to 1, anticommutes with every g_i but g_j and commutes with g_j
        gens = gamma_matrices(4)
        yield CliffordModule(4, tuple(gens), 1j * gens[j])
    gens = gamma_matrices(4)
    yield CliffordModule(4, tuple(gens), 2 * chirality_operator(gens))
    eps = chirality_operator(gens).copy()
    eps[1, 1] = np.nan
    yield CliffordModule(4, tuple(gens), eps)
    yield CliffordModule(2, (np.eye(2, dtype=complex), 1j * np.eye(2)), None)
    yield CliffordModule(2, (np.array([[0, 1], [1, 0]]), np.array([[1, 0], [0, -1]])), None)


@pytest.mark.parametrize("tol", [0.0, 1e-9])
def test_validate_reports_the_first_violation_of_the_pair_loop(tol):
    for module in _broken_modules():
        with pytest.raises(spinors.ModuleError) as want:
            _validate_by_pairs(module, tol)
        with pytest.raises(spinors.ModuleError) as got:
            module.validate(tol)
        assert str(got.value) == str(want.value)
        with pytest.raises(spinors.ModuleError) as got:
            decompose_module(module)
        assert str(got.value) == str(want.value)


def test_validate_accepts_integer_matrices():
    rotation = CliffordModule(1, (np.array([[0, -1], [1, 0]]),))
    for tol in (0.0, 1e-9):
        rotation.validate(tol)
    assert decompose_module(rotation) == ModuleDecomposition(1, False, {PLUS_ODD: 1, MINUS_ODD: 1})


def test_validate_rejects_nan_at_every_tolerance():
    gens = [g.copy() for g in gamma_matrices(4)]
    gens[2][0, 1] = np.nan
    for tol in (0.0, 1e-9, 1.0):
        with pytest.raises(spinors.ModuleError, match="generators 1,3"):
            CliffordModule(4, tuple(gens)).validate(tol)


def test_graded_ungraded_equivalence():
    m2 = spinor_module(2)
    u = graded_to_ungraded(m2)
    assert u.clifford_dim == 1 and u.dim == 1
    m4 = spinor_module(4)
    back = ungraded_to_graded(graded_to_ungraded(m4))
    back.validate(tol=1e-12)
    assert decompose_module(back) == decompose_module(m4)
    # zero module round trip
    zero = CliffordModule(2, tuple(np.zeros((0, 0), dtype=complex) for _ in range(2)),
                          np.zeros((0, 0), dtype=complex))
    z = graded_to_ungraded(zero)
    assert z.dim == 0
    assert ungraded_to_graded(z).dim == 0


def test_two_gradings_inequivalent_graded_equivalent_ungraded():
    s = spinor_module(2)
    flipped = flip_grading(s)
    assert decompose_module(s, graded=True) != decompose_module(flipped, graded=True)
    assert decompose_module(CliffordModule(2, s.generators, None)) \
        == decompose_module(CliffordModule(2, flipped.generators, None))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_spinor_module_dimensions(k):
    m = spinor_module(k)
    m.validate()
    assert m.dim == 1 << ((k + 1) // 2)
    w = np.linalg.eigvalsh((m.grading + m.grading.conj().T) / 2)
    assert int(np.sum(w > 0)) == m.dim // 2


def test_module_json_round_trip():
    m = spinor_module(3)
    data = m.to_json()
    back = CliffordModule.from_json(data)
    assert back.clifford_dim == 3
    assert all(np.array_equal(a, b) for a, b in zip(back.generators, m.generators))
    assert np.array_equal(back.grading, m.grading)
    assert data["generators"][0][0][0].endswith("i")
