import io
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import block_diag
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spindex import spinors
from spindex import torus_index as ti
from spindex.torus_index import (AmbiguousKernelError, FluxBundleSpec,
                                 NonConvergenceError, build_torus_dirac,
                                 constant_family, disjoint_union_index,
                                 gauge_transform, index, kernel_dimension,
                                 shift_family, spectral_flow)


def test_spec_validation():
    with pytest.raises(ValueError):
        FluxBundleSpec(3, 0)
    with pytest.raises(ValueError):
        FluxBundleSpec(8, 17)          # |d| > N^2/4
    with pytest.raises(ValueError):
        FluxBundleSpec(8, 0, wilson_mass=2.5)
    with pytest.raises(ValueError):
        FluxBundleSpec(8, 0, wilson_r=0.0)
    with pytest.raises(ValueError, match="2r"):
        FluxBundleSpec(8, 0, wilson_r=0.5, wilson_mass=1.0)
    FluxBundleSpec(8, 0, wilson_r=0.5, wilson_mass=0.999)


@pytest.mark.parametrize("r,mass", [(0.5, 1.2), (0.5, 1.5), (0.5, 1.7), (0.5, 1.95),
                                    (0.7, 1.6), (0.3, 0.9)])
def test_specs_past_the_first_doubler_crossing_are_refused(r, mass):
    # ROADMAP item 1, Finding A: 132 of these 168 specs returned a wrong
    # index without an error and 12 a NonConvergenceError
    for n in (6, 8, 10, 12):
        for d in range(-3, 4):
            with pytest.raises(ValueError, match="2r"):
                FluxBundleSpec(n, d, wilson_r=r, wilson_mass=mass)


def test_matrix_size_and_plaquettes():
    op = build_torus_dirac(FluxBundleSpec(8, 3))
    assert op.matrix.shape == (128, 128)
    phases = op.plaquette_phases()
    assert np.allclose(phases, phases[0, 0])
    assert np.isclose(phases[0, 0] ** 64, 1.0)      # total flux integral
    assert np.isclose(np.abs(phases[0, 0]), 1.0)
    assert np.isclose(np.angle(phases[0, 0]) * 64, 2 * np.pi * 3, atol=1e-12)


@pytest.mark.parametrize("n,d", [(8, 0), (8, 2), (10, -1)])
def test_graded_odd_hermitian(n, d):
    op = build_torus_dirac(FluxBundleSpec(n, d))
    m = op.matrix.toarray()
    assert np.allclose(m, m.conj().T)
    g = op.grading
    assert np.allclose(g[:, None] * m + m * g[None, :], 0.0)
    v = n * n
    dplus_naive = m[v:, :v]
    dminus_naive = m[:v, v:]
    assert np.allclose(dminus_naive, dplus_naive.conj().T)


def test_symmetric_spectrum_and_zero_index_flat():
    op = build_torus_dirac(FluxBundleSpec(8, 0))
    evals = np.linalg.eigvalsh(op.matrix.toarray())
    assert np.allclose(np.sort(evals), np.sort(-evals))
    result = index(op)
    assert result.index == 0
    assert result.dim_ker_plus == result.dim_ker_minus == 1


def test_kernel_dimension_basics():
    assert kernel_dimension(np.diag([0.0, 1.0, 2.0])).dimension == 1
    rng = np.random.default_rng(0)
    a = rng.normal(size=(25, 25)) + 5 * np.eye(25)
    assert kernel_dimension(a).dimension == 0


def test_kernel_dimension_rectangular_counts_shape_deficit():
    a = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    assert kernel_dimension(a).dimension == 1
    assert kernel_dimension(a.T).dimension == 0


def test_kernel_dimension_real_input_matches_complex_copy():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(30, 20)) @ rng.normal(size=(20, 33))    # rank 20
    real, cplx = kernel_dimension(a), kernel_dimension(a.astype(complex))
    assert real.dimension == cplx.dimension == 13
    scale = cplx.singular_values[0]
    assert np.max(np.abs(real.singular_values - cplx.singular_values)) <= 1e-14 * scale
    assert kernel_dimension(np.array([[2, 0, 0], [0, 0, 0]])).dimension == 2


def test_kernel_dimension_ambiguity():
    with pytest.raises(AmbiguousKernelError):
        kernel_dimension(np.diag([1.0, 4e-8, 1e-9]))



def test_near_zero_wilson_mode_is_refused():
    """m0 sits 4e-16 below 2r: the doubler mode of H_W is 4.1e-10 of the
    largest eigenvalue, a sign function that a 1e-10 cut accepted and read
    as index 0 (ker 1/1) for d = 3."""
    spec = FluxBundleSpec(7, 3, wilson_r=0.5483816009721916, wilson_mass=1.0967632019443827)
    with pytest.raises(AmbiguousKernelError):
        index(build_torus_dirac(spec))

def test_dplus_block_kernel_flux_one():
    op = build_torus_dirac(FluxBundleSpec(12, 1))
    dplus, dminus = op.chiral_blocks()
    assert dplus.shape == (144, 145)
    assert np.allclose(dminus, dplus.conj().T)
    assert kernel_dimension(dplus).dimension == 1
    assert kernel_dimension(dminus).dimension == 0


@pytest.mark.parametrize("n,d", [(12, 0), (12, 1), (12, -2), (10, 2)])
def test_index_equals_flux(n, d):
    result = index(build_torus_dirac(FluxBundleSpec(n, d)))
    assert result.index == d
    assert result.index == result.dim_ker_plus - result.dim_ker_minus
    assert result.spectral_gap > 0.1
    data = result.to_json()
    assert data["N"] == n and data["d"] == d and data["index"] == d


def test_index_kernel_sides():
    plus = index(build_torus_dirac(FluxBundleSpec(10, 2)))
    assert (plus.dim_ker_plus, plus.dim_ker_minus) == (2, 0)
    minus = index(build_torus_dirac(FluxBundleSpec(10, -2)))
    assert (minus.dim_ker_plus, minus.dim_ker_minus) == (0, 2)


@pytest.mark.parametrize("n,d,r,mass", [
    (8, 13, 1.0, 1.95), (8, -13, 1.0, 1.95), (10, 23, 1.0, 1.95), (10, -23, 1.0, 1.95),
    (12, 29, 1.0, 1.95), (12, -29, 1.0, 1.95),
    (10, 3, 0.5, 1.7), (10, -3, 0.5, 1.7), (10, 3, 0.5, 1.95), (10, -3, 0.5, 1.95)])
def test_chirality_reading_flags_near_zero_modes(n, d, r, mass):
    # near-zero overlap modes: nonzero for the kernel threshold on singular
    # values, zero for the D^*D threshold on eigenvalues; without the
    # chirality cross-check these inputs return a wrong index.  The r = 0.5
    # inputs lie past the first doubler crossing, m0 >= 2r, and are refused
    # before any eigensolve.
    if mass >= 2 * r:
        with pytest.raises(ValueError, match="2r"):
            FluxBundleSpec(n, d, wilson_r=r, wilson_mass=mass)
        return
    with pytest.raises(NonConvergenceError, match="chirality"):
        index(build_torus_dirac(FluxBundleSpec(n, d, wilson_r=r, wilson_mass=mass)))


@pytest.mark.parametrize("n", [5, 8, 10])
@pytest.mark.parametrize("d", [-2, 0, 3])
@pytest.mark.parametrize("r,mass", [(1.0, 1.0), (0.5, 0.9), (0.5, 1.7)])
def test_overlap_readings_match_dense_oracle(n, d, r, mass):
    """The eigenvector readings against the dense overlap D = 1 + gamma
    sign(H_W) and an eigendecomposition of D^*D.  (0.5, 1.7) lies past the
    first doubler crossing, m0 >= 2r, and is refused."""
    if mass >= 2 * r:
        with pytest.raises(ValueError, match="2r"):
            FluxBundleSpec(n, d, wilson_r=r, wilson_mass=mass)
        return
    op = build_torus_dirac(FluxBundleSpec(n, d, wilson_r=r, wilson_mass=mass))
    g = op.grading
    # H_W assembled as the pipeline assembles it, signed zeros included, so
    # that both eigendecompositions pick the same eigenvector phases
    evals, evecs = np.linalg.eigh((sp.diags(g) @ op.wilson_kernel).toarray())
    sign = (evecs * np.sign(evals)) @ evecs.conj().T
    operator = np.eye(len(g)) + g[:, None] * sign
    dplus = op.chiral_blocks()[0]
    # eigenvector bases are not unique; D+ D+^* is
    oracle = operator[g < 0] @ evecs[:, evals < 0]
    assert dplus.shape == oracle.shape
    assert np.max(np.abs(dplus @ dplus.conj().T - oracle @ oracle.conj().T)) <= 1e-12

    w, q = np.linalg.eigh(operator.conj().T @ operator)
    null = q[:, w < ti.ZERO_THRESHOLD * w[-1]]
    chi = np.linalg.eigvalsh(null.conj().T @ (g[:, None] * null))
    ov = op.overlap()
    assert ov.zero_mode_chiralities() == (int(np.sum(chi > 0.5)), int(np.sum(chi < -0.5)))

    # a second SVD, of D+^*, differs from the first by its backward error,
    # which is relative to the largest singular value, not to the gap
    ker_minus, direct = ov.kernels[1], kernel_dimension(dplus.conj().T)
    assert ker_minus.dimension == direct.dimension
    assert abs(ker_minus.gap - direct.gap) <= 1e-12 * direct.singular_values[0]


def _monomial_matrix(perm, phase):
    return sp.csr_matrix((phase, (perm, np.arange(len(perm)))), shape=(len(perm),) * 2)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sector_basis_property(data):
    """S^4 = 1, S commutes with gamma and H_W, T S T^-1 = S^-1; W is unitary,
    W^* H_W W is real and block diagonal by sector, and the sector D+ blocks
    have the singular values of 2 Q-[minus rows] from a complex eigh of H_W,
    for fresh operators (odd N included), gauge copies and disjoint unions."""
    ops = []
    for _ in range(data.draw(st.integers(1, 2))):
        n = data.draw(st.integers(4, 10))
        d = data.draw(st.integers(-(n * n // 4), n * n // 4))
        r = data.draw(st.floats(0.3, 1.5))
        m0 = data.draw(st.floats(0.05, min(1.95, 2 * r), exclude_max=True))
        op = build_torus_dirac(FluxBundleSpec(n, d, wilson_r=r, wilson_mass=m0))
        if data.draw(st.booleans()):
            seed = data.draw(st.integers(0, 2 ** 32 - 1))
            op = gauge_transform(op, np.random.default_rng(seed).uniform(0, 2 * np.pi, (n, n)))
        ops.append(op)
    for op in ops:
        rotation, reflection = (_monomial_matrix(*m) for m in ti._symmetries(op.ux, op.uy))
        h = sp.diags(op.grading) @ op.wilson_kernel
        eye = sp.identity(len(op.grading))
        assert abs(rotation @ rotation @ rotation @ rotation - eye).max() <= 1e-12
        assert abs(rotation @ h - h @ rotation).max() <= 1e-12
        assert abs(rotation @ sp.diags(op.grading) - sp.diags(op.grading) @ rotation).max() == 0
        # T = U K: T S T^-1 = U conj(S) U^*
        assert abs(reflection @ rotation.conj() @ reflection.conj().T
                   - rotation.conj().T).max() <= 1e-12
    kernel = sp.block_diag([op.wilson_kernel for op in ops])
    g = np.concatenate([op.grading for op in ops])
    basis = sp.block_diag([op.sector_basis[0] for op in ops]).toarray()
    sectors = np.concatenate([op.sector_basis[1] for op in ops])
    assert np.max(np.abs(basis.conj().T @ basis - np.eye(len(g)))) <= 1e-12
    h = (sp.diags(g) @ kernel).toarray()
    split = basis.conj().T @ h @ basis
    scale = np.max(np.abs(h))
    assert np.max(np.abs(split.imag)) <= 1e-12 * scale
    assert np.max(np.abs(split[sectors[:, None] != sectors[None, :]])) <= 1e-12 * scale

    try:
        ov = ti._Overlap(kernel, g, sp.csr_matrix(basis), sectors)
    except AmbiguousKernelError:
        assume(False)
    minus = g < 0
    evals, evecs = np.linalg.eigh(h)
    oracle = 2.0 * evecs[np.ix_(minus, evals < 0)]
    s_oracle = np.linalg.svd(oracle, compute_uv=False)
    dplus = basis[np.ix_(minus, ov.minus_columns)] @ block_diag(*ov.dplus_blocks)
    assert dplus.shape == oracle.shape
    s_site = np.linalg.svd(dplus, compute_uv=False)
    s_sector = np.zeros(len(s_oracle))                  # padded with the implicit zeros
    s_sector[:sum(min(b.shape) for b in ov.dplus_blocks)] = np.sort(np.concatenate(
        [np.linalg.svd(b, compute_uv=False) for b in ov.dplus_blocks if min(b.shape)]))[::-1]
    assert np.max(np.abs(s_site - s_oracle)) <= 1e-12 * 2
    assert np.max(np.abs(s_sector - s_oracle)) <= 1e-12 * 2


def _complex_oracle(*ops):
    """(dim ker D+, dim ker D-, gap) from one complex dense eigh of gamma K
    on the direct sum of the operators: D+ = 2 Q-[minus rows]."""
    kernel = block_diag(*(op.wilson_kernel.toarray() for op in ops))
    g = np.concatenate([op.grading for op in ops])
    evals, evecs = np.linalg.eigh(g[:, None] * kernel)
    dplus = 2.0 * evecs[np.ix_(g < 0, evals < 0)]
    s = np.linalg.svd(dplus, compute_uv=False)
    rank = int(np.sum(s >= ti.ZERO_THRESHOLD * s[0]))
    return dplus.shape[1] - rank, dplus.shape[0] - rank, s[rank - 1]


def _oracle_operators(n, d, gauge_seed):
    op = build_torus_dirac(FluxBundleSpec(n, d))
    if gauge_seed is not None:
        op = gauge_transform(op, np.random.default_rng(gauge_seed).uniform(0, 2 * np.pi, (n, n)))
    return op


@pytest.mark.parametrize("n,d", [(5, -2), (5, 1), (7, 3), (7, 0), (6, 1), (8, 2)])
@pytest.mark.parametrize("gauge_seed", [None, 7])
def test_index_matches_complex_oracle(n, d, gauge_seed):
    """The sector blocks against a complex eigh of gamma K.  Their sizes
    are equal only at even N and d = 2 mod 4; odd N and odd d give blocks
    of two or three sizes."""
    op = _oracle_operators(n, d, gauge_seed)
    sizes = np.bincount(op.sector_basis[1])
    assert (len(set(sizes)) == 1) == (n % 2 == 0 and d % 4 == 2)
    result = index(op)
    ker_plus, ker_minus, gap = _complex_oracle(op)
    assert (result.dim_ker_plus, result.dim_ker_minus, result.index) == (ker_plus, ker_minus, d)
    assert abs(result.spectral_gap - gap) <= 1e-12 * 2


@pytest.mark.parametrize("first,second", [((8, 2), (10, -1)), ((5, 1), (6, -3)),
                                          ((10, 2), (8, 2))])
@pytest.mark.parametrize("gauge_seed", [None, 3])
def test_disjoint_union_index_matches_complex_oracle(first, second, gauge_seed):
    """The union's sectors interleave (each operator lists its own in
    order), so its blocks gather columns from both operators."""
    a, b = (_oracle_operators(n, d, gauge_seed) for n, d in (first, second))
    sectors = np.concatenate([a.sector_basis[1], b.sector_basis[1]])
    assert np.any(np.diff(sectors) < 0)
    ker_plus, ker_minus, _ = _complex_oracle(a, b)
    assert disjoint_union_index(a, b) == ker_plus - ker_minus == first[1] + second[1]


def test_overlap_refuses_complex_or_off_sector_blocks():
    op = build_torus_dirac(FluxBundleSpec(6, 1))
    basis, sectors = op.sector_basis
    phases = np.exp(1j * np.random.default_rng(2).uniform(0, 2 * np.pi, len(sectors)))
    with pytest.raises(ValueError, match="symmetry"):
        ti._Overlap(op.wilson_kernel, op.grading, basis @ sp.diags(phases), sectors)
    with pytest.raises(ValueError, match="symmetry"):
        ti._Overlap(op.wilson_kernel, op.grading, basis, np.roll(sectors, 1))


def test_links_without_the_symmetry_are_refused():
    spec = FluxBundleSpec(6, 1)
    rng = np.random.default_rng(11)
    ux, uy = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(2, 6, 6)))
    op = ti.LatticeOperator.__new__(ti.LatticeOperator)
    op._assemble(spec, ux, uy)
    with pytest.raises(ValueError, match="symmetry"):
        index(op)


@pytest.mark.parametrize("n,d", [(6, 1), (5, 0), (8, -2)])
def test_links_that_keep_t_but_break_the_rotation_are_refused(n, d):
    # a flat x-Wilson line e^{i theta} on the flux links: conjugation and
    # x -> -x still give a gauge copy, a 90 degree rotation does not
    spec = FluxBundleSpec(n, d)
    ux, uy = ti.flux_links(spec)
    op = ti.LatticeOperator.__new__(ti.LatticeOperator)
    op._assemble(spec, ux * np.exp(0.7j / n), uy)
    reflection = _monomial_matrix(*ti._symmetries(op.ux, op.uy)[1])
    h = sp.diags(op.grading) @ op.wilson_kernel
    assert abs(reflection @ h.conj() @ reflection.conj().T - h).max() <= 1e-12
    with pytest.raises(ValueError, match="symmetry"):
        index(op)


@pytest.mark.parametrize("d", [3, -3])
def test_index_at_the_largest_lattice(d):
    result = index(build_torus_dirac(FluxBundleSpec(24, d)))
    assert result.index == d
    assert (result.dim_ker_plus, result.dim_ker_minus) == ((3, 0) if d > 0 else (0, 3))
    with pytest.raises(ValueError):
        FluxBundleSpec(25, d)


def test_index_additive_over_disjoint_union():
    a = build_torus_dirac(FluxBundleSpec(8, 2))
    b = build_torus_dirac(FluxBundleSpec(8, -1))
    assert disjoint_union_index(a, b) == 1
    c = build_torus_dirac(FluxBundleSpec(8, 3))
    assert disjoint_union_index(a, c) == 5


def test_gauge_invariance_single_trial():
    rng = np.random.default_rng(3)
    op = build_torus_dirac(FluxBundleSpec(10, 2))
    phases = rng.uniform(0, 2 * np.pi, size=(10, 10))
    moved = gauge_transform(op, phases)
    s0 = np.linalg.svd(op.matrix.toarray(), compute_uv=False)
    s1 = np.linalg.svd(moved.matrix.toarray(), compute_uv=False)
    assert np.max(np.abs(s0 - s1)) < 1e-10
    assert np.allclose(moved.plaquette_phases(), op.plaquette_phases())
    assert index(moved).index == 2


@pytest.mark.parametrize("n", [5, 8])
def test_gauge_transform_by_zero_phases_is_identity(n):
    op = build_torus_dirac(FluxBundleSpec(n, 1))
    same = gauge_transform(op, np.zeros((n, n)))
    assert np.array_equal(same.matrix.toarray(), op.matrix.toarray())
    assert np.array_equal(same.wilson_kernel.toarray(), op.wilson_kernel.toarray())


@pytest.mark.parametrize("n", [5, 7])
def test_shift_operator_layout(n):
    # site (x, y) is row x*N + y; the hop to x + 1 (y + 1) carries ux[x, y]
    # (uy[x, y]), read off the assembled Wilson hops -r/2 u at r = 1
    rng = np.random.default_rng(n)
    ux, uy = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(2, n, n)))
    ahead_x, ahead_y = ti._neighbours(n)
    assert len(ahead_x) == len(ahead_y) == n * n
    assert set(ahead_x) == set(ahead_y) == set(range(n * n))
    op = ti.LatticeOperator.__new__(ti.LatticeOperator)
    op._assemble(FluxBundleSpec(n, 0), ux, uy)
    v = n * n
    for x in range(n):
        for y in range(n):
            s = x * n + y
            assert ahead_x[s] == ((x + 1) % n) * n + y
            assert ahead_y[s] == x * n + (y + 1) % n
            for c in (0, v):
                assert op.wilson_kernel[c + s, c + ahead_x[s]] == -0.5 * ux[x, y]
                assert op.wilson_kernel[c + s, c + ahead_y[s]] == -0.5 * uy[x, y]


def _kron_assembly(op):
    """``matrix`` and ``wilson_kernel`` by the Kronecker formula, from the
    link-weighted forward shifts t1, t2: central differences (t - t^*)/2
    on the entries of gamma^1, gamma^2, and the Wilson term r/2 (4 - t1 -
    t1^* - t2 - t2^*) on both spinor components."""
    n, v = op.spec.lattice_size, op.spec.sites
    r, m0 = op.spec.wilson_r, op.spec.wilson_mass
    site = np.arange(v).reshape(n, n)
    t1, t2 = (sp.csr_matrix((u.ravel(), (site.ravel(), np.roll(site, -1, axis=axis).ravel())),
                            shape=(v, v)) for u, axis in ((op.ux, 0), (op.uy, 1)))
    d1, d2 = ((t - t.conj().T) * 0.5 for t in (t1, t2))
    g1, g2 = spinors.gamma_matrices(2)
    matrix = sp.csr_matrix(sp.kron(sp.csr_matrix(g1), d1) + sp.kron(sp.csr_matrix(g2), d2))
    wilson = 0.5 * r * (4.0 * sp.identity(v, dtype=complex)
                        - t1 - t1.conj().T - t2 - t2.conj().T)
    kernel = sp.csr_matrix(-1j * matrix + sp.kron(sp.identity(2, dtype=complex), wilson)
                           - m0 * sp.identity(2 * v, dtype=complex))
    return matrix, kernel


@pytest.mark.parametrize("n", [4, 5, 7, 8])
def test_assembly_matches_the_kron_formula(n):
    rng = np.random.default_rng(20 + n)
    spec = FluxBundleSpec(n, 2 - n, wilson_r=0.7, wilson_mass=1.3)
    fresh = build_torus_dirac(spec)
    copy = gauge_transform(fresh, rng.uniform(0, 2 * np.pi, (n, n)))
    random = ti.LatticeOperator.__new__(ti.LatticeOperator)
    random._assemble(spec, *np.exp(1j * rng.uniform(0, 2 * np.pi, size=(2, n, n))))
    for op in (fresh, copy, random):
        matrix, kernel = _kron_assembly(op)
        for built, formula in ((op.matrix, matrix), (op.wilson_kernel, kernel)):
            assert built.format == "csr" and built.shape == formula.shape
            assert built.nnz == formula.nnz
            assert (built != formula).nnz == 0


def test_lattice_stability_small_sweep():
    for n in (12, 14):
        assert index(build_torus_dirac(FluxBundleSpec(n, 2))).index == 2


def test_index_robust_to_wilson_parameters():
    for mass, r in [(0.8, 1.0), (1.2, 0.9), (0.5, 1.5)]:
        spec = FluxBundleSpec(10, 2, wilson_r=r, wilson_mass=mass)
        assert index(build_torus_dirac(spec)).index == 2


def test_index_result_json_schema():
    data = index(build_torus_dirac(FluxBundleSpec(8, 1))).to_json()
    assert set(data) == {"N", "d", "dim_ker_plus", "dim_ker_minus", "index", "gap"}


def test_export_triplets():
    op = build_torus_dirac(FluxBundleSpec(8, 0))
    buf = io.StringIO()
    op.export_triplets(buf)
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == op.matrix.nnz
    row, col, re, im = lines[0].split()
    int(row), int(col), float(re), float(im)


# -- spectral flow -----------------------------------------------------------------

def test_shift_family_flows():
    eps = 1e-3
    assert spectral_flow(shift_family(eps, 1 + eps)) == 1
    assert spectral_flow(shift_family(eps, 2 + eps)) == 2
    assert spectral_flow(shift_family(1 + eps, eps)) == -1


def test_spectral_flow_builds_each_endpoint_once():
    fam = shift_family(1e-3, 3 + 1e-3)
    calls = []

    def builder(t):
        calls.append(t)
        return fam.builder(t)

    assert spectral_flow(ti.FamilySpec(fam.t_start, fam.t_end, builder)) == 3
    assert calls == [fam.t_start, fam.t_end]


_off_integer = st.floats(-30, 30, exclude_min=True, exclude_max=True).filter(
    lambda t: abs(t - round(t)) >= 1e-3)


@settings(max_examples=200, deadline=None)
@given(_off_integer, _off_integer)
def test_shift_flow_counts_integers_crossed(t0, t1):
    # eigenvalues n + t, |n| <= 32: one crosses zero upward at each integer t
    assume(t0 != t1)
    assert spectral_flow(shift_family(t0, t1)) == math.floor(t1) - math.floor(t0)


def test_constant_family_flows_zero():
    rng = np.random.default_rng(5)
    h = rng.normal(size=(10, 10))
    fam = constant_family(h + h.T + 11 * np.eye(10))
    assert spectral_flow(fam) == 0


def test_endpoint_zero_eigenvalue_rejected():
    with pytest.raises(NonConvergenceError):
        spectral_flow(shift_family(0.0, 1.0))


def test_family_requires_hermitian():
    fam = ti.FamilySpec(0.1, 1.1, lambda t: np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        spectral_flow(fam)


def test_flow_reversal_negates():
    eps = 1e-3
    forward = spectral_flow(shift_family(eps, 3 + eps))
    backward = spectral_flow(shift_family(3 + eps, eps))
    assert forward == -backward == 3
