import io
import math
import os
import subprocess
import sys
from pathlib import Path

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
    FluxBundleSpec(np.int64(8), np.int64(2))        # numpy integers are integers


@pytest.mark.parametrize("args,kwargs,name", [
    ((8, 2), {"wilson_r": math.nan}, "wilson_r"), ((8, 2), {"wilson_r": math.inf}, "wilson_r"),
    ((8, 2), {"wilson_mass": math.nan}, "wilson_mass"), ((8, 1.5), {}, "flux"),
    ((8.0, 2), {}, "lattice_size"), ((np.float64(8), 2), {}, "lattice_size")])
def test_spec_refuses_non_finite_and_non_integral_fields(args, kwargs, name):
    # a nan or infinite r passed every comparison and failed inside LAPACK
    with pytest.raises(ValueError, match=f"^{name} must be"):
        FluxBundleSpec(*args, **kwargs)


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
    assert op.wilson_kernel.shape == (128, 128)
    phases = op.plaquette_phases()
    assert np.allclose(phases, phases[0, 0])
    assert np.isclose(phases[0, 0] ** 64, 1.0)      # total flux integral
    assert np.isclose(np.abs(phases[0, 0]), 1.0)
    assert np.isclose(np.angle(phases[0, 0]) * 64, 2 * np.pi * 3, atol=1e-12)


@pytest.mark.parametrize("n,d", [(8, 0), (8, 2), (10, -1)])
def test_graded_odd_hermitian(n, d):
    """i K is the graded-odd hermitian central-difference matrix on the
    off-diagonal blocks (mutually adjoint) plus i times the Wilson term,
    hermitian and the same on both diagonal blocks; H_W = gamma K is
    hermitian."""
    op = build_torus_dirac(FluxBundleSpec(n, d))
    k = op.wilson_kernel.toarray()
    g = op.grading
    assert np.allclose(g[:, None] * k, (g[:, None] * k).conj().T)
    v = n * n
    assert np.all(g[:v] < 0) and np.all(g[v:] > 0)
    dplus_naive = 1j * k[v:, :v]
    dminus_naive = 1j * k[:v, v:]
    assert np.allclose(dminus_naive, dplus_naive.conj().T)
    assert np.array_equal(k[:v, :v], k[v:, v:])
    assert np.allclose(k[:v, :v], k[:v, :v].conj().T)


def test_symmetric_spectrum_and_zero_index_flat():
    # the H_W spectrum is symmetric only without flux: V + d eigenvalues
    # are negative
    op = build_torus_dirac(FluxBundleSpec(8, 0))
    spectrum = op.overlap().spectrum
    assert np.allclose(spectrum, -spectrum[::-1])
    assert np.sum(build_torus_dirac(FluxBundleSpec(8, 2)).overlap().spectrum < 0) == 66
    result = index(op)
    assert result.index == 0
    assert result.dim_ker_plus == result.dim_ker_minus == 1


def test_kernel_dimension_basics():
    assert kernel_dimension(np.diag([0.0, 1.0, 2.0])).dimension == 1
    rng = np.random.default_rng(0)
    a = rng.normal(size=(25, 25)) + 5 * np.eye(25)
    assert kernel_dimension(a).dimension == 0
    for not_a_matrix in (np.zeros(3), sp.csr_matrix(np.eye(3))):
        with pytest.raises(ValueError, match="expects a matrix"):
            kernel_dimension(not_a_matrix)


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
    and each column's chirality flag is v^* gamma v < 0, for fresh operators
    (odd N included), gauge copies and disjoint unions (one overlap over
    both operators' blocks)."""
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
    minus = np.concatenate([op.sector_basis[2] for op in ops])
    assert np.max(np.abs(basis.conj().T @ basis - np.eye(len(g)))) <= 1e-12
    assert np.array_equal(minus, g @ np.abs(basis) ** 2 < 0)      # v^* gamma v per column
    h = (sp.diags(g) @ kernel).toarray()
    split = basis.conj().T @ h @ basis
    scale = np.max(np.abs(h))
    assert np.max(np.abs(split.imag)) <= 1e-12 * scale
    assert np.max(np.abs(split[sectors[:, None] != sectors[None, :]])) <= 1e-12 * scale

    blocks, minus_rows = [], []
    for op in ops:
        op_blocks, op_minus = op.sector_blocks()
        blocks += op_blocks
        minus_rows += op_minus
    try:
        ov = ti._Overlap(blocks, minus_rows)
    except AmbiguousKernelError:
        assume(False)
    evals, evecs = np.linalg.eigh(h)
    oracle = 2.0 * evecs[np.ix_(g < 0, evals < 0)]
    s_oracle = np.linalg.svd(oracle, compute_uv=False)
    dplus = basis[np.ix_(g < 0, np.flatnonzero(minus))] @ block_diag(*ov.dplus_blocks)
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
    """The union's sectors interleave in W (each operator lists its own in
    order); its overlap takes each operator's four blocks."""
    a, b = (_oracle_operators(n, d, gauge_seed) for n, d in (first, second))
    sectors = np.concatenate([a.sector_basis[1], b.sector_basis[1]])
    assert np.any(np.diff(sectors) < 0)
    ker_plus, ker_minus, _ = _complex_oracle(a, b)
    assert disjoint_union_index(a, b) == ker_plus - ker_minus == first[1] + second[1]


def _rotated_links(ux, uy):
    """The links carried by rho(x, y) = (-y, x): an x-link at s becomes the
    y-link at rho s and a y-link at s the x-link at rho s - x, reversed."""
    n = ux.shape[0]
    x, y = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    ux2, uy2 = np.empty_like(ux), np.empty_like(uy)
    uy2[-y % n, x] = ux
    ux2[(-y - 1) % n, x] = np.conj(uy)
    return ux2, uy2


def _operator_on(spec, ux, uy):
    op = ti.LatticeOperator.__new__(ti.LatticeOperator)
    op._assemble(spec, ux, uy)
    return op


def test_overlap_refuses_complex_or_off_sector_blocks(monkeypatch):
    """Each check of the block builder refuses: links without the rotation
    S (a flat x-twist, which T keeps), links with S but without T (the
    flux links times a rotation-invariant, reflection-odd pinwheel of four
    link phases; no flat twist does this, because a flat twist that keeps
    S has real and equal holonomies, which T keeps), a stencil entry that
    is not hermitian, and sector columns with random phases, whose blocks
    are complex."""
    spec = FluxBundleSpec(6, 1)
    ux, uy = ti.flux_links(spec)
    with pytest.raises(ValueError, match="rotation symmetry: H_W does not commute with S"):
        _operator_on(spec, ux * np.exp(0.3j / 6), uy).overlap()
    with pytest.raises(ValueError, match="symmetry"):
        _operator_on(spec, ux * np.exp(0.3j / 6), uy * np.exp(0.3j / 6)).overlap()

    px, py = np.ones((2, 6, 6), dtype=complex)
    px[1, 2] = np.exp(0.4j)
    pinwheel = [px, py]
    for _ in range(3):
        px, py = _rotated_links(px, py)
        pinwheel = [pinwheel[0] * px, pinwheel[1] * py]
    assert all(np.allclose(a, b) for a, b in zip(_rotated_links(*pinwheel), pinwheel))
    with pytest.raises(ValueError, match="reflection symmetry: H_W does not commute with T"):
        _operator_on(spec, ux * pinwheel[0], uy * pinwheel[1]).overlap()

    op = build_torus_dirac(spec)
    rows, cols, values = op.triplets
    values[np.flatnonzero(rows != cols)[5]] += 1e-9
    with pytest.raises(ValueError, match="hermitian"):
        op.overlap()

    columns = ti._sector_columns

    def with_phases(*args):
        sc = columns(*args)
        phases = np.exp(1j * np.random.default_rng(2).uniform(0, 2 * np.pi, len(sc.own)))
        return sc._replace(own=sc.own * phases, other=sc.other * phases)

    monkeypatch.setattr(ti, "_sector_columns", with_phases)
    with pytest.raises(ValueError, match="symmetry: H_W is not real"):
        build_torus_dirac(spec).overlap()


def _sparse_product_blocks(op):
    """The old sector blocks: W^* H_W W as one sparse product, cut into its
    four sectors, with each sector's minus flags."""
    basis, sectors, minus = op.sector_basis
    product = (basis.conj().T @ sp.diags(op.grading) @ op.wilson_kernel @ basis).toarray()
    return product, [(product[np.ix_(sectors == k, sectors == k)], minus[sectors == k])
                     for k in range(4)]


@pytest.mark.parametrize("n,d,r,mass", [(4, 4, 1.0, 1.0), (5, -6, 0.7, 1.3), (6, 1, 1.0, 0.05),
                                        (7, 12, 1.5, 1.95), (8, -16, 0.6, 1.1), (9, 3, 1.2, 0.4)])
@pytest.mark.parametrize("gauge_seed", [None, 5])
def test_sector_blocks_match_the_sparse_product(n, d, r, mass, gauge_seed):
    """The blocks built from the stencil against W^* H_W W, fresh and gauge
    copies, odd N, |d| = N^2/4 and varied r and m0; the minus columns come
    first in each block."""
    op = build_torus_dirac(FluxBundleSpec(n, d, wilson_r=r, wilson_mass=mass))
    if gauge_seed is not None:
        op = gauge_transform(op, np.random.default_rng(gauge_seed).uniform(0, 2 * np.pi, (n, n)))
    blocks, minus_rows = op.sector_blocks()
    product, oracle = _sparse_product_blocks(op)
    scale = max(1.0, abs(op.wilson_kernel).max())
    assert sum(b.size for b in blocks) == sum(w.size for w, _ in oracle)
    for block, rows, (want, flags) in zip(blocks, minus_rows, oracle):
        assert block.dtype == float and block.shape == want.shape
        assert np.max(np.abs(block - want)) <= 1e-13 * scale
        assert np.array_equal(np.arange(len(flags)) < rows, flags)


def test_geometry_is_cached_read_only_and_link_free():
    geo = ti._geometry(6)
    assert ti._geometry(6) is geo
    for name, array in geo._asdict().items():
        assert not array.flags.writeable, name
    with pytest.raises(ValueError, match="read-only"):
        geo.rows[0] = 1
    op = build_torus_dirac(FluxBundleSpec(6, 1))
    rows, cols, values = op.triplets
    assert rows is geo.rows and cols is geo.cols and values.flags.writeable


def test_index_path_does_not_import_scipy_sparse():
    code = "\n".join([
        "import sys",
        "import numpy as np",
        "import spindex",
        "from spindex import torus_index as ti",
        "spec = ti.FluxBundleSpec(8, 1)",
        "assert ti.index(ti.build_torus_dirac(spec)).index == 1",
        "phases = np.random.default_rng(0).uniform(0, 6, (8, 8))",
        "assert ti.index(ti.gauge_transform(ti.build_torus_dirac(spec), phases)).index == 1",
        "other = ti.build_torus_dirac(ti.FluxBundleSpec(6, -2))",
        "assert ti.disjoint_union_index(ti.build_torus_dirac(spec), other) == -1",
        "assert ti.spectral_flow(ti.shift_family(0.5, 1.5)) == 1",
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(ti.__file__).parents[1])] + env.get("PYTHONPATH", "").split(os.pathsep))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "scipy.sparse" not in out.stdout


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
    assert np.max(np.abs(op.overlap().spectrum - moved.overlap().spectrum)) < 1e-10
    assert np.allclose(moved.plaquette_phases(), op.plaquette_phases())
    assert index(op).index == index(moved).index == 2


@pytest.mark.parametrize("n,d", [(5, -2), (7, 3), (8, 1), (10, -3)])
def test_hw_spectrum_is_gauge_covariant(n, d):
    # odd N has sites that the rotation fixes, so its sector basis differs
    op = build_torus_dirac(FluxBundleSpec(n, d))
    moved = gauge_transform(op, np.random.default_rng(n).uniform(0, 2 * np.pi, (n, n)))
    assert not np.allclose(moved.wilson_kernel.toarray(), op.wilson_kernel.toarray())
    assert np.max(np.abs(op.overlap().spectrum - moved.overlap().spectrum)) < 1e-10


@pytest.mark.parametrize("n", [5, 8])
def test_gauge_transform_by_zero_phases_is_identity(n):
    op = build_torus_dirac(FluxBundleSpec(n, 1))
    same = gauge_transform(op, np.zeros((n, n)))
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
    """``wilson_kernel`` by the Kronecker formula, from the
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
    return sp.csr_matrix(-1j * matrix + sp.kron(sp.identity(2, dtype=complex), wilson)
                         - m0 * sp.identity(2 * v, dtype=complex))


@pytest.mark.parametrize("n", [4, 5, 7, 8])
def test_assembly_matches_the_kron_formula(n):
    rng = np.random.default_rng(20 + n)
    spec = FluxBundleSpec(n, 2 - n, wilson_r=0.7, wilson_mass=1.3)
    fresh = build_torus_dirac(spec)
    copy = gauge_transform(fresh, rng.uniform(0, 2 * np.pi, (n, n)))
    random = ti.LatticeOperator.__new__(ti.LatticeOperator)
    random._assemble(spec, *np.exp(1j * rng.uniform(0, 2 * np.pi, size=(2, n, n))))
    for op in (fresh, copy, random):
        built, formula = op.wilson_kernel, _kron_assembly(op)
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
    # %.17g is exact for float64: the triplets read back to the Wilson kernel
    for spec in (FluxBundleSpec(8, 0), FluxBundleSpec(7, -3, wilson_r=0.7, wilson_mass=1.3)):
        op = build_torus_dirac(spec)
        buf = io.StringIO()
        op.export_triplets(buf)
        assert len(buf.getvalue().splitlines()) == op.wilson_kernel.nnz
        row, col, re, im = np.loadtxt(io.StringIO(buf.getvalue()), unpack=True)
        read = sp.csr_matrix((re + 1j * im, (row.astype(int), col.astype(int))),
                             shape=op.wilson_kernel.shape)
        assert read.nnz == op.wilson_kernel.nnz
        assert (read != op.wilson_kernel).nnz == 0


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


@pytest.mark.parametrize("t0,t1,name", [(math.nan, 1.5, "t_start"),
                                         (0.5, math.inf, "t_end"), (-math.inf, 0.5, "t_start")])
def test_family_refuses_non_finite_endpoints(t0, t1, name):
    # a nan endpoint failed inside LAPACK ("Eigenvalues did not converge")
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        shift_family(t0, t1)


def test_family_requires_hermitian():
    fam = ti.FamilySpec(0.1, 1.1, lambda t: np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        spectral_flow(fam)


@pytest.mark.parametrize("bad,words", [
    (np.array([[np.nan]]), "not finite"), (np.array([[1.0, np.inf], [np.inf, 1.0]]), "not finite"),
    (np.ones((2, 3)), "not a square matrix"), (np.ones(3), "not a square matrix")])
@pytest.mark.parametrize("at_end", [False, True])
def test_spectral_flow_refuses_non_finite_or_non_square_endpoints(bad, words, at_end):
    # a nan matrix gave flow 0 silently; a non-square one a LinAlgError or a
    # numpy broadcast message
    good = np.diag([1.0, -2.0])
    fam = ti.FamilySpec(0.25, 1.5, lambda t: bad if (t == 1.5) == at_end else good)
    with pytest.raises(ValueError, match=f"t = {1.5 if at_end else 0.25} .*{words}"):
        spectral_flow(fam)


def test_flow_reversal_negates():
    eps = 1e-3
    forward = spectral_flow(shift_family(eps, 3 + eps))
    backward = spectral_flow(shift_family(3 + eps, eps))
    assert forward == -backward == 3
