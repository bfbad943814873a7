"""Numerically certified Dirac indices on the flat 2-torus.

A uniform-flux U(1) gauge field (total flux 2*pi*d, one transition-twisted
link column) twists the two-component Dirac operator on an N x N periodic
lattice.  The assembled site-basis operator is the graded-odd hermitian
central-difference Dirac matrix; because any such ultralocal chirality-graded
operator carries doublers, the index pipeline runs through the overlap
operator built from the Wilson kernel (central differences plus Wilson term,
mass in (0, 2)).  Its modified grading splits the space into pieces whose
dimensions differ by exactly the spectral asymmetry, so the chiral blocks are
genuinely rectangular, mutually adjoint, and their kernel dimensions realize
dim ker - dim coker with gap certificates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from . import spinors

_G1, _G2 = spinors.gamma_matrices(2)      # paper convention gamma^2 = -1

MAX_DENSE_N = 24
ZERO_THRESHOLD = float(np.sqrt(np.finfo(float).eps))  # times the largest singular value
MIN_GAP_RATIO = 1e3      # required smallest kept / largest zero singular value


class AmbiguousKernelError(RuntimeError):
    """No 10^3 relative gap between accepted zero modes and the rest."""


class NonConvergenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class FluxBundleSpec:
    """N x N torus lattice carrying a line bundle of Chern number d."""

    lattice_size: int
    flux: int
    wilson_r: float = 1.0
    wilson_mass: float = 1.0

    def __post_init__(self):
        n, d = self.lattice_size, self.flux
        if n < 4:
            raise ValueError("lattice size must be at least 4")
        if n > MAX_DENSE_N:
            raise ValueError(f"dense eigensolver path capped at N = {MAX_DENSE_N}")
        if abs(d) > n * n // 4:
            raise ValueError(f"flux {d} too large for an N = {n} lattice "
                             "(unreliable beyond N^2/4)")
        if not 0.0 < self.wilson_mass < 2.0:
            raise ValueError("Wilson mass must lie in the open interval (0, 2)")
        if self.wilson_r <= 0.0:
            raise ValueError("Wilson coupling must be positive")

    @property
    def sites(self) -> int:
        return self.lattice_size ** 2


def flux_links(spec: FluxBundleSpec) -> Tuple[np.ndarray, np.ndarray]:
    """U(1) link phases with uniform plaquette curvature.

    Landau-type gauge on the y-links plus a transition twist on the wrapping
    x-column; every plaquette then carries exactly exp(2*pi*i*d/N^2) and the
    total flux is exact.
    """
    n, d = spec.lattice_size, spec.flux
    phi = 2.0 * np.pi * d / (n * n)
    ux = np.ones((n, n), dtype=complex)
    xs = np.arange(n)
    uy = np.exp(1j * phi * xs)[:, None] * np.ones((1, n))
    ux[n - 1, :] = np.exp(-1j * phi * n * np.arange(n))
    return ux, uy


class LatticeOperator:
    """Discretized Dirac-type operator with flux data.

    ``matrix`` is the graded-odd hermitian central-difference Dirac matrix
    (site-wise grading +1/-1 on the two spinor components, off-diagonal
    blocks mutually adjoint).  The Wilson kernel used by the index pipeline
    is kept alongside; the real basis of H_W (``real_basis``), the overlap
    data (one real H_W eigendecomposition) and the rectangular chiral
    blocks are computed on demand and cached.
    """

    def __init__(self, spec: FluxBundleSpec):
        self._assemble(spec, *flux_links(spec))

    def _assemble(self, spec: FluxBundleSpec, ux: np.ndarray, uy: np.ndarray) -> None:
        self.spec = spec
        self.ux, self.uy = ux, uy
        v = spec.sites
        t1, t2 = _shift_operators(ux, uy)
        d1 = (t1 - t1.conj().T) * 0.5
        d2 = (t2 - t2.conj().T) * 0.5
        self.matrix = sp.csr_matrix(
            sp.kron(sp.csr_matrix(_G1), d1) + sp.kron(sp.csr_matrix(_G2), d2))
        # chirality orientation: the second spinor component is S+, which
        # pairs the positive-flux bundle with holomorphic zero modes
        self.grading = np.concatenate([-np.ones(v), np.ones(v)])
        r, m0 = spec.wilson_r, spec.wilson_mass
        wilson = 0.5 * r * (4.0 * sp.identity(v, dtype=complex)
                            - t1 - t1.conj().T - t2 - t2.conj().T)
        self.wilson_kernel = sp.csr_matrix(
            -1j * self.matrix + sp.kron(sp.identity(2, dtype=complex), wilson)
            - m0 * sp.identity(2 * v, dtype=complex))
        self._overlap: Optional[_Overlap] = None

    def plaquette_phases(self) -> np.ndarray:
        ux, uy = self.ux, self.uy
        return (ux * np.roll(uy, -1, axis=0)
                * np.conj(np.roll(ux, -1, axis=1)) * np.conj(uy))

    @cached_property
    def real_basis(self) -> sp.csr_matrix:
        """The T-invariant orthonormal basis W of ``_real_basis``."""
        return _real_basis(self.ux, self.uy)

    def overlap(self) -> "_Overlap":
        if self._overlap is None:
            self._overlap = _Overlap(self.wilson_kernel, self.grading, self.real_basis)
        return self._overlap

    def chiral_blocks(self) -> Tuple[np.ndarray, np.ndarray]:
        """Rectangular mutually adjoint blocks (D+, D-) with D- = (D+)^*,
        in the site basis: W[minus, minus] times the real-basis D+."""
        v = self.spec.sites
        dplus = self.real_basis[:v, :v] @ self.overlap().dplus
        return dplus, dplus.conj().T

    def export_triplets(self, stream) -> None:
        """Coordinate text format: one line per entry 'row col re im'."""
        coo = self.matrix.tocoo()
        for r, c, z in zip(coo.row, coo.col, coo.data):
            stream.write(f"{r} {c} {z.real:.17g} {z.imag:.17g}\n")


def _shift_operators(ux: np.ndarray, uy: np.ndarray) -> Tuple[sp.csr_matrix, sp.csr_matrix]:
    """Link-weighted forward shifts: site (x, y) is row x*N + y, and t1
    (t2) carries ux[x, y] (uy[x, y]) to the neighbour at x + 1 (y + 1)."""
    n = ux.shape[0]
    site = np.arange(n * n).reshape(n, n)

    def shift(links: np.ndarray, axis: int) -> sp.csr_matrix:
        cols = np.roll(site, -1, axis=axis).ravel()
        return sp.csr_matrix((links.ravel(), (site.ravel(), cols)), shape=(n * n, n * n))

    return shift(ux, 0), shift(uy, 1)


def _real_basis(ux: np.ndarray, uy: np.ndarray) -> sp.csr_matrix:
    """Orthonormal basis W fixed by the antiunitary T = D (sigma3 x R_x) K.

    K (complex conjugation) sends the flux d to -d and the reflection
    R_x: (x, y) -> (-x, y) sends it back.  Both together keep every
    holonomy: an x-loop is conjugated and reversed, and the y-loop of the
    column x is sent to the conjugate of the column -x, whose holonomy is
    conj h(x) because h(0) = 1 and the flux is uniform.  So the conjugated,
    reflected links are a gauge copy of the links, with the site phase
    D(x+1, y) = D(x, y) ux(-x-1, y) / ux(x, y) and
    D(x, y+1) = D(x, y) / (uy(x, y) uy(-x, y)).  R_x reverses the
    x-difference and K the imaginary gamma^1; sigma3 (+1 on the minus
    block), which anticommutes with both gammas, undoes the two signs.  So
    T commutes with H_W, T^2 = +1, and H_W is real symmetric in a
    T-invariant basis (Dyson, J. Math. Phys. 3 (1962) 1199).

    U = D (sigma3 x R_x) has one unimodular entry u per column: a site fixed
    by R_x gives sqrt(u) e_j, and a pair j < k = R_x j gives
    (e_j + u e_k)/sqrt(2) in column j and i (e_j - u e_k)/sqrt(2) in column
    k.  W is unitary and block diagonal in chirality.  Links without the
    symmetry give a W^* H_W W that is not real, which _Overlap refuses.
    """
    n = ux.shape[0]
    xs = np.arange(n)
    mirror = -xs % n
    along_x = np.cumprod(ux[(-xs - 1) % n, 0] / ux[:, 0])
    along_y = np.cumprod(np.conj(uy * uy[mirror]), axis=1)
    phase = (np.concatenate([[1.0], along_x[:-1]])[:, None]
             * np.concatenate([np.ones((n, 1)), along_y[:, :-1]], axis=1)).ravel()
    v = n * n
    reflected = (mirror[:, None] * n + xs[None, :]).ravel()
    perm = np.concatenate([reflected, reflected + v])
    u = np.concatenate([phase, -phase])[perm]       # U[perm[j], j]
    idx = np.arange(2 * v)
    fixed, lo, hi = perm == idx, idx < perm, idx > perm
    half = np.sqrt(0.5)
    rows = np.concatenate([idx[fixed], idx[lo], perm[lo], perm[hi], idx[hi]])
    cols = np.concatenate([idx[fixed], idx[lo], idx[lo], idx[hi], idx[hi]])
    data = np.concatenate([np.sqrt(u[fixed]), np.full(lo.sum(), half), half * u[lo],
                           np.full(hi.sum(), 1j * half), -1j * half * u[perm[hi]]])
    return sp.csr_matrix((data, (rows, cols)), shape=(2 * v, 2 * v))


def build_torus_dirac(spec: FluxBundleSpec) -> LatticeOperator:
    return LatticeOperator(spec)


# ---------------------------------------------------------------------------
# kernel dimension with a gap certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelResult:
    dimension: int
    gap: float            # smallest singular value kept as nonzero
    largest_zero: float   # largest singular value accepted as zero
    threshold: float
    singular_values: np.ndarray = field(repr=False, compare=False)  # descending


def kernel_dimension(op) -> KernelResult:
    """Numerical kernel dimension of a (possibly rectangular) matrix.

    Real input is decomposed in real arithmetic (integers as floats).
    Counts singular values below sqrt(machine eps) times the largest one;
    a matrix with more columns than rows contributes the shape deficit as
    exact zeros.  Raises :class:`AmbiguousKernelError` unless the accepted
    zeros lie at least ``MIN_GAP_RATIO`` below the rest.
    """
    a = np.asarray(op.toarray() if sp.issparse(op) else op)
    a = a.astype(np.result_type(a, float), copy=False)     # real stays real
    if a.ndim != 2:
        raise ValueError("kernel_dimension expects a matrix")
    svals = np.linalg.svd(a, compute_uv=False) if min(a.shape) else np.array([])
    implicit = a.shape[1] - len(svals)
    if not len(svals):
        return KernelResult(implicit, np.inf, 0.0, 0.0, svals)
    threshold = ZERO_THRESHOLD * max(float(svals[0]), 1e-300)
    below = svals[svals < threshold]
    kept = svals[svals >= threshold]
    dimension = implicit + len(below)
    largest_zero = float(below[0]) if len(below) else 0.0
    gap = float(kept[-1]) if len(kept) else np.inf
    if len(below) and len(kept):
        ratio = gap / max(largest_zero, 1e-300)
        if ratio < MIN_GAP_RATIO:
            raise AmbiguousKernelError(
                f"zero modes not separated: gap ratio {ratio:.2e} < "
                f"{MIN_GAP_RATIO:.0e}; refine the lattice")
    return KernelResult(dimension, gap, largest_zero, threshold, svals)


# ---------------------------------------------------------------------------
# the overlap pipeline
# ---------------------------------------------------------------------------

class _Overlap:
    """Overlap data from one eigendecomposition of H_W = gamma K (Neuberger
    1998), Q-/Q+ being its eigenvectors of negative/positive eigenvalue.
    D = 1 + gamma sign(H_W) sends Q- to twice its minus rows and Q+ to twice
    its plus rows, so no sign matrix is formed: D+ = 2 Q-[minus rows] (on the
    +1 space of the modified grading -sign(H_W)); D- = (D+)^* has the same
    singular values; and D^*D = D + D^* (Luscher 1998) is block diagonal in
    gamma, 4 Q+[plus rows] Q+[plus rows]^* on the plus rows and D+ D+^* on
    the minus rows.

    The eigensolve is real: ``basis`` is the T-invariant unitary W of
    ``_real_basis`` (block diagonal in gamma), W^* H_W W is real symmetric,
    and its real eigenvectors Q_r give Q = W Q_r.  So ``dplus`` is
    2 Q_r[minus rows], D+ in the site basis is W[minus, minus] ``dplus``,
    and both blocks keep their singular values in the real basis."""

    def __init__(self, kernel: sp.spmatrix, grading: np.ndarray, basis: sp.spmatrix):
        h = sp.diags(grading) @ kernel
        if abs(h - h.conj().T).max() > 1e-12 * max(1.0, abs(h).max()):
            raise ValueError("hermitized Wilson kernel is not hermitian")
        h = basis.conj().T @ h @ basis
        if abs(h.imag).max() > 1e-12 * max(1.0, abs(h).max()):
            raise ValueError("links lack the antiunitary symmetry: H_W is not "
                             "real in the T-invariant basis")
        evals, evecs = np.linalg.eigh(h.real.toarray())
        hgap = float(np.min(np.abs(evals)))
        if hgap < 1e-10 * max(float(np.max(np.abs(evals))), 1e-300):
            raise AmbiguousKernelError(
                "Wilson kernel has a near-zero mode; the sign function is "
                "ill-defined (shift the mass or refine the lattice)")
        # the diagonal of sign(H_W) = Q sign(l) Q^*, summed (W keeps the trace)
        self.sign_trace = float((evecs ** 2 @ np.sign(evals)).sum())
        minus, negative = grading < 0, evals < 0
        self.dplus = 2.0 * evecs[np.ix_(minus, negative)]
        self._plus_block = evecs[np.ix_(~minus, ~negative)]

    @cached_property
    def kernels(self) -> Tuple[KernelResult, KernelResult]:
        """(ker D+, ker D-) from one SVD: D- = (D+)^* adds rows - cols zeros."""
        ker_plus = kernel_dimension(self.dplus)
        rows, cols = self.dplus.shape
        return ker_plus, replace(ker_plus, dimension=ker_plus.dimension + rows - cols)

    def zero_mode_chiralities(self) -> Tuple[int, int]:
        """(plus, minus) counts of D^*D eigenvalues below ZERO_THRESHOLD times
        the largest: 4 s^2 for the singular values s of Q+[plus rows], sigma^2
        for those of D+, each padded with zeros to its block size."""
        plus = 4.0 * np.linalg.svd(self._plus_block, compute_uv=False) ** 2
        minus = self.kernels[0].singular_values ** 2
        thr = ZERO_THRESHOLD * max(plus.max(initial=0.0), minus.max(initial=0.0), 1e-300)
        return (self._plus_block.shape[0] - int(np.sum(plus >= thr)),
                self.dplus.shape[0] - int(np.sum(minus >= thr)))


@dataclass(frozen=True)
class IndexResult:
    lattice_size: int
    flux: int
    dim_ker_plus: int
    dim_ker_minus: int
    index: int
    spectral_gap: float

    def __post_init__(self):
        if self.index != self.dim_ker_plus - self.dim_ker_minus:
            raise ValueError("index must equal dim_ker_plus - dim_ker_minus")

    def to_json(self) -> dict:
        return {"N": self.lattice_size, "d": self.flux,
                "dim_ker_plus": self.dim_ker_plus,
                "dim_ker_minus": self.dim_ker_minus,
                "index": self.index, "gap": self.spectral_gap}


def index(op: LatticeOperator) -> IndexResult:
    """dim ker D+ - dim ker D- from one eigendecomposition of H_W (_Overlap):
    D+ = 2 Q-[minus rows], D- = (D+)^* has its singular values, and D^*D is
    block diagonal in gamma.  The eigensolve is real symmetric: H_W commutes
    with the antiunitary T = D (sigma3 x R_x) K, T^2 = +1, because charge
    conjugation and the reflection x -> -x together keep the flux and the
    holonomies (_real_basis), so H_W is real in the T-invariant basis W and
    the blocks are read there.  Kernel counts, zero-mode chiralities and
    spectral asymmetry must agree, which guards against numerical failure
    only: the first equals the blocks' shape difference and the second
    -1/2 Tr sign(H_W) (Luscher 1998)."""
    ov = op.overlap()
    ker_plus, ker_minus = ov.kernels
    idx = ker_plus.dimension - ker_minus.dimension
    asym = -0.5 * ov.sign_trace
    if abs(asym - round(asym)) > 1e-6 or int(round(asym)) != idx:
        raise NonConvergenceError(
            f"kernel count {idx} disagrees with spectral asymmetry {asym}")
    if ov.zero_mode_chiralities() != (ker_plus.dimension, ker_minus.dimension):
        raise NonConvergenceError(
            "chirality split of overlap zero modes disagrees with the "
            "chiral-block kernels")
    gap = min(ker_plus.gap, ker_minus.gap)
    return IndexResult(op.spec.lattice_size, op.spec.flux,
                       ker_plus.dimension, ker_minus.dimension, idx, float(gap))


def disjoint_union_index(a: LatticeOperator, b: LatticeOperator) -> int:
    """Index over the block direct sum of two lattice operators."""
    ker_plus, ker_minus = _Overlap(sp.block_diag((a.wilson_kernel, b.wilson_kernel)),
                                   np.concatenate([a.grading, b.grading]),
                                   sp.block_diag((a.real_basis, b.real_basis))).kernels
    return ker_plus.dimension - ker_minus.dimension


def gauge_transform(op: LatticeOperator, phases: np.ndarray) -> LatticeOperator:
    """Conjugate all link variables by a site-local U(1) gauge change."""
    if phases.shape != op.ux.shape:
        raise ValueError("phase array must be N x N")
    g = np.exp(1j * phases)
    out = LatticeOperator.__new__(LatticeOperator)
    out._assemble(op.spec, op.ux * g * np.conj(np.roll(g, -1, axis=0)),
                  op.uy * g * np.conj(np.roll(g, -1, axis=1)))
    return out


# ---------------------------------------------------------------------------
# spectral flow
# ---------------------------------------------------------------------------

ENDPOINT_TOL = 1e-9      # relative size of an endpoint eigenvalue read as zero


@dataclass(frozen=True)
class FamilySpec:
    """A path t -> builder(t) of hermitian matrices over [t_start, t_end].
    Its continuity is the caller's promise; no grid of samples could check it."""

    t_start: float
    t_end: float
    builder: Callable[[float], np.ndarray]

    def __post_init__(self):
        if self.t_end == self.t_start:
            raise ValueError("parameter interval is degenerate")


def spectral_flow(fam: FamilySpec) -> int:
    """Signed count of eigenvalues crossing zero upward along the path:
    n_-(t_start) - n_-(t_end) for a continuous hermitian path with invertible
    ends (Atiyah-Patodi-Singer III, 1976; Phillips, Canad. Math. Bull. 39
    (1996) 460), so one eigensolve per endpoint gives it.  An endpoint
    eigenvalue within ENDPOINT_TOL (relative) of zero raises
    NonConvergenceError.
    """
    negatives = []
    for t in (fam.t_start, fam.t_end):
        m = np.asarray(fam.builder(t), dtype=complex)
        if np.max(np.abs(m - m.conj().T)) > 1e-10 * max(1.0, float(np.max(np.abs(m)))):
            raise ValueError("family operators must be self-adjoint")
        evals = np.linalg.eigvalsh(m)
        scale = max(float(np.max(np.abs(evals))), 1.0)
        if np.min(np.abs(evals)) < ENDPOINT_TOL * scale:
            raise NonConvergenceError(
                f"endpoint t = {t} has an eigenvalue within tolerance of zero")
        negatives.append(int(np.sum(evals < 0.0)))
    return negatives[0] - negatives[1]


def shift_family(t_start: float, t_end: float, modes: int = 32) -> FamilySpec:
    """The circle family -i d/dtheta + t in a Fourier truncation |n| <= modes;
    eigenvalues are exactly n + t."""
    ns = np.arange(-modes, modes + 1, dtype=float)

    def builder(t: float) -> np.ndarray:
        return np.diag(ns + t)

    return FamilySpec(t_start, t_end, builder)


def constant_family(matrix: np.ndarray, t_end: float = 1.0) -> FamilySpec:
    frozen = np.asarray(matrix, dtype=complex)
    return FamilySpec(0.0, t_end, lambda t: frozen)
