"""Numerically certified Dirac indices on the flat 2-torus.

A uniform-flux U(1) gauge field (total flux 2*pi*d, one transition-twisted
link column) twists the two-component Dirac operator on an N x N periodic
lattice.  Ultralocal chirality-graded operators carry doublers and cannot
see the index, so the one assembled operator is the Wilson kernel K
(central differences plus Wilson term, mass in (0, 2) and below 2r, where
the first doubler modes cross zero), and the index is read from the overlap
operator of H_W = gamma K.  Its modified grading splits the space into
pieces whose dimensions differ by exactly the spectral asymmetry, so the
chiral blocks are genuinely rectangular, mutually adjoint, and their kernel
dimensions realize dim ker - dim coker with gap certificates.
"""

from __future__ import annotations

import math
import operator
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


def _require_finite(spec, *names: str) -> None:
    """ValueError naming the first of the fields that is not finite."""
    for name in names:
        value = getattr(spec, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class FluxBundleSpec:
    """N x N torus lattice carrying a line bundle of Chern number d."""

    lattice_size: int
    flux: int
    wilson_r: float = 1.0
    wilson_mass: float = 1.0

    def __post_init__(self):
        for name in ("lattice_size", "flux"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer, "
                                 f"got {getattr(self, name)!r}") from None
        _require_finite(self, "wilson_r", "wilson_mass")
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
        if self.wilson_mass >= 2.0 * self.wilson_r:
            raise ValueError("Wilson mass must lie below 2r, where the first "
                             "doubler modes cross zero")

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
    """The Wilson kernel of the flux-twisted Dirac operator, with its links.

    ``wilson_kernel`` is K = -i D + r/2 (4 - hops) - m0, D the central
    differences, and ``grading`` is +1/-1 site-wise on the two spinor
    components; H_W = gamma K is hermitian.  The sector basis of H_W, the
    overlap data and the rectangular chiral blocks are computed on demand
    and cached.

    K is one CSR construction from a five-point stencil: the hop from site
    s to its forward neighbour along axis mu carries u_mu(s) and the hop
    back conj(u_mu(s)).  -i D puts -i u/2 and +i conj(u)/2 on the spinor
    entries of gamma^mu, the Wilson term -r/2 u and -r/2 conj(u) on both
    spinor components, and the diagonal is 2r - m0.
    """

    def __init__(self, spec: FluxBundleSpec):
        self._assemble(spec, *flux_links(spec))

    def _assemble(self, spec: FluxBundleSpec, ux: np.ndarray, uy: np.ndarray) -> None:
        self.spec = spec
        self.ux, self.uy = ux, uy
        v = spec.sites
        site = np.arange(v)
        # the 4V directed hops, axis by axis: s -> s + mu carries u[s], the
        # hop back conj(u[s]); shape (2 axes, 2V hops)
        ahead = _neighbours(spec.lattice_size)
        hop_rows = np.stack([np.concatenate([site, a]) for a in ahead])
        hop_cols = np.stack([np.concatenate([a, site]) for a in ahead])
        links = np.stack([np.concatenate([u.ravel(), np.conj(u).ravel()]) for u in (ux, uy)])
        # central differences -i D: -i u/2 forward, +i conj(u)/2 back, on
        # the spinor entries (a, b) of gamma^mu
        half = 0.5 * links * np.repeat([1.0, -1.0], v)
        gammas = np.stack([_G1, _G2])
        mu, a, b = np.nonzero(gammas)
        rows = (a[:, None] * v + hop_rows[mu]).ravel()
        cols = (b[:, None] * v + hop_cols[mu]).ravel()
        differences = -1j * (gammas[mu, a, b][:, None] * half[mu]).ravel()
        # chirality orientation: the second spinor component is S+, which
        # pairs the positive-flux bundle with holomorphic zero modes
        self.grading = np.concatenate([-np.ones(v), np.ones(v)])
        # kernel -i D + W - m0 with the Wilson term W = r/2 (4 - hops): hops
        # -r/2 u and -r/2 conj(u) and the diagonal 2r - m0 on each component
        r, m0 = spec.wilson_r, spec.wilson_mass
        chiral = np.arange(2)[:, None] * v
        same_rows = (chiral + np.concatenate([hop_rows.ravel(), site])).ravel()
        same_cols = (chiral + np.concatenate([hop_cols.ravel(), site])).ravel()
        same = np.concatenate([-0.5 * r * links.ravel(), np.full(v, 2.0 * r - m0)])
        self.wilson_kernel = sp.csr_matrix(
            (np.concatenate([differences, same, same]),
             (np.concatenate([rows, same_rows]), np.concatenate([cols, same_cols]))),
            shape=(2 * v, 2 * v))
        self._overlap: Optional[_Overlap] = None

    def plaquette_phases(self) -> np.ndarray:
        ux, uy = self.ux, self.uy
        return (ux * np.roll(uy, -1, axis=0)
                * np.conj(np.roll(ux, -1, axis=1)) * np.conj(uy))

    @cached_property
    def sector_basis(self) -> Tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
        """W, each column's sector and its minus flag (``_sector_basis``)."""
        return _sector_basis(self.ux, self.uy)

    def overlap(self) -> "_Overlap":
        if self._overlap is None:
            self._overlap = _Overlap(self.wilson_kernel, self.grading, *self.sector_basis)
        return self._overlap

    def chiral_blocks(self) -> Tuple[np.ndarray, np.ndarray]:
        """Rectangular mutually adjoint blocks (D+, D-) with D- = (D+)^*,
        in the site basis: the minus rows of W's minus columns times the
        block diagonal sector-basis D+."""
        ov = self.overlap()
        basis = self.sector_basis[0][:self.spec.sites]
        dplus = (basis[:, ov.minus_columns] @ sp.block_diag(ov.dplus_blocks)).toarray()
        return dplus, dplus.conj().T

    def export_triplets(self, stream) -> None:
        """The Wilson kernel as coordinate text, one line 'row col re im' per entry."""
        coo = self.wilson_kernel.tocoo()
        for r, c, z in zip(coo.row, coo.col, coo.data):
            stream.write(f"{r} {c} {z.real:.17g} {z.imag:.17g}\n")


def _neighbours(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Forward neighbours of every site: site (x, y) is row x*N + y, and
    entry s of the two arrays is the site at x + 1 and at y + 1, where the
    hop from s carries ux[x, y] and uy[x, y]."""
    site = np.arange(n * n).reshape(n, n)
    return np.roll(site, -1, axis=0).ravel(), np.roll(site, -1, axis=1).ravel()


def _gauge_phase(ux: np.ndarray, uy: np.ndarray,
                 ux_image: np.ndarray, uy_image: np.ndarray) -> np.ndarray:
    """Site phase g with g(0, 0) = 1 and g(s + mu) = g(s) u'(s) / u(s),
    accumulated along the row y = 0 and then up each column: when the image
    links u' are a gauge copy of u, multiplication by g carries the hopping
    terms of u' to those of u."""
    n = ux.shape[0]
    along_x = np.cumprod(ux_image[:, 0] / ux[:, 0])
    along_y = np.cumprod(uy_image / uy, axis=1)
    return (np.concatenate([[1.0], along_x[:-1]])[:, None]
            * np.concatenate([np.ones((n, 1)), along_y[:, :-1]], axis=1)).ravel()


def _monomial(dest: np.ndarray, g: np.ndarray, spin: Tuple[complex, complex]):
    """(perm, phase) of the map e_j -> phase[j] e_perm[j] that sends a site
    s to dest[s], multiplies the two spinor components by ``spin`` and then
    every site by g."""
    v = len(dest)
    perm = np.concatenate([dest, dest + v])
    return perm, np.concatenate([spin[0] * g, spin[1] * g])[perm]


def _symmetries(ux: np.ndarray, uy: np.ndarray):
    """The rotation S = G (diag(1, i) x rho) and the unitary part U of the
    antiunitary T = U K = D (sigma3 x R_x) K, each as ``_monomial`` data.

    rho(x, y) = (-y, x) turns x-links into y-links and y-links into reversed
    x-links: uy'(rho s) = ux(s), ux'(rho s - x) = conj uy(s).  It keeps the
    plaquette flux, and for the flux links, whose holonomies along the two
    axes are equal, the rotated links are a gauge copy with site phase G.
    diag(1, i) carries gamma^1 to gamma^2 and gamma^2 to -gamma^1, which
    the rotation of the differences undoes, so S commutes with H_W, S^4 = 1
    and S commutes with gamma (Wilson, PRD 10 (1974) 2445).

    K (complex conjugation) sends the flux d to -d and the reflection
    R_x: (x, y) -> (-x, y) sends it back.  Both together keep every
    holonomy: an x-loop is conjugated and reversed, and the y-loop of the
    column x is sent to the conjugate of the column -x, whose holonomy is
    conj h(x) because h(0) = 1 and the flux is uniform.  So the conjugated,
    reflected links are a gauge copy of the links, with site phase D.  R_x
    reverses the x-difference and K the imaginary gamma^1; sigma3 (+1 on
    the minus block), which anticommutes with both gammas, undoes the two
    signs.  So T commutes with H_W and T^2 = +1.  Since R_x rho R_x =
    rho^-1 and K diag(1, i) K = diag(1, i)^-1, T S T^-1 = S^-1.
    """
    n = ux.shape[0]
    xs = np.arange(n)
    mirror = -xs % n
    rotated = (mirror[None, :] * n + xs[:, None]).ravel()
    reflected = (mirror[:, None] * n + xs[None, :]).ravel()
    g = _gauge_phase(ux, uy, np.conj(uy.T[(-xs - 1) % n]), ux.T[mirror])
    d = _gauge_phase(ux, uy, ux[(-xs - 1) % n], np.conj(uy[mirror]))
    return _monomial(rotated, g, (1, 1j)), _monomial(reflected, d, (1, -1))


_POWERS_OF_I = np.array([1, 1j, -1, -1j])


def _sector_basis(ux: np.ndarray,
                  uy: np.ndarray) -> Tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """Unitary basis W that splits H_W into four real symmetric blocks, the
    sector k of each column (the eigenspace lambda = i^k of the rotation S
    of ``_symmetries``, kept by T: T S T^-1 = S^-1) and its minus flag.

    An S-orbit of length L (1 on sites rho fixes, 2 or 4), with
    representative j and S^L e_j = mu e_j, gives one unit vector
    v = sum_{m < L} lambda^-m S^m e_j / sqrt(L) in each sector with
    lambda^L = mu, which are L sectors because S^4 = 1.  T sends v to a
    phase u times the vector v' of the same sector on the orbit of T e_j,
    so the vectors are fixed or paired as sites under a reflection: a
    T-fixed v gives sqrt(u) v, a pair v < v' gives (v + u v')/sqrt(2) and
    i (v - u v')/sqrt(2).  H_W is real symmetric in a T-invariant basis
    (Dyson, J. Math. Phys. 3 (1962) 1199) and block diagonal in sectors
    because S commutes with it.  S and T keep the spinor component, so a
    column has the chirality of its e_j; columns go by sector, minus first.
    Links whose orbits do not close (S^4 != 1) raise ValueError; links that
    keep S^4 = 1 but lack a symmetry give a W^* H_W W that is not real and
    block diagonal, which _Overlap refuses.
    """
    (rot, rot_phase), (ref, ref_phase) = _symmetries(ux, uy)
    size = len(rot)
    idx = np.arange(size)
    pos, coef = [idx], [np.ones(size, dtype=complex)]     # S^m e_j = coef[m] e_pos[m]
    for _ in range(4):
        coef.append(coef[-1] * rot_phase[pos[-1]])
        pos.append(rot[pos[-1]])
    pos, coef = np.array(pos), np.array(coef)
    orbit_length = np.argmax(pos[1:] == idx, axis=0) + 1
    orbit = pos.min(axis=0)
    reps = np.flatnonzero(orbit == idx)
    closing = coef[orbit_length[reps], reps]
    sector, which = np.nonzero(
        np.abs(_POWERS_OF_I[:, None] ** orbit_length[reps] - closing) < 1e-6)
    rep = reps[which]                              # one column per (sector, orbit)
    length = orbit_length[rep]
    column = np.full((4, size), -1)
    column[sector, rep] = np.arange(len(rep))
    partner = column[sector, orbit[ref[rep]]]
    if len(rep) != size or np.any(partner < 0):
        raise ValueError("links lack the rotation symmetry: the orbits of S "
                         "do not close, no sector basis")
    m = np.arange(4)[:, None]
    rows = pos[:4, rep]
    data = np.where(m < length, _POWERS_OF_I[(-sector * m) % 4] * coef[:4, rep], 0)
    data /= np.sqrt(length)
    # T v = u v': compare the two at the site of T e_j
    at = np.argmax(rows[:, partner] == ref[rep], axis=0)
    u = ref_phase[rep] / (np.sqrt(length) * data[at, partner])
    fixed, lo = partner == idx, idx < partner
    half = np.sqrt(0.5)
    own = np.where(fixed, np.sqrt(u), np.where(lo, half, -1j * half * u[partner]))
    other = np.where(fixed, 0, np.where(lo, half * u, 1j * half))
    order = np.lexsort((rep >= size // 2, sector))
    rank = np.empty(size, dtype=int)
    rank[order] = idx
    rows = np.concatenate([rows, rows[:, partner]])
    data = np.concatenate([data * own, data[:, partner] * other])
    cols = np.broadcast_to(rank, rows.shape)
    nonzero = data != 0
    basis = sp.csr_matrix((data[nonzero], (rows[nonzero], cols[nonzero])), shape=(size, size))
    return basis, sector[order], rep[order] < size // 2


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


def _singular_values(a: np.ndarray) -> np.ndarray:
    return np.linalg.svd(a, compute_uv=False) if min(a.shape) else np.zeros(0)


def kernel_dimension(*blocks) -> KernelResult:
    """Numerical kernel dimension of a (possibly rectangular) matrix, or of
    the block diagonal matrix with the given diagonal blocks.

    Real input is decomposed in real arithmetic (integers as floats).
    Counts singular values (the union over the blocks) below sqrt(machine
    eps) times the largest one; a block with more columns than rows
    contributes its shape deficit as exact zeros.  Raises
    :class:`AmbiguousKernelError` unless the accepted zeros lie at least
    ``MIN_GAP_RATIO`` below the rest.
    """
    if not blocks:
        raise ValueError("kernel_dimension expects a matrix")
    parts, implicit = [], 0
    for op in blocks:
        a = np.asarray(op)
        a = a.astype(np.result_type(a, float), copy=False)     # real stays real
        if a.ndim != 2:
            raise ValueError("kernel_dimension expects a matrix")
        parts.append(_singular_values(a))
        implicit += a.shape[1] - len(parts[-1])
    svals = np.sort(np.concatenate(parts))[::-1]
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

    The eigensolve is split and real: ``basis``, ``sectors`` and ``minus``
    are W, each column's sector and its minus flag from ``_sector_basis``.
    H_W commutes with the lattice rotation S and with the antiunitary T, so
    W^* H_W W is real symmetric and block diagonal in the four eigenspaces
    of S; anything else is refused.  One real ``eigh`` per sector gives the
    real eigenvectors Q_r of that block, and D+ is block diagonal: its
    blocks ``dplus_blocks`` are 2 Q_r[minus rows] per sector, the rows being
    the W columns ``minus_columns``, and its singular values are the union
    of theirs, as are those of Q+[plus rows].  ``spectrum`` holds the
    eigenvalues of H_W, the union over the sectors, in ascending order.

    W^* H_W W is one sparse product; its in-sector entries are scattered
    into one dense block per sector, a column's place in its block being
    its rank among the columns of its sector, so ``sectors`` may come in
    any order (a disjoint union interleaves two operators' sectors)."""

    def __init__(self, kernel: sp.spmatrix, grading: np.ndarray,
                 basis: sp.spmatrix, sectors: np.ndarray, minus: np.ndarray):
        kernel = kernel.tocsr()
        h = sp.csr_matrix((kernel.data * np.repeat(grading, np.diff(kernel.indptr)),
                           kernel.indices, kernel.indptr), shape=kernel.shape)
        scale = max(1.0, np.abs(h.data).max(initial=0.0))
        if abs(h - h.conj().T).max() > 1e-12 * scale:
            raise ValueError("hermitized Wilson kernel is not hermitian")
        h = (basis.conj().T @ h @ basis).tocoo()
        split = sectors[h.row] != sectors[h.col]
        if max(np.abs(h.data.imag).max(initial=0.0),
               np.abs(h.data[split]).max(initial=0.0)) > 1e-12 * scale:
            raise ValueError("links lack the rotation and reflection symmetry: H_W "
                             "is not real and block diagonal in the sector basis")
        # scatter each sector's entries into a dense block, a column's place
        # in its block being its rank among the columns of its sector
        _, block_of, sizes = np.unique(sectors, return_inverse=True, return_counts=True)
        order = np.argsort(sectors, kind="stable")
        ends = np.cumsum(sizes)
        place = np.empty_like(order)
        place[order] = np.arange(len(order)) - np.repeat(ends - sizes, sizes)
        keep = ~split
        i, j, entries = h.row[keep], h.col[keep], h.data.real[keep]
        in_block = block_of[i]
        del h       # the complex product: not held through the eigensolves
        evals, self.dplus_blocks, self._plus_blocks, minus_columns = [], [], [], []
        for b, cols in enumerate(np.split(order, ends[:-1])):
            block = np.zeros((len(cols), len(cols)))
            here = in_block == b
            block[place[i[here]], place[j[here]]] = entries[here]
            e, q = np.linalg.eigh(block)
            rows, negative = minus[cols], e < 0
            evals.append(e)
            self.dplus_blocks.append(2.0 * q[np.ix_(rows, negative)])
            self._plus_blocks.append(q[np.ix_(~rows, ~negative)])
            minus_columns.append(cols[rows])
        self.minus_columns = np.concatenate(minus_columns)
        self.spectrum = np.sort(np.concatenate(evals))
        evals = np.abs(self.spectrum)
        if np.min(evals) < ZERO_THRESHOLD * max(float(np.max(evals)), 1e-300):
            raise AmbiguousKernelError(
                "Wilson kernel has a near-zero mode; the sign function is "
                "ill-defined (shift the mass or refine the lattice)")

    @cached_property
    def kernels(self) -> Tuple[KernelResult, KernelResult]:
        """(ker D+, ker D-) from one SVD per block: D- = (D+)^* adds rows - cols zeros."""
        ker_plus = kernel_dimension(*self.dplus_blocks)
        rows, cols = np.sum([b.shape for b in self.dplus_blocks], axis=0)
        return ker_plus, replace(ker_plus, dimension=ker_plus.dimension + int(rows - cols))

    def zero_mode_chiralities(self) -> Tuple[int, int]:
        """(plus, minus) counts of D^*D eigenvalues below ZERO_THRESHOLD times
        the largest: 4 s^2 for the singular values s of Q+[plus rows], sigma^2
        for those of D+ (each the union over the sectors), each padded with
        zeros to its block size."""
        plus = 4.0 * np.concatenate([_singular_values(b) for b in self._plus_blocks]) ** 2
        minus = self.kernels[0].singular_values ** 2
        thr = ZERO_THRESHOLD * max(plus.max(initial=0.0), minus.max(initial=0.0), 1e-300)
        return (sum(b.shape[0] for b in self._plus_blocks) - int(np.sum(plus >= thr)),
                len(self.minus_columns) - int(np.sum(minus >= thr)))


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
    block diagonal in gamma.  The eigensolve is split into four real
    symmetric ones (_sector_basis).  The flux links have equal holonomies
    along both axes, so the 90 degree lattice rotation with a spin rotation
    and a gauge phase, S, commutes with H_W, and the four eigenspaces of S
    (S^4 = 1) split it.  Charge conjugation and the reflection x -> -x
    together keep the flux and the holonomies, so the antiunitary T = D
    (sigma3 x R_x) K commutes with H_W, T^2 = +1 and T S T^-1 = S^-1: T
    keeps each eigenspace of S, and H_W is real in a T-invariant basis of
    each.  Kernel counts and zero-mode chiralities must agree, which guards
    against numerical failure only: the kernel-count difference equals the
    blocks' shape difference.  There is no separate spectral-asymmetry
    reading: -1/2 Tr sign(H_W) is #negative - V because every eigenvector
    has unit norm, which is that same shape difference (Luscher 1998)."""
    ov = op.overlap()
    ker_plus, ker_minus = ov.kernels
    idx = ker_plus.dimension - ker_minus.dimension
    if ov.zero_mode_chiralities() != (ker_plus.dimension, ker_minus.dimension):
        raise NonConvergenceError(
            "chirality split of overlap zero modes disagrees with the "
            "chiral-block kernels")
    gap = min(ker_plus.gap, ker_minus.gap)
    return IndexResult(op.spec.lattice_size, op.spec.flux,
                       ker_plus.dimension, ker_minus.dimension, idx, float(gap))


def disjoint_union_index(a: LatticeOperator, b: LatticeOperator) -> int:
    """Index over the block direct sum of two lattice operators."""
    (basis_a, *flags_a), (basis_b, *flags_b) = a.sector_basis, b.sector_basis
    ker_plus, ker_minus = _Overlap(sp.block_diag((a.wilson_kernel, b.wilson_kernel)),
                                   np.concatenate([a.grading, b.grading]),
                                   sp.block_diag((basis_a, basis_b), format="csr"),
                                   *map(np.concatenate, zip(flags_a, flags_b))).kernels
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
        _require_finite(self, "t_start", "t_end")
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
