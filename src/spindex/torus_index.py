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
from functools import cached_property, lru_cache
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

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

    K = -i D + r/2 (4 - hops) - m0, D the central differences, is held as
    ``triplets`` (rows, cols, values) over the five-point stencil of
    ``_geometry``; ``grading`` is +1/-1 site-wise on the two spinor
    components, and H_W = gamma K is hermitian.  The hop from site s to
    its forward neighbour along axis mu carries u_mu(s) and the hop back
    conj(u_mu(s)).  -i D puts -i u/2 and +i conj(u)/2 on the spinor entries
    of gamma^mu, the Wilson term -r/2 u and -r/2 conj(u) on both spinor
    components, and the diagonal is 2r - m0.

    ``sector_blocks`` builds the four real sector blocks of H_W straight
    from the triplets, and ``export_triplets`` writes them; the overlap data
    is computed from them on demand and cached.  The triplets are the one
    form of K the library holds; ``chiral_blocks`` builds the dense sector
    basis ``_sector_basis`` on request, for D+ in the site basis.
    """

    def __init__(self, spec: FluxBundleSpec):
        self._assemble(spec, *flux_links(spec))

    def _assemble(self, spec: FluxBundleSpec, ux: np.ndarray, uy: np.ndarray) -> None:
        self.spec = spec
        self.ux, self.uy = ux, uy
        geo = _geometry(spec.lattice_size)
        v = spec.sites
        # the hop s -> s + mu carries u[s], the hop back conj(u[s]); one row
        # of 2V hops per axis, in the order of the stencil
        links = np.concatenate([ux.ravel(), np.conj(ux).ravel(),
                                uy.ravel(), np.conj(uy).ravel()]).reshape(2, 2 * v)
        # central differences -i D: -i u/2 forward, +i conj(u)/2 back, on
        # the spinor entries of gamma^mu
        half = 0.5 * links * geo.hop_sign
        differences = -1j * (geo.gamma_entries[:, None] * half[geo.gamma_axes]).ravel()
        # Wilson term r/2 (4 - hops) - m0 on each spinor component
        r, m0 = spec.wilson_r, spec.wilson_mass
        same = np.concatenate([-0.5 * r * links.ravel(), np.full(v, 2.0 * r - m0)])
        # chirality orientation: the second spinor component is S+, which
        # pairs the positive-flux bundle with holomorphic zero modes
        self.grading = geo.grading
        self.triplets = (geo.rows, geo.cols, np.concatenate([differences, same, same]))
        self._overlap: Optional[_Overlap] = None

    def plaquette_phases(self) -> np.ndarray:
        ux, uy = self.ux, self.uy
        return (ux * np.roll(uy, -1, axis=0)
                * np.conj(np.roll(ux, -1, axis=1)) * np.conj(uy))

    def sector_blocks(self) -> Tuple[List[np.ndarray], List[int]]:
        """The four real symmetric blocks W^* H_W W of H_W = gamma K, one per
        sector of the rotation S, and the number of minus-chirality columns
        of each, which come first (``_sector_columns``).

        No sparse product.  The vector of the orbit of j in sector k has
        the entry i^(-k m) c / sqrt(L_j) at the index b with S^m e_j = c e_b
        (m < L_j), so each stencil entry (a, b) adds i^(k (m_a - m_b))
        conj(c_a) H_W[a, b] c_b / sqrt(L_a L_b) to the entry (orbit of a,
        orbit of b) of the complex sector-k matrix, in each sector that
        both orbits admit.  The entries are first summed over their slots,
        the (orbit of a, orbit of b, m_a - m_b mod 4) they share; the sum
        runs over every entry, not over one representative row per orbit,
        so that the rounding of the S phases (cumulative products of link
        ratios) stays out of the blocks to first order, as in a product
        W^* H_W W.  T's own/other combination of each column then carries
        every slot term to at most four block entries, which are summed
        into one dense block per sector.

        H_W is checked on the stencil entries first: hermitian (each entry
        against its transposed entry), commuting with S and with T (each
        entry against its image), all within 1e-12 times the largest entry;
        then each block is checked to be real."""
        geo = _geometry(self.spec.lattice_size)
        rows, cols, values = self.triplets
        h = geo.row_grading * values
        tolerance = 1e-12 * max(1.0, float(np.abs(h).max(initial=0.0)))
        if np.abs(h - np.conj(h.take(geo.transpose))).max() > tolerance:
            raise ValueError("hermitized Wilson kernel is not hermitian")
        (_, rot_phase), (_, ref_phase) = _symmetries(self.ux, self.uy)
        # S H S^-1 = H and U conj(H) U^* = H, read at the image of each entry
        if np.abs(h.take(geo.rotate) - rot_phase.take(rows) * h
                  * np.conj(rot_phase.take(cols))).max() > tolerance:
            raise ValueError("links lack the rotation symmetry: H_W does not "
                             "commute with S")
        if np.abs(h.take(geo.reflect) - ref_phase.take(rows)
                  * np.conj(h * ref_phase.take(cols))).max() > tolerance:
            raise ValueError("links lack the reflection symmetry: H_W does not "
                             "commute with T")
        sc = _sector_columns(rot_phase, ref_phase, geo)
        # conj(c_a) H_W[a, b] c_b on each entry, summed over its slot
        terms = np.conj(sc.phase_at.take(rows)) * sc.phase_at.take(cols) * h
        slots = (np.bincount(geo.entry_slot, terms.real)
                 + 1j * np.bincount(geo.entry_slot, terms.imag))
        # each slot's term in each sector that both of its orbits admit
        i, j = sc.column.take(geo.slot_row_keys), sc.column.take(geo.slot_col_keys)
        admitted = (i >= 0) & (j >= 0)
        terms = (geo.slot_weights * slots).ravel()[admitted]
        i, j = i[admitted], j[admitted]
        # column k of a block is own[k] v_k + other[k] v_partner(k), so v_k
        # enters the columns (k, partner(k)) with the weights (own[k],
        # other[partner(k)]): the term (i, j) goes to four block entries
        pair = np.stack([np.arange(len(sc.partner)), sc.partner])
        weight = np.stack([sc.own, sc.other.take(sc.partner)])
        spread = ((np.conj(weight.take(i, axis=1)) * terms)[:, None]
                  * weight.take(j, axis=1)[None])
        flat = (sc.flat_row.take(pair).take(i, axis=1)[:, None]
                + sc.place.take(pair).take(j, axis=1)[None]).ravel()
        sizes = np.bincount(sc.sector, minlength=4)
        ends = np.cumsum(sizes ** 2)
        real = np.bincount(flat, spread.real.ravel(), minlength=ends[-1])
        imag = np.bincount(flat, spread.imag.ravel(), minlength=ends[-1])
        if max(imag.max(), -imag.min()) > tolerance:
            raise ValueError("links lack the rotation and reflection symmetry: H_W "
                             "is not real in the sector basis")
        blocks = [real[end - n * n:end].reshape(n, n) for n, end in zip(sizes, ends)]
        return blocks, np.bincount(sc.sector[sc.minus], minlength=4).tolist()

    def overlap(self) -> "_Overlap":
        if self._overlap is None:
            self._overlap = _Overlap(*self.sector_blocks())
        return self._overlap

    def chiral_blocks(self) -> Tuple[np.ndarray, np.ndarray]:
        """Rectangular mutually adjoint blocks (D+, D-) with D- = (D+)^*,
        in the site basis: the minus rows of W's minus columns times the
        block diagonal sector-basis D+, one sector's columns at a time."""
        blocks = self.overlap().dplus_blocks
        basis, sectors, minus = _sector_basis(self.ux, self.uy)
        columns = basis[:self.spec.sites][:, minus]
        sectors = sectors[minus]
        dplus = np.hstack([columns[:, sectors == k] @ b for k, b in enumerate(blocks)])
        return dplus, dplus.conj().T

    def export_triplets(self, stream) -> None:
        """The Wilson kernel as coordinate text, one line 'row col re im' per
        entry, in row order and by column within a row.  The stencil repeats
        no (row, col) for N >= 4, so each entry is one triplet."""
        rows, cols, values = self.triplets
        for k in np.lexsort((cols, rows)):
            z = values[k]
            stream.write(f"{rows[k]} {cols[k]} {z.real:.17g} {z.imag:.17g}\n")


def _neighbours(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Forward neighbours of every site: site (x, y) is row x*N + y, and
    entry s of the two arrays is the site at x + 1 and at y + 1, where the
    hop from s carries ux[x, y] and uy[x, y]."""
    site = np.arange(n * n).reshape(n, n)
    return np.roll(site, -1, axis=0).ravel(), np.roll(site, -1, axis=1).ravel()


_POWERS_OF_I = np.array([1, 1j, -1, -1j])


class _Geometry(NamedTuple):
    """What an N x N lattice fixes before any link is known, as read-only
    arrays; ``_geometry`` caches one per N.

    The stencil: ``rows`` and ``cols`` of the 18 N^2 entries of K (the -i D
    entries on the four (axis, a, b) entries ``gamma_axes``,
    ``gamma_entries`` of the two gammas, then the Wilson entries of each
    spinor component), ``hop_sign`` (+1 forward, -1 back on the 2 N^2 hops
    of an axis), the ``grading`` and ``row_grading``, its value on each
    entry's row.  The entry permutations: ``transpose`` (the index of the
    entry (col, row)), ``rotate`` and ``reflect`` (of (rot row, rot col)
    and (ref row, ref col)).  The site-spinor maps ``rot`` and ``ref`` of
    the rotation rho(x, y) = (-y, x) and the reflection R_x, and ``mirror``
    = -x mod N.  The S-orbits: ``orbit_positions`` (row m is rot^m),
    ``orbit_length``, ``orbit`` (each index's representative, the least
    index of its orbit), ``step`` (the m with rot^m of its representative
    equal to it), ``reps`` and ``rep_powers``, i^(k L) for each sector k
    and representative of length L.  The slots of the sector matrices,
    one per (orbit of row, orbit of col, step of row - step of col mod 4)
    of the entries: ``entry_slot``, each entry's slot, and for each sector
    k and slot (k major) ``slot_row_keys`` and ``slot_col_keys``, k 2N^2
    plus the row's and plus the col's representative, and
    ``slot_weights``, i^(k delta) / sqrt(L_row L_col), delta the step
    difference."""

    rows: np.ndarray
    cols: np.ndarray
    gamma_axes: np.ndarray
    gamma_entries: np.ndarray
    hop_sign: np.ndarray
    grading: np.ndarray
    row_grading: np.ndarray
    transpose: np.ndarray
    rotate: np.ndarray
    reflect: np.ndarray
    rot: np.ndarray
    ref: np.ndarray
    mirror: np.ndarray
    orbit_positions: np.ndarray
    orbit_length: np.ndarray
    orbit: np.ndarray
    step: np.ndarray
    reps: np.ndarray
    rep_powers: np.ndarray
    entry_slot: np.ndarray
    slot_row_keys: np.ndarray
    slot_col_keys: np.ndarray
    slot_weights: np.ndarray


@lru_cache(maxsize=None)
def _geometry(n: int) -> _Geometry:
    """The ``_Geometry`` of an N x N lattice (at most MAX_DENSE_N - 3 of
    them are ever built)."""
    v, size = n * n, 2 * n * n
    site = np.arange(v)
    # the 4V directed hops, axis by axis: s -> s + mu, then the hops back;
    # shape (2 axes, 2V hops)
    ahead = _neighbours(n)
    hop_rows = np.stack([np.concatenate([site, a]) for a in ahead])
    hop_cols = np.stack([np.concatenate([a, site]) for a in ahead])
    gammas = np.stack([_G1, _G2])
    axes, a, b = np.nonzero(gammas)
    chiral = np.arange(2)[:, None] * v
    rows = np.concatenate([(a[:, None] * v + hop_rows[axes]).ravel(),
                           (chiral + np.concatenate([hop_rows.ravel(), site])).ravel()])
    cols = np.concatenate([(b[:, None] * v + hop_cols[axes]).ravel(),
                           (chiral + np.concatenate([hop_cols.ravel(), site])).ravel()])
    key = rows * size + cols
    by_key = np.argsort(key)

    def entry(r, c):
        return by_key[np.searchsorted(key, r * size + c, sorter=by_key)]

    xs = np.arange(n)
    mirror = -xs % n
    rotated = (mirror[None, :] * n + xs[:, None]).ravel()
    reflected = (mirror[:, None] * n + xs[None, :]).ravel()
    rot = np.concatenate([rotated, rotated + v])
    ref = np.concatenate([reflected, reflected + v])
    positions = [np.arange(size)]
    for _ in range(4):
        positions.append(rot[positions[-1]])
    positions = np.array(positions)
    length = np.argmax(positions[1:] == positions[0], axis=0) + 1
    orbit = positions.min(axis=0)
    reps = np.flatnonzero(orbit == positions[0])
    step = np.empty(size, dtype=int)
    for m in range(3, -1, -1):
        step[positions[m, reps]] = m
    grading = np.concatenate([-np.ones(v), np.ones(v)])
    slot_keys, entry_slot = np.unique(
        (orbit[rows] * size + orbit[cols]) * 4 + (step[rows] - step[cols]) % 4,
        return_inverse=True)
    (slot_rows, slot_cols), delta = divmod(slot_keys // 4, size), slot_keys % 4
    sectors = np.arange(4)[:, None]
    geo = _Geometry(
        rows=rows, cols=cols, gamma_axes=axes, gamma_entries=gammas[axes, a, b],
        hop_sign=np.repeat([1.0, -1.0], v), grading=grading, row_grading=grading[rows],
        transpose=entry(cols, rows), rotate=entry(rot[rows], rot[cols]),
        reflect=entry(ref[rows], ref[cols]), rot=rot, ref=ref, mirror=mirror,
        orbit_positions=positions, orbit_length=length, orbit=orbit, step=step, reps=reps,
        rep_powers=_POWERS_OF_I[:, None] ** length[reps],
        entry_slot=entry_slot, slot_row_keys=(sectors * size + slot_rows).ravel(),
        slot_col_keys=(sectors * size + slot_cols).ravel(),
        slot_weights=_POWERS_OF_I[sectors * delta % 4]
        / np.sqrt(length[slot_rows] * length[slot_cols]))
    for array in geo:
        array.flags.writeable = False
    return geo


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


def _symmetries(ux: np.ndarray, uy: np.ndarray):
    """The rotation S = G (diag(1, i) x rho) and the unitary part U of the
    antiunitary T = U K = D (sigma3 x R_x) K, each as (perm, phase): the
    map e_j -> phase[j] e_perm[j], with perm ``_geometry``'s rot and ref.

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
    geo = _geometry(n)
    back = (-np.arange(n) - 1) % n
    g = _gauge_phase(ux, uy, np.conj(uy.T[back]), ux.T[geo.mirror])
    d = _gauge_phase(ux, uy, ux[back], np.conj(uy[geo.mirror]))
    return ((geo.rot, np.concatenate([g, 1j * g])[geo.rot]),
            (geo.ref, np.concatenate([d, -d])[geo.ref]))


class _SectorColumns(NamedTuple):
    """The columns of the sector basis W, by sector and minus chirality
    first (``_sector_columns``): ``sector``, representative ``rep``,
    ``minus`` flag, T ``partner`` and the ``own``/``other`` weights of
    column k = own[k] v_k + other[k] v_partner(k); ``column``[k, j] is
    the column of the orbit of j in sector k, or -1; ``phases``[m] are the
    S^m phases (S^m e_j = phases[m, j] e_(rot^m j)) and ``phase_at`` the
    phase c of each index b in S^m e_orbit(b) = c e_b.  ``place`` is each
    column's place in its block and ``flat_row`` the offset of its row in
    the flat buffer of all four blocks."""

    sector: np.ndarray
    rep: np.ndarray
    minus: np.ndarray
    partner: np.ndarray
    own: np.ndarray
    other: np.ndarray
    column: np.ndarray
    phases: np.ndarray
    phase_at: np.ndarray
    place: np.ndarray
    flat_row: np.ndarray


def _sector_columns(rot_phase: np.ndarray, ref_phase: np.ndarray,
                    geo: _Geometry) -> _SectorColumns:
    """The unitary basis W that splits H_W into four real symmetric blocks,
    as ``_SectorColumns``: each column's sector k (the eigenspace
    lambda = i^k of the rotation S of ``_symmetries``, kept by T:
    T S T^-1 = S^-1) and its minus flag.

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
    column has the chirality of its e_j; columns go by sector, then by
    representative, which puts the minus ones first.  Links whose orbits
    do not close (S^4 != 1) raise ValueError.
    """
    size = len(rot_phase)
    phases = np.ones((5, size), dtype=complex)
    phases[1:] = np.cumprod(rot_phase[geo.orbit_positions[:4]], axis=0)
    closing = phases[geo.orbit_length[geo.reps], geo.reps]
    sector, which = np.nonzero(np.abs(geo.rep_powers - closing) < 1e-6)
    rep = geo.reps[which]                          # one column per (sector, orbit)
    count = len(rep)
    column = np.full((4, size), -1)
    column[sector, rep] = np.arange(count)
    mirrored = geo.ref[rep]
    partner = column[sector, geo.orbit[mirrored]]
    if count != size or np.any(partner < 0):
        raise ValueError("links lack the rotation symmetry: the orbits of S "
                         "do not close, no sector basis")
    phase_at = phases[geo.step, geo.orbit]
    # T v = u v': compare the two at the index T e_j, where v is
    # 1/sqrt(L) and v' is i^(-k m) phase_at / sqrt(L)
    u = ref_phase[rep] * _POWERS_OF_I[(sector * geo.step[mirrored]) % 4] / phase_at[mirrored]
    idx = np.arange(count)
    fixed, lo = partner == idx, idx < partner
    half = np.sqrt(0.5)
    own = np.where(fixed, np.sqrt(u), np.where(lo, half, -1j * half * u[partner]))
    other = np.where(fixed, 0, np.where(lo, half * u, 1j * half))
    sizes = np.bincount(sector, minlength=4)
    place = idx - np.repeat(np.cumsum(sizes) - sizes, sizes)
    flat_row = np.repeat(np.cumsum(sizes ** 2) - sizes ** 2, sizes) + place * sizes[sector]
    return _SectorColumns(sector, rep, rep < size // 2, partner, own, other, column,
                          phases, phase_at, place, flat_row)


def _sector_basis(ux: np.ndarray, uy: np.ndarray):
    """The dense unitary W of ``_sector_columns``, each column's sector
    and its minus flag.  Links that keep S^4 = 1 but lack a symmetry give
    a W^* H_W W that is not real and block diagonal."""
    (_, rot_phase), (_, ref_phase) = _symmetries(ux, uy)
    geo = _geometry(ux.shape[0])
    sc = _sector_columns(rot_phase, ref_phase, geo)
    size = len(sc.rep)
    length = geo.orbit_length[sc.rep]
    m = np.arange(4)[:, None]
    rows = geo.orbit_positions[:4, sc.rep]
    data = np.where(m < length, _POWERS_OF_I[(-sc.sector * m) % 4] * sc.phases[:4, sc.rep], 0)
    data /= np.sqrt(length)
    rows = np.concatenate([rows, rows[:, sc.partner]])
    data = np.concatenate([data * sc.own, data[:, sc.partner] * sc.other])
    cols = np.broadcast_to(np.arange(size), rows.shape)
    # the rows of a column are distinct, so each entry is set once
    nonzero = data != 0
    basis = np.zeros((size, size), dtype=complex)
    basis[rows[nonzero], cols[nonzero]] = data[nonzero]
    return basis, sc.sector, sc.minus


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
    the minus rows.  Q+[plus rows] needs no SVD of its own: by the CS
    decomposition of the orthogonal [Q- Q+] (Paige and Saunders 1981) it
    has the singular values of Q-[minus rows], up to exact 0s and 1s (see
    :meth:`zero_mode_chiralities`).

    The eigensolve is split and real: ``blocks`` are the real symmetric
    sector blocks W^* H_W W of ``LatticeOperator.sector_blocks`` (H_W
    commutes with the lattice rotation S and with the antiunitary T), and
    ``minus`` the number of leading minus-chirality columns of each.  One
    real ``eigh`` per block gives its real eigenvectors Q_r in ascending
    order of eigenvalue, negative first, so D+ is block diagonal with the
    blocks ``dplus_blocks`` = 2 Q_r[minus rows, negative columns], plain
    slices, and its singular values are the union of theirs.
    ``minus_rows`` is the number of rows of D+ and ``spectrum`` holds the
    eigenvalues of H_W, the union over the blocks, in ascending order.  The
    blocks may come from several operators (a disjoint union)."""

    def __init__(self, blocks: Sequence[np.ndarray], minus: Sequence[int]):
        evals, self.dplus_blocks = [], []
        for block, rows in zip(blocks, minus):
            e, q = np.linalg.eigh(block)
            negative = int(np.searchsorted(e, 0.0))
            evals.append(e)
            self.dplus_blocks.append(2.0 * q[:rows, :negative])
        self.minus_rows = int(sum(minus))
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
        the largest, both read off the singular values sigma of D+ (the
        union over the sectors).

        The minus block D+ D+^* has the eigenvalues sigma^2, padded with
        zeros to its ``minus_rows`` rows.  The plus block is 4 Q22 Q22^T
        with Q22 = Q_r[plus rows, positive columns] in each sector, and
        ker Q22^T = ker Q11 for Q11 = Q_r[minus rows, negative columns] =
        D+ / 2: for y in ker Q22^T, Q_r^T (0, y) = (Q21^T y, 0) has norm |y|,
        so Q_r (Q21^T y, 0) = (Q11 Q21^T y, Q21 Q21^T y) = (0, y); and
        symmetrically.  So the plus count is cols(D+) - rank(D+).  Beyond
        the kernels, Q11 and Q22 share their singular values in (0, 1) and
        differ only in how many are exactly 1 (the CS decomposition of Q_r,
        Paige and Saunders 1981), so an SVD of Q22 would only repeat this
        one."""
        minus = self.kernels[0].singular_values ** 2
        above = int(np.sum(minus >= ZERO_THRESHOLD * max(minus.max(initial=0.0), 1e-300)))
        cols = sum(b.shape[1] for b in self.dplus_blocks)
        return cols - above, self.minus_rows - above


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
    symmetric ones (LatticeOperator.sector_blocks).  The flux links have
    equal holonomies along both axes, so the 90 degree lattice rotation with a spin rotation
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
    """Index over the block direct sum of two lattice operators: one
    overlap over both operators' sector blocks."""
    (blocks_a, minus_a), (blocks_b, minus_b) = a.sector_blocks(), b.sector_blocks()
    ker_plus, ker_minus = _Overlap(blocks_a + blocks_b, minus_a + minus_b).kernels
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
    NonConvergenceError; an endpoint matrix that is not square, not finite
    or not self-adjoint raises ValueError.
    """
    negatives = []
    for t in (fam.t_start, fam.t_end):
        m = np.asarray(fam.builder(t), dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"family operator at endpoint t = {t} is not a square "
                             f"matrix (shape {m.shape})")
        if not np.all(np.isfinite(m)):
            raise ValueError(f"family operator at endpoint t = {t} has entries that "
                             "are not finite")
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
