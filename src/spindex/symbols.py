"""Principal symbols, ellipticity, difference-bundle classes and the
Clifford-module periodicity computation.

Symbol convention: a term ``a_alpha d^alpha`` contributes ``a_alpha (i xi)^alpha``
to the principal symbol.  With that single choice the flat Laplacian built as
``-sum d_i^2`` has symbol ``|xi|^2`` and the Dirac operator ``sum gamma_i d_i``
has symbol ``i cl(xi)``; both identities are pinned by tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import exactnum, spinors
from .exactnum import GaussianRational
from .spinors import CliffordModule

MultiIndex = Tuple[int, ...]


class AmbiguousWindingError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# operators and principal symbols
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OperatorSpec:
    """Constant-coefficient operator ``sum a_alpha d^alpha`` with matrix
    coefficients, |alpha| <= order."""

    base_dim: int
    order: int
    terms: Tuple[Tuple[MultiIndex, np.ndarray], ...]

    def __post_init__(self):
        if self.base_dim < 1:
            raise ValueError("base dimension must be >= 1")
        if not self.terms:
            raise ValueError("operator needs at least one term")
        shape = None
        for alpha, a in self.terms:
            if len(alpha) != self.base_dim:
                raise ValueError("multi-index length must equal base dimension")
            if any(k < 0 for k in alpha):
                raise ValueError("multi-index entries must be >= 0")
            if sum(alpha) > self.order:
                raise ValueError("term order exceeds the operator order")
            a = np.asarray(a)
            if a.ndim != 2:
                raise ValueError("coefficients must be matrices")
            if not np.isfinite(a).all():
                raise ValueError("coefficients must be finite")
            if shape is None:
                shape = a.shape
            elif a.shape != shape:
                raise ValueError("all coefficient matrices must share a shape")

    @property
    def shape(self) -> Tuple[int, int]:
        return np.asarray(self.terms[0][1]).shape


@dataclass(frozen=True)
class SymbolPolynomial:
    """Homogeneous matrix polynomial; evaluation maps xi to
    sum a_alpha (i xi)^alpha."""

    base_dim: int
    order: int
    terms: Dict[MultiIndex, np.ndarray]
    shape: Tuple[int, int]

    def evaluate(self, xi: Sequence[float]) -> np.ndarray:
        return self.evaluate_many([xi])[0]

    def evaluate_many(self, xis) -> np.ndarray:
        """The symbol at each row of the (P, base_dim) array ``xis``, as a
        (P, rows, cols) stack; row p equals ``evaluate(xis[p])`` bitwise.

        The factor (i xi)^alpha of every term is formed at once, coordinate by
        coordinate from 1 in order, from the powers (i xi_j)^k taken once per
        distinct exponent k, and the terms are summed in dict order: the
        arithmetic, and so every bit, of a per-term loop.
        """
        xis = np.asarray(xis, dtype=float)
        if xis.ndim != 2 or xis.shape[1] != self.base_dim:
            raise ValueError("covector length must equal base dimension")
        exponents, gather, coefficients = self._stack
        z = (1j * xis).T
        # numpy's z ** k takes another route for a Python int k than for an
        # exponent array (z ** 2 squares), so each power keeps its scalar k
        powers = np.array([z ** k for k in exponents], dtype=complex).reshape(
            (len(exponents),) + z.shape)
        # (base_dim, terms, P) gathered powers; a product reduction runs in
        # order along its axis, from the initial 1 as the loop's factor does
        factors = np.multiply.reduce(powers[gather], axis=0, initial=1.0 + 0.0j)
        out = np.zeros((len(xis),) + tuple(self.shape), dtype=complex)
        for factor, a in zip(factors, coefficients):
            out += factor[:, None, None] * a
        return out

    @cached_property
    def _stack(self) -> Tuple[list, Tuple[np.ndarray, np.ndarray], np.ndarray]:
        """The terms as one stack: the distinct exponents; the index pair that
        takes the (exponents, base_dim, P) powers to the (base_dim, terms, P)
        power of each term's exponent of each coordinate; and the (terms,
        rows, cols) stack of coefficients."""
        exponents = list(dict.fromkeys(k for alpha in self.terms for k in alpha))
        position = {k: i for i, k in enumerate(exponents)}
        which = np.array([[position[k] for k in alpha] for alpha in self.terms],
                         dtype=int).reshape(len(self.terms), self.base_dim).T
        coefficients = np.empty((len(self.terms),) + tuple(self.shape), dtype=complex)
        for t, a in enumerate(self.terms.values()):
            coefficients[t] = a
        return exponents, (which, np.arange(self.base_dim)[:, None]), coefficients


def principal_symbol(op: OperatorSpec) -> SymbolPolynomial:
    """Keep only the top-order terms."""
    top = {alpha: np.asarray(a, dtype=complex)
           for alpha, a in op.terms if sum(alpha) == op.order}
    return SymbolPolynomial(op.base_dim, op.order, top, op.shape)


def laplacian_operator(n: int) -> OperatorSpec:
    """Flat Laplacian -sum d_i^2 on functions (symbol |xi|^2)."""
    terms = []
    for i in range(n):
        alpha = tuple(2 if j == i else 0 for j in range(n))
        terms.append((alpha, np.array([[-1.0]], dtype=complex)))
    return OperatorSpec(n, 2, tuple(terms))


def dalembertian_operator(spatial_dim: int = 1) -> OperatorSpec:
    """Wave operator d_t^2 - sum d_x^2 on R x R^spatial (symbol vanishes on
    the light cone tau = +-|xi|)."""
    n = spatial_dim + 1
    terms = [(tuple(2 if j == 0 else 0 for j in range(n)),
              np.array([[1.0]], dtype=complex))]
    for i in range(1, n):
        alpha = tuple(2 if j == i else 0 for j in range(n))
        terms.append((alpha, np.array([[-1.0]], dtype=complex)))
    return OperatorSpec(n, 2, tuple(terms))


def dirac_operator(n: int) -> OperatorSpec:
    """First-order operator sum gamma_i d_i (symbol i*cl(xi))."""
    gammas = spinors.gamma_matrices(n)
    terms = []
    for i in range(n):
        alpha = tuple(1 if j == i else 0 for j in range(n))
        terms.append((alpha, gammas[i]))
    return OperatorSpec(n, 1, tuple(terms))


# ---------------------------------------------------------------------------
# ellipticity
# ---------------------------------------------------------------------------

MAX_SPHERE_POINTS = 4096    # is_elliptic samples 4^dim points, capped here
REFINE_ROUNDS = 60
PROBES_PER_ROUND = 24
ELLIPTIC_RTOL = 1e-8        # smallest singular value below this x scale: not elliptic


@dataclass(frozen=True)
class EllipticityReport:
    elliptic: bool
    min_singular: float
    scale: float
    samples: int
    evaluations: int            # symbols evaluated: every scan point and refinement probe
    minimum_round: int          # refinement round that found the minimum, 0: the scan
    witness: Optional[Tuple[float, ...]] = None
    witness_exact: Optional[Tuple[int, ...]] = None

    def __bool__(self):
        return self.elliptic


def _halton(index: np.ndarray, base: int) -> np.ndarray:
    """Radical inverse in ``base`` of each entry of the index array."""
    f, r = 1.0, np.zeros(len(index))
    while index.any():
        f /= base
        r += f * (index % base)
        index = index // base
    return r


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _row_norms(c: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, bitwise equal to ``np.linalg.norm`` of the
    row (one dot product each; ``norm(axis=1)`` sums in another order)."""
    return np.sqrt(np.matmul(c[:, None, :], c[:, :, None])[:, 0, 0])


@lru_cache(maxsize=None)
def _sphere_points(n: int, count: int) -> np.ndarray:
    """Deterministic low-discrepancy points on the unit sphere in R^n: the
    first ``count`` Halton points of the cube [-1, 1]^n (from index 1) whose
    norm exceeds 1e-3, normalized.  Cached and read-only."""
    pts, start = np.zeros((0, n)), 1
    while len(pts) < count:
        idx = np.arange(start, start + count - len(pts))
        start += len(idx)
        v = np.stack([2.0 * _halton(idx, _PRIMES[j % len(_PRIMES)]) - 1.0
                      for j in range(n)], axis=1)
        norm = _row_norms(v)
        keep = norm > 1e-3
        pts = np.concatenate([pts, v[keep] / norm[keep, None]])
    pts.flags.writeable = False
    return pts


def _extreme_singular_values(sym: SymbolPolynomial,
                             xis: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(smallest, largest) singular value of the symbol at each row of xis."""
    svals = np.linalg.svd(sym.evaluate_many(xis), compute_uv=False)
    if svals.shape[1] == 0:
        return np.full(len(xis), np.inf), np.zeros(len(xis))
    return svals[:, -1], svals[:, 0]


def is_elliptic(sym: SymbolPolynomial) -> EllipticityReport:
    """Invertibility of the symbol on the unit sphere, by low-discrepancy
    sampling plus local refinement around the worst direction.

    Each refinement round tries PROBES_PER_ROUND probe directions, in order,
    around the running minimizer and moves to every probe that improves on
    it; a round without improvement shrinks the radius by 0.6.  One batch
    evaluates the remaining probes around the current centre and, after
    ``quiet`` rounds in a row without improvement, the probes of up to
    2^min(quiet, 6) - 1 further rounds at their shrunk radii.  After the
    first improving probe the probes behind it are evaluated again around the
    new centre, so the path is the one of a probe-by-probe loop; only
    ``evaluations`` counts the probes evaluated past it.

    A non-elliptic verdict carries a witness direction; when the witness
    snaps to a small integer covector the degeneracy is re-verified with an
    exact determinant (homogeneity makes scaling irrelevant).

    A non-square symbol is invertible nowhere, so it is reported before any
    sampling: not elliptic, ``min_singular`` 0.0 (the shape deficit counts
    as zero singular values), ``scale`` 0.0, no samples or evaluations,
    ``minimum_round`` 0, and the first basis covector as ``witness`` and
    ``witness_exact``, since every covector is one.
    """
    n = sym.base_dim
    if sym.shape[0] != sym.shape[1]:
        first = (1,) + (0,) * (n - 1)
        return EllipticityReport(False, 0.0, 0.0, 0, 0, 0, tuple(map(float, first)), first)
    eye = np.eye(n)
    pts = np.concatenate([_sphere_points(n, min(4 ** n, MAX_SPHERE_POINTS)),
                          np.stack([eye, -eye], axis=1).reshape(2 * n, n)])
    lo, hi = _extreme_singular_values(sym, pts)
    first = int(np.argmin(lo))
    best, best_v, scale = lo[first], pts[first], hi.max()
    evaluations, minimum_round = len(pts), 0

    # local refinement: shrink a probe ball around the running minimizer
    # (best_v is a unit vector and radius <= 0.5, so no probe is near zero);
    # while no probe improves, the centre stays and the radii are known, so
    # a batch can hold the probes of rounds ahead
    radius, quiet, round_ = 0.5, 0, 1
    probe_dirs = rest = _sphere_points(n, PROBES_PER_ROUND)
    while round_ <= REFINE_ROUNDS:
        # quiet > 0 only at the start of a round, so a batch is the rest of
        # this round or `ahead` whole rounds, each shrunk once more
        ahead = min(1 << min(quiet, 6), REFINE_ROUNDS - round_ + 1)
        radii = [radius]
        while len(radii) < ahead:
            radii.append(radii[-1] * 0.6)
        cand = best_v + np.repeat(radii, len(rest))[:, None] * np.tile(rest, (ahead, 1))
        cand = cand / _row_norms(cand)[:, None]
        lo, _ = _extreme_singular_values(sym, cand)
        evaluations += len(cand)
        better = np.flatnonzero(lo < best)
        if better.size:
            # the `skip` rounds before the first improving probe ended without
            # improvement; its round goes on from the probes behind it
            first = better[0]
            skip, offset = divmod(int(first), len(rest))
            round_, radius, quiet = round_ + skip, radii[skip], 0
            best, best_v, minimum_round = lo[first], cand[first], round_
            rest = rest[offset + 1:]
            if len(rest):
                continue
        else:
            quiet += ahead - (minimum_round == round_)
            round_, radius = round_ + ahead - 1, radii[-1]
        if minimum_round != round_:
            radius *= 0.6
        round_, rest = round_ + 1, probe_dirs

    threshold = ELLIPTIC_RTOL * max(scale, 1e-300)
    if best > threshold:
        return EllipticityReport(True, float(best), float(scale), len(pts),
                                 evaluations, minimum_round)
    witness = tuple(float(x) for x in best_v)
    exact = _snap_exact_witness(sym, best_v)
    if exact is not None:
        norm = math.sqrt(sum(x * x for x in exact))
        witness = tuple(x / norm for x in exact)
    return EllipticityReport(False, float(best), float(scale), len(pts),
                             evaluations, minimum_round, witness, exact)


def _snap_exact_witness(sym: SymbolPolynomial, v: np.ndarray,
                        max_mult: int = 24) -> Optional[Tuple[int, ...]]:
    from itertools import product as iproduct
    for m in range(1, max_mult + 1):
        scaled = v * m
        ints = np.round(scaled)
        if np.max(np.abs(scaled - ints)) > 1e-6 * m or not ints.any():
            continue
        candidate = tuple(int(x) for x in ints)
        if _exact_symbol_singular(sym, candidate):
            return candidate
    # the degenerate set may be a positive-dimensional cone; scan small
    # integer covectors directly
    if sym.base_dim <= 6:
        reach = 2 if sym.base_dim <= 4 else 1
        basket = sorted((c for c in iproduct(range(-reach, reach + 1),
                                             repeat=sym.base_dim) if any(c)),
                        key=lambda c: sum(x * x for x in c))
        for candidate in basket:
            if _exact_symbol_singular(sym, candidate):
                return candidate
    return None


def _exact_symbol_singular(sym: SymbolPolynomial, xi: Tuple[int, ...]) -> bool:
    """Exact determinant test at an integer covector (requires Gaussian
    integer coefficient entries; returns False otherwise)."""
    rows = None
    for alpha, a in sym.terms.items():
        re = np.round(a.real)
        im = np.round(a.imag)
        if np.max(np.abs(a.real - re)) > 1e-12 or np.max(np.abs(a.imag - im)) > 1e-12:
            return False
        factor = GaussianRational(1)
        for x, k in zip(xi, alpha):
            for _ in range(k):
                factor = factor * GaussianRational(0, x)
        if rows is None:
            rows = [[GaussianRational(0)] * a.shape[1] for _ in range(a.shape[0])]
        for r in range(a.shape[0]):
            for c in range(a.shape[1]):
                entry = GaussianRational(int(re[r, c]), int(im[r, c]))
                rows[r][c] = rows[r][c] + factor * entry
    if rows is None:
        return True
    # the entries are Gaussian integers; the realified determinant is
    # |det|^2, zero exactly when det is
    return exactnum.bareiss(exactnum.realify([[v.re for v in row] for row in rows],
                                             [[v.im for v in row] for row in rows])) == 0


# ---------------------------------------------------------------------------
# difference-bundle classes from graded modules
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SymbolClass:
    """Difference-bundle data on the sphere S^(k-1): the real-linear clutching
    map v -> sum_i v_i C_i from the plus to the minus bundle, given by its k
    coefficient matrices ``coefficients[i] = C_i`` (shape (k, rank_minus,
    rank_plus)) and invertible at every nonzero vector."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.array(self.coefficients, dtype=complex)
        if c.ndim != 3:
            raise ValueError("coefficients must be a (k, rank_minus, rank_plus) stack")
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)
        if self.rank_plus != self.rank_minus:
            raise ValueError("clutching needs equal ranks to be invertible")
        if self.rank_plus:
            # for k = 0 (an empty sphere) the 16 points are empty vectors,
            # so a nonzero rank is refused as singular
            pts = _sphere_points(max(self.k, 1), 16)[:, :self.k]
            m = np.tensordot(pts, c, axes=1)
            if np.linalg.svd(m, compute_uv=False)[:, -1].min() < 1e-12:
                raise ValueError("clutching is singular on the sphere")

    @property
    def k(self) -> int:
        return self.coefficients.shape[0]

    @property
    def rank_minus(self) -> int:
        return self.coefficients.shape[1]

    @property
    def rank_plus(self) -> int:
        return self.coefficients.shape[2]

    def clutching(self, v: Sequence[float]) -> np.ndarray:
        """sum_i v_i C_i at one vector v of R^k."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.k,):
            raise ValueError("vector length must match the Clifford dimension")
        return np.tensordot(v, self.coefficients, axes=1)


def abs_class(module: CliffordModule) -> SymbolClass:
    """Clifford multiplication as a clutching map between the grading
    eigenspaces of a graded module: C_i = B_-^* g_i B_+ for orthonormal
    bases B_+- of the two eigenspaces."""
    if module.grading is None:
        raise ValueError("difference-bundle class needs a graded module")
    module.validate(tol=spinors.MODULE_TOL)
    k = module.clifford_dim
    if module.dim == 0:
        return SymbolClass(np.zeros((k, 0, 0)))
    eps = module.grading
    if np.max(np.abs(eps - eps.conj().T)) > 1e-9:
        raise ValueError("clutching classes need an orthogonal (hermitian) grading")
    w, q = np.linalg.eigh((eps + eps.conj().T) / 2)
    basis_minus = q[:, w < 0]
    basis_plus = q[:, w > 0]
    coefficients = [basis_minus.conj().T @ g @ basis_plus for g in module.generators]
    return SymbolClass(np.reshape(coefficients, (k, basis_minus.shape[1], basis_plus.shape[1])))


WINDING_GRID = 4096         # points at which winding_number samples the circle


def winding_number(sc: SymbolClass) -> int:
    """Winding of det(clutching) around the circle (k = 2 classes only).

    The principal phase steps over WINDING_GRID points sum to 2*pi times an
    integer at any spacing, so the sum cannot flag undersampling: it is the
    winding when the grid resolves the phase, which is the caller's promise.
    """
    if sc.k != 2:
        raise ValueError("winding is defined for classes on the 1-sphere (k = 2)")
    if sc.rank_plus == 0:
        return 0
    theta = np.linspace(0.0, 2.0 * math.pi, WINDING_GRID, endpoint=False)
    circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    dets = np.linalg.det(np.tensordot(circle, sc.coefficients, axes=1))
    if np.min(np.abs(dets)) < 1e-12:
        raise AmbiguousWindingError("clutching degenerate at a grid point")
    ratios = dets / np.roll(dets, 1)
    return int(round(float(np.sum(np.angle(ratios))) / (2.0 * math.pi)))


# ---------------------------------------------------------------------------
# the module periodicity computation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbsGroup:
    k: int
    group: str                      # "Z" or "0"
    generator: Optional[CliffordModule]

    def __post_init__(self):
        if self.group not in ("Z", "0"):
            raise ValueError("group tag must be 'Z' or '0'")
        if (self.group == "Z") != (self.k % 2 == 0):
            raise ValueError("periodicity violated: Z exactly for even k")


def graded_irreducibles(k: int) -> List[CliffordModule]:
    """Representatives of the irreducible graded modules."""
    if k < 0:
        raise ValueError("dimension must be >= 0")
    if k == 0:
        plus = CliffordModule(0, (), np.array([[1.0 + 0j]]))
        minus = CliffordModule(0, (), np.array([[-1.0 + 0j]]))
        return [plus, minus]
    if k % 2 == 0:
        s = spinors.spinor_module(k)
        return [s, spinors.flip_grading(s)]
    return [spinors.spinor_module(k)]


def _graded_class_vector(module: CliffordModule,
                         labels: List[str]) -> List[int]:
    dec = spinors.decompose_module(module, graded=True)
    unknown = set(dec.multiplicities) - set(labels) - \
        {l for l, m in dec.multiplicities.items() if m == 0}
    if any(dec.multiplicities.get(l, 0) for l in unknown):
        raise ValueError(f"decomposition uses unexpected labels {unknown}")
    return [dec.multiplicity(l) for l in labels]


def abs_group(k: int) -> AbsGroup:
    """Quotient of the graded-module Grothendieck lattice by the classes
    restricted from one dimension up, computed by decomposing actual modules
    (no table lookups)."""
    irreps = graded_irreducibles(k)
    labels: List[str] = []
    for m in irreps:
        dec = spinors.decompose_module(m, graded=True)
        nonzero = [l for l, c in dec.multiplicities.items() if c]
        if len(nonzero) != 1 or dec.multiplicities[nonzero[0]] != 1:
            raise ArithmeticError("irreducible module does not have a unit class")
        labels.append(nonzero[0])
    if len(set(labels)) != len(labels):
        raise ArithmeticError("irreducible graded modules are not distinguished")

    restricted = [spinors.restrict_module(m) for m in graded_irreducibles(k + 1)]
    rows = [_graded_class_vector(m, labels) for m in restricted]
    invariants, rank = _smith_invariants(rows, len(labels))
    free_rank = len(labels) - rank
    if any(d not in (0, 1) for d in invariants):
        raise ArithmeticError("unexpected torsion in the complex module quotient")
    if free_rank == 0:
        return AbsGroup(k, "0", None)
    if free_rank == 1:
        return AbsGroup(k, "Z", irreps[0])
    raise ArithmeticError(f"unexpected quotient of rank {free_rank}")


def _smith_invariants(rows: List[List[int]], cols: int) -> Tuple[List[int], int]:
    """Elementary divisors of the integer row lattice (tiny Smith normal form)."""
    a = [row[:] for row in rows if any(row)]
    if not a:
        return [], 0
    m, n = len(a), cols
    invariants = []
    top = 0
    while top < min(m, n):
        pivot = min(((abs(a[r][c]), r, c) for r in range(top, m)
                     for c in range(top, n) if a[r][c]), default=None)
        if pivot is None:
            break
        _, pr, pc = pivot
        a[top], a[pr] = a[pr], a[top]
        for row in a:
            row[top], row[pc] = row[pc], row[top]
        reduced = True
        while reduced:
            reduced = False
            for r in range(top + 1, m):
                if a[r][top]:
                    qout = a[r][top] // a[top][top]
                    a[r] = [x - qout * y for x, y in zip(a[r], a[top])]
                    if a[r][top]:
                        a[top], a[r] = a[r], a[top]
                        reduced = True
            for c in range(top + 1, n):
                if a[top][c]:
                    qout = a[top][c] // a[top][top]
                    for row in a:
                        row[c] -= qout * row[top]
                    if a[top][c]:
                        for row in a:
                            row[top], row[c] = row[c], row[top]
                        reduced = True
        invariants.append(abs(a[top][top]))
        top += 1
    return invariants, len(invariants)


# ---------------------------------------------------------------------------
# the exterior-algebra Thom class
# ---------------------------------------------------------------------------

def _exterior_coefficients(n: int) -> np.ndarray:
    """The 2n coefficient matrices of cl(v) = v wedge . - v* contract . on
    Lambda* C^n, for v in R^2n = C^n (z_j = v_2j + i v_2j+1): with W_j the
    wedge with e_j and K_j the contraction with e_j*, C_2j = W_j - K_j and
    C_2j+1 = i (W_j + K_j)."""
    size = 1 << n
    wedge = np.zeros((n, size, size))
    contract = np.zeros((n, size, size))
    for s in range(size):
        for j in range(n):
            bit = 1 << j
            sign = -1.0 if bin(s & (bit - 1)).count("1") % 2 else 1.0
            if not s & bit:
                wedge[j, s | bit, s] = sign
            else:
                contract[j, s ^ bit, s] = sign
    c = np.empty((2 * n, size, size), dtype=complex)
    c[0::2] = wedge - contract
    c[1::2] = 1j * (wedge + contract)
    return c


def thom_class_complex(n: int) -> SymbolClass:
    """Exterior-algebra model on a single fiber C^n (viewed as R^2n):
    clutching v -> v wedge . - v* contract . from even to odd forms."""
    if n < 1:
        raise ValueError("complex rank must be >= 1")
    parity = np.array([bin(s).count("1") % 2 for s in range(1 << n)])
    c = _exterior_coefficients(n)
    return SymbolClass(c[:, parity == 1][:, :, parity == 0])
