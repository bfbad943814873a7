"""Principal symbols, ellipticity, difference-bundle classes and the
Clifford-module periodicity computation.

Symbol convention: a term ``a_alpha d^alpha`` contributes ``a_alpha (i xi)^alpha``
to the principal symbol.  With that single choice the flat Laplacian built as
``-sum d_i^2`` has symbol ``|xi|^2`` and the Dirac operator ``sum gamma_i d_i``
has symbol ``i cl(xi)``; both identities are pinned by tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
        if len(xi) != self.base_dim:
            raise ValueError("covector length must equal base dimension")
        out = np.zeros(self.shape, dtype=complex)
        z = [1j * x for x in xi]
        for alpha, a in self.terms.items():
            factor = 1.0 + 0.0j
            for zj, k in zip(z, alpha):
                factor *= zj ** k
            out += factor * a
        return out


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
    witness: Optional[Tuple[float, ...]] = None
    witness_exact: Optional[Tuple[int, ...]] = None

    def __bool__(self):
        return self.elliptic


def _halton(index: int, base: int) -> float:
    f, r = 1.0, 0.0
    while index > 0:
        f /= base
        r += f * (index % base)
        index //= base
    return r


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _sphere_points(n: int, count: int) -> np.ndarray:
    """Deterministic low-discrepancy points on the unit sphere in R^n."""
    pts = []
    idx = 1
    while len(pts) < count:
        v = np.array([2.0 * _halton(idx, _PRIMES[j % len(_PRIMES)]) - 1.0
                      for j in range(n)])
        idx += 1
        norm = np.linalg.norm(v)
        if norm > 1e-3:
            pts.append(v / norm)
    return np.array(pts)


def is_elliptic(sym: SymbolPolynomial) -> EllipticityReport:
    """Invertibility of the symbol on the unit sphere, by low-discrepancy
    sampling plus local refinement around the worst direction.

    A non-elliptic verdict carries a witness direction; when the witness
    snaps to a small integer covector the degeneracy is re-verified with an
    exact determinant (homogeneity makes scaling irrelevant).
    """
    n = sym.base_dim
    pts = list(_sphere_points(n, min(4 ** n, MAX_SPHERE_POINTS)))
    for i in range(n):
        axis = np.zeros(n)
        axis[i] = 1.0
        pts.extend([axis, -axis])

    def min_sv(v):
        svals = np.linalg.svd(sym.evaluate(v), compute_uv=False)
        return (svals[-1], svals[0]) if len(svals) else (np.inf, 0.0)

    best_v, best = None, np.inf
    scale = 0.0
    for v in pts:
        lo, hi = min_sv(v)
        scale = max(scale, hi)
        if lo < best:
            best, best_v = lo, v

    # local refinement: shrink a probe ball around the running minimizer
    radius = 0.5
    probe_dirs = _sphere_points(n, PROBES_PER_ROUND)
    for _ in range(REFINE_ROUNDS):
        improved = False
        for d in probe_dirs:
            cand = best_v + radius * d
            norm = np.linalg.norm(cand)
            if norm < 1e-9:
                continue
            cand = cand / norm
            lo, _ = min_sv(cand)
            if lo < best:
                best, best_v, improved = lo, cand, True
        if not improved:
            radius *= 0.6
            if radius < 1e-14:
                break

    threshold = ELLIPTIC_RTOL * max(scale, 1e-300)
    if best > threshold:
        return EllipticityReport(True, float(best), float(scale), len(pts))
    witness = tuple(float(x) for x in best_v)
    exact = _snap_exact_witness(sym, best_v)
    if exact is not None:
        norm = math.sqrt(sum(x * x for x in exact))
        witness = tuple(x / norm for x in exact)
    return EllipticityReport(False, float(best), float(scale), len(pts),
                             witness, exact)


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

@dataclass(frozen=True)
class SymbolClass:
    """Difference-bundle data on the sphere: ranks of the two bundles and a
    clutching map, invertible at every nonzero vector."""

    k: int
    rank_plus: int
    rank_minus: int
    clutching: Callable[[Sequence[float]], np.ndarray] = field(compare=False)

    def __post_init__(self):
        if self.rank_plus != self.rank_minus:
            raise ValueError("clutching needs equal ranks to be invertible")
        for v in _sphere_points(max(self.k, 1), 16):
            m = self.clutching(v)
            if m.shape != (self.rank_minus, self.rank_plus):
                raise ValueError("clutching shape mismatch")
            if self.rank_plus and np.linalg.svd(m, compute_uv=False)[-1] < 1e-12:
                raise ValueError("clutching is singular on the sphere")


def abs_class(module: CliffordModule) -> SymbolClass:
    """Clifford multiplication as a clutching map between the grading
    eigenspaces of a graded module."""
    if module.grading is None:
        raise ValueError("difference-bundle class needs a graded module")
    module.validate(tol=0.0 if not spinors._is_float_module(module) else 1e-9)
    k = module.clifford_dim
    if module.dim == 0:
        return SymbolClass(k, 0, 0, lambda v: np.zeros((0, 0), dtype=complex))
    eps = module.grading
    if np.max(np.abs(eps - eps.conj().T)) > 1e-9:
        raise ValueError("clutching classes need an orthogonal (hermitian) grading")
    w, q = np.linalg.eigh((eps + eps.conj().T) / 2)
    basis_minus = q[:, w < 0]
    basis_plus = q[:, w > 0]
    gens = module.generators

    def clutching(v: Sequence[float]) -> np.ndarray:
        if len(v) != k:
            raise ValueError("vector length must match the Clifford dimension")
        m = np.zeros((module.dim, module.dim), dtype=complex)
        for vi, g in zip(v, gens):
            m += vi * g
        return basis_minus.conj().T @ m @ basis_plus

    return SymbolClass(k, basis_plus.shape[1], basis_minus.shape[1], clutching)


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
    dets = np.array([np.linalg.det(sc.clutching((math.cos(t), math.sin(t))))
                     for t in theta])
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

def thom_class_complex(n: int) -> SymbolClass:
    """Exterior-algebra model on a single fiber C^n (viewed as R^2n):
    clutching v -> v wedge . - v* contract . from even to odd forms."""
    if n < 1:
        raise ValueError("complex rank must be >= 1")
    subsets = list(range(1 << n))
    even = [s for s in subsets if bin(s).count("1") % 2 == 0]
    odd = [s for s in subsets if bin(s).count("1") % 2 == 1]
    pos_even = {s: i for i, s in enumerate(even)}
    pos_odd = {s: i for i, s in enumerate(odd)}

    def clutching(v: Sequence[float]) -> np.ndarray:
        if len(v) != 2 * n:
            raise ValueError("vector must have 2n real coordinates")
        z = [complex(v[2 * j], v[2 * j + 1]) for j in range(n)]
        m = np.zeros((len(odd), len(even)), dtype=complex)
        for s in even:
            col = pos_even[s]
            for j in range(n):
                bit = 1 << j
                sign = -1.0 if bin(s & (bit - 1)).count("1") % 2 else 1.0
                if not s & bit:                       # wedge with e_j
                    m[pos_odd[s | bit], col] += sign * z[j]
                else:                                 # contract with e_j*
                    m[pos_odd[s ^ bit], col] -= sign * z[j].conjugate()
        return m

    return SymbolClass(2 * n, len(even), len(odd), clutching)


def exterior_clifford_matrix(v: Sequence[float], n: int) -> np.ndarray:
    """Full cl(v) = v wedge . - v* contract . on all of Lambda* C^n."""
    if len(v) != 2 * n:
        raise ValueError("vector must have 2n real coordinates")
    z = [complex(v[2 * j], v[2 * j + 1]) for j in range(n)]
    size = 1 << n
    m = np.zeros((size, size), dtype=complex)
    for s in range(size):
        for j in range(n):
            bit = 1 << j
            sign = -1.0 if bin(s & (bit - 1)).count("1") % 2 else 1.0
            if not s & bit:
                m[s | bit, s] += sign * z[j]
            else:
                m[s ^ bit, s] -= sign * z[j].conjugate()
    return m
