"""Known answers computed without spindex.

Every check the benchmark makes compares a spindex result with a value from
this module, which shares no code with the package: its own Clifford product
(sorting the index word, not bit counting), its own exact rational matrices,
and the Bott-periodicity tables.  Nothing here is timed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

Terms = Dict[int, Fraction]  # blade bitmask -> exact real coefficient
Matrix = List[List[Fraction]]


# ---------------------------------------------------------------------------
# Clifford algebra with e_i * e_i = -signs[i]
# ---------------------------------------------------------------------------

def _indices(mask: int) -> List[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


@lru_cache(maxsize=1 << 16)
def blade_sign(a: int, b: int, signs: Tuple[int, ...]) -> int:
    """Sign of e_A e_B: count inversions of the concatenated index word, then
    contract each repeated index pair to -signs[i]."""
    word = _indices(a) + _indices(b)
    inversions = sum(1 for i in range(len(word)) for j in range(i + 1, len(word))
                     if word[i] > word[j])
    sign = -1 if inversions % 2 else 1
    for i in _indices(a & b):
        sign *= -signs[i]
    return sign


def mul(x: Terms, y: Terms, signs: Tuple[int, ...]) -> Terms:
    out: Terms = {}
    for a, ca in x.items():
        for b, cb in y.items():
            m = a ^ b
            out[m] = out.get(m, 0) + blade_sign(a, b, signs) * ca * cb
    return {m: c for m, c in out.items() if c}


def vector(coords: Sequence) -> Terms:
    return {1 << i: c for i, c in enumerate(coords) if c}


def quadratic_value(coords: Sequence, signs: Sequence[int]) -> int:
    return sum(s * c * c for s, c in zip(signs, coords))


def embed(x: Terms, source_dim: int, target_signs: Tuple[int, ...]) -> Terms:
    """Image under e_i -> e_i e_n, computed blade by blade."""
    n_bit = 1 << source_dim
    out: Terms = {}
    for mask, c in x.items():
        image: Terms = {0: Fraction(1)}
        for i in _indices(mask):
            image = mul(image, {(1 << i) | n_bit: blade_sign(1 << i, n_bit, target_signs)},
                        target_signs)
        for m, v in image.items():
            out[m] = out.get(m, 0) + c * v
    return {m: c for m, c in out.items() if c}


def norm_is_scalar(x: Terms, signs: Tuple[int, ...]) -> bool:
    """Whether rev(alpha(x)) * x is a scalar, i.e. x passes the Spin norm
    test's first condition."""
    def conj_sign(mask):
        g = bin(mask).count("1")
        return (-1) ** g * (-1) ** (g * (g - 1) // 2)
    norm = mul({m: conj_sign(m) * c for m, c in x.items()}, x, signs)
    return set(norm) <= {0}


def plain_terms(mv) -> Terms:
    """Exact real coefficients of a spindex Multivector; raises if any
    coefficient is not an exact real number."""
    out: Terms = {}
    for mask, c in mv.terms().items():
        if c.im != 0:
            raise ValueError("coefficient has an imaginary part")
        out[mask] = Fraction(c.re)
    return out


# ---------------------------------------------------------------------------
# exact rational matrices
# ---------------------------------------------------------------------------

def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def det(a: Matrix) -> Fraction:
    a = [row[:] for row in a]
    n = len(a)
    out = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            out = -out
        out *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return out


def reflection(v: Sequence[Fraction]) -> Matrix:
    """I - 2 v v^T for a Euclidean unit vector v: the rotation part of the
    twisted conjugation w -> v w alpha(v)^-1."""
    n = len(v)
    return [[Fraction(int(i == j)) - 2 * v[i] * v[j] for j in range(n)] for i in range(n)]


def rotation_of(vectors: Sequence[Sequence[Fraction]]) -> Matrix:
    """The rotation covered by v_1 ... v_k: the product of their reflections."""
    out = identity(len(vectors[0]))
    for v in vectors:
        out = matmul(out, reflection(v))
    return out


def is_special_orthogonal(r: Matrix) -> bool:
    return matmul(transpose(r), r) == identity(len(r)) and det(r) == 1


def unit_vector(rng, n: int) -> List[Fraction]:
    """A Euclidean unit vector with rational entries: inverse stereographic
    projection of the integer point (w, t).  Entries of w and t lie in 3..9
    in absolute value, so denominators have 5 to 9 bits."""
    w = [int(rng.integers(3, 10)) * int(rng.choice((-1, 1))) for _ in range(n - 1)]
    t = int(rng.integers(3, 10))
    s = sum(x * x for x in w)
    return [Fraction(2 * t * x, s + t * t) for x in w] + [Fraction(s - t * t, s + t * t)]


# ---------------------------------------------------------------------------
# complex Clifford modules (numpy, own code)
# ---------------------------------------------------------------------------

def satisfies_relations(gens: Sequence[np.ndarray], grading=None) -> bool:
    """g_i g_j + g_j g_i = -2 delta_ij I, and the grading is odd for every
    generator and squares to I."""
    if not gens:
        return True
    eye = np.eye(gens[0].shape[0])
    for i, gi in enumerate(gens):
        for j in range(i, len(gens)):
            gj = gens[j]
            target = -2 * eye if i == j else 0 * eye
            if not np.allclose(gi @ gj + gj @ gi, target, atol=1e-9):
                return False
        if grading is not None and not np.allclose(grading @ gi + gi @ grading, 0, atol=1e-9):
            return False
    return grading is None or np.allclose(grading @ grading, eye, atol=1e-9)


def volume_trace(gens: Sequence[np.ndarray]) -> float:
    """Real part of the trace of g_1 ... g_k / i^ceil(k/2); for an odd k it
    counts plus-odd minus minus-odd summands, times the irreducible size."""
    k = len(gens)
    img = np.eye(gens[0].shape[0], dtype=complex)
    for g in gens:
        img = img @ g
    return float((np.trace(img) / (1j ** ((k + 1) // 2))).real)


def volume_label(gens: Sequence[np.ndarray]) -> int:
    """+1 or -1: the label of an irreducible odd-dimensional module."""
    return 1 if volume_trace(gens) > 0 else -1


def even_part_label(gens: Sequence[np.ndarray], grading: np.ndarray) -> int:
    """Label of the even part of an irreducible graded module over an even
    algebra, as a module one dimension down under e_i -> e_i e_k."""
    w, q = np.linalg.eigh(grading)
    basis = q[:, w > 0]
    last = gens[-1]
    return volume_label([basis.conj().T @ g @ last @ basis for g in gens[:-1]])


# ---------------------------------------------------------------------------
# Bott periodicity
# ---------------------------------------------------------------------------

def complex_clifford_type(n: int) -> Tuple[Tuple[str, int], ...]:
    """Cl_n(C) = M(2^(n/2), C) for even n, two copies of M(2^((n-1)/2), C)
    for odd n."""
    if n % 2 == 0:
        return (("C", 1 << (n // 2)),)
    half = 1 << ((n - 1) // 2)
    return (("C", half), ("C", half))


_REAL_TABLE = {0: ("R", 1, 1), 1: ("R", 2, 1), 2: ("R", 1, 1), 3: ("C", 1, 2),
               4: ("H", 1, 4), 5: ("H", 2, 4), 6: ("H", 1, 4), 7: ("C", 1, 2)}


def real_clifford_type(plus: int, minus: int) -> Tuple[Tuple[str, int], ...]:
    """Real Clifford algebra with ``plus`` generators squaring to -1 and
    ``minus`` squaring to +1, from the period-8 table indexed by
    (minus - plus) mod 8."""
    field, copies, real_dim = _REAL_TABLE[(minus - plus) % 8]
    size = int(round(((1 << (plus + minus)) // (copies * real_dim)) ** 0.5))
    return ((field, size),) * copies


def abs_group(k: int) -> str:
    """Quotient of graded Cl_k-modules by restrictions from Cl_{k+1}:
    Z for even k, 0 for odd k."""
    return "Z" if k % 2 == 0 else "0"
