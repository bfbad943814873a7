"""Spin and Spin^c groups inside the Clifford algebra.

Group elements are even multivectors of unit norm acting on vectors by the
twisted conjugation x v alpha(x)^-1; the induced matrix on the generators is
the double-covered rotation.  Every element, rotation matrix and Spin^c phase
is exact: rational elements come from Pythagorean unit vectors, and
:func:`lift_rotation` turns an angle into an exact rational rotor through
the half-angle tangent, so no tolerance enters anywhere.

Norm convention: N(x) = rev(alpha(x)) * x, one of the scalar-factor choices;
documented here once rather than claimed canonical.

Exact elements are certified on integers.  Certification refuses an odd or
non-real x first, so x = X / den with X a real, even integer blade map, the
``(den, re)`` that ``Multivector`` stores, and alpha(X) = X.  When N(x) is
scalar, alpha(x)^-1 = x^-1 = rev(x) / N(x), and

    x e_i alpha(x)^-1 = x e_i rev(x) / N(x) = (X e_i rev(X)) / s0,
    s0 = den^2 N(x) = scalar entry of rev(X) X.

So s0 and the columns of the cover, integers over the single denominator
s0, come from two loops over X's term pairs (below); division happens only
when the final Fraction entries are built.

A certified x needs no SO(q) check.  Once N(x) = 1 and every
rho(e_i) = x e_i x^-1 is a vector, rho(v) = x v x^-1 maps V to V, and:

- rho(v)^2 = x v^2 x^-1 = v^2, a scalar; as rho(v) is a vector this reads
  q(rho(v)) = q(v), so rho preserves q and C^T Q C = s0^2 Q holds as an
  identity (C = s0 M, the integer columns).
- x lies in the Clifford group, on which the twisted action has the
  nonzero scalars as its kernel, and O(q) is generated by reflections,
  each the action of an anisotropic vector (Cartan-Dieudonne over Q;
  Lawson-Michelsohn, Ch. I par. 2).  So x = lambda v_1 ... v_k, with k
  even since x is even: det M = (-1)^k = 1 and det C = s0^n.

:meth:`RotationMatrix.is_special_orthogonal` is the one SO(q) reading, for
matrices from elsewhere and for the covering-map criterion.

Each loop takes the pairs of X's terms once.  rev is an anti-automorphism,
rev(e_A) = r_A e_A with r_A = (-1)^(k(k-1)/2) on a blade of grade k, and
rev(e_i) = e_i.  Write X = sum_A x_A e_A.  The pair (A, B) of X e_i rev(X)
gives the term t_AB = x_A x_B r_B e_A e_i e_B, and

    rev(t_AB) = x_A x_B r_B rev(e_B) e_i rev(e_A) = x_A x_B r_A e_B e_i e_A = t_BA.

The same holds with 1 in place of e_i, for Y rev(Y) with Y = rev(X), which
is the norm rev(X) X.  Both t_AB and t_BA lie on the blade A ^ B ^ e_i
(A ^ B for the norm), of grade k say, where rev is the sign
(-1)^(k(k-1)/2): +1 for k = 0, 1 mod 4 and -1 for k = 2, 3 mod 4.  So
t_AB + t_BA is 2 t_AB on grades 0, 1 mod 4 and 0 on grades 2, 3 mod 4, and
a loop takes the pairs A <= B in the order of X's terms: a diagonal pair
once, an off-diagonal pair twice or not at all.  With D = A ^ B, of even
grade as X is even, and e_A e_B = sigma(A, B) e_D:

- The norm loop.  A pair adds r_A x_A x_B sigma(A, B), doubled off the
  diagonal, on D when |D| = 0 mod 4.  The diagonal (D = 0) gives
  s0 = sum_A r_A x_A^2 sigma(A, A); a nonzero entry on any other D means
  the norm is not scalar.
- The column loop, run only once the norm has passed.  The pair's term in
  the image of e_i lies on D ^ e_i, of grade |D| - 1 for i in D and
  |D| + 1 for i outside D, so it is kept on the columns i in D when
  |D| = 2 mod 4 and on the columns i outside D when |D| = 0 mod 4.  The
  diagonal feeds every C_ii, a pair with D = {p, q} column p's e_q entry
  and column q's e_p entry, and a pair with |D| >= 4 only entries off the
  vectors, which cancel for an element of the Clifford group.
- The sign.  e_A e_i e_B = sigma(A, e_i) e_{A ^ e_i} e_B, and with m_B the
  sign mask of B (e_C e_B = (-1)^popcount(C & m_B) e_{C ^ B},
  ``clifford._sign_mask``), sigma(A ^ e_i, B) = sigma(A, B)
  (-1)^(bit i of m_B).  With S_A the mask whose bit i is the parity of
  sigma(A, e_i), the sign is bit i of S_A ^ m_B, flipped when A & m_B has
  odd parity: a few bit operations per pair and column.

The integers are those of the full products, so every certificate and
matrix is too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from numbers import Rational
from typing import Dict, List, Optional, Tuple

from . import exactnum
from .clifford import (MAX_DIM, GaussianRational, Multivector, QuadraticForm, _sign_mask,
                       blade_from_indices)


class NotInvertibleError(ZeroDivisionError):
    pass


class NotScalarNormError(ValueError):
    pass


# ---------------------------------------------------------------------------
# twisted conjugation and the norm
# ---------------------------------------------------------------------------

def twisted_conjugation(x: Multivector, v: Multivector) -> Multivector:
    """x * v * alpha(x)^-1 (the Clifford-group action on the algebra)."""
    try:
        inv = x.inverse()
    except ZeroDivisionError as exc:
        raise NotInvertibleError("twisting element is not invertible") from exc
    return x * v * inv.grade_involution()


def spin_norm(x: Multivector) -> GaussianRational:
    """N(x) = rev(alpha(x)) * x, which is scalar on the Clifford group."""
    prod = x.grade_involution().reversal() * x
    if not prod.is_scalar():
        raise NotScalarNormError("norm is not scalar; element is outside the Clifford group")
    return prod.scalar_part()


# ---------------------------------------------------------------------------
# rotation matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RotationMatrix:
    """Square matrix with exact rational (Fraction) entries."""

    entries: Tuple[Tuple[Fraction, ...], ...]

    def __post_init__(self):
        if not all(isinstance(e, Rational) for row in self.entries for e in row):
            raise TypeError("rotation matrix entries must be exact: use Fraction")

    @property
    def dim(self) -> int:
        return len(self.entries)

    def to_numpy(self):
        import numpy as np
        return np.array([[float(e) for e in row] for row in self.entries])

    def column(self, j: int):
        return tuple(row[j] for row in self.entries)

    def determinant(self) -> Fraction:
        return exactnum.det(self.entries)

    def is_special_orthogonal(self, form: QuadraticForm) -> bool:
        """M^T Q M == Q and det M == +1, exactly."""
        den = lcm(*(e.denominator for row in self.entries for e in row))
        cols = [[e.numerator * (den // e.denominator) for e in self.column(j)]
                for j in range(self.dim)]
        return _cleared_is_special_orthogonal(cols, den, form.signs)

    def to_json(self) -> dict:
        return {"dim": self.dim, "rows": [[str(e) for e in row] for row in self.entries]}


def _cleared_is_special_orthogonal(cols: List[List[int]], den: int, signs) -> bool:
    """Whether M = C / den, with ``cols[j]`` the integer column j of C, is in
    SO(q): M^T Q M = Q and det M = 1, read on the integers as
    C^T Q C = den^2 Q and det C = den^n."""
    n = len(cols)
    den2 = den * den
    for i in range(n):
        for j in range(i, n):
            acc = sum(s * a * b for s, a, b in zip(signs, cols[i], cols[j]))
            if acc != (signs[i] * den2 if i == j else 0):
                return False
    # det C^T = det C; bareiss eliminates in place, so it gets a copy
    return exactnum.bareiss([list(c) for c in cols]) == den ** n


def _rotation(cols: List[List[int]], den: int) -> RotationMatrix:
    n = len(cols)
    return RotationMatrix(tuple(tuple(Fraction(cols[j][i], den) for j in range(n))
                                for i in range(n)))


# ---------------------------------------------------------------------------
# membership certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpinCertificate:
    ok: bool
    reason: Optional[str] = None


def is_in_spin(x: Multivector) -> SpinCertificate:
    """Check the Spin(V,q) membership conditions one by one.

    Even-ness, real coefficients, unit norm and preservation of the span of
    1-blades under twisted conjugation; the image is then in SO(q), with
    det +1 (module docstring).
    """
    return _certify(x)[0]


def _certify(x: Multivector):
    """``(certificate, matrix)``: the checks of :func:`is_in_spin` in order,
    on x's integers (module docstring); the matrix is None on a failure."""
    reason = _refusal(x)
    if reason:
        return SpinCertificate(False, reason), None
    terms = _pair_terms(x)
    s0, rest = _norm_pairs(terms)
    if any(rest.values()):
        return SpinCertificate(False, "norm is not scalar"), None
    norm = Fraction(s0, x._den * x._den)
    if norm != 1:
        return SpinCertificate(False, f"norm is {norm}, not 1"), None
    cols = _vector_columns(_image_pairs(terms, x.form), x.form.dim)
    if cols is None:
        return SpinCertificate(False, "twisted conjugation leaves the vector space"), None
    return SpinCertificate(True), _rotation(cols, s0)


def _refusal(x: Multivector) -> Optional[str]:
    """Why the integer path cannot take x (an odd component or a non-real
    coefficient), or None for a real even x."""
    if any(mask.bit_count() & 1 for mask in x._masks()):
        return "element has an odd component"
    if x._im:
        return "coefficients are not real"
    return None


def _conjugation_matrix(x: Multivector) -> RotationMatrix:
    """Matrix of v -> x v alpha(x)^-1 on the generators, for a real even x.

    Column i is x e_i alpha(x)^-1 = (X e_i rev(X)) / s0 with X = den x
    integral and s0 = den^2 N(x) (derived in the module docstring), computed
    on integers.  ValueError with :func:`_certify`'s reason for an odd or
    non-real x; NotScalarNormError when N(x) is not scalar or an image is
    not a vector, NotInvertibleError when N(x) = 0.
    """
    reason = _refusal(x)
    if reason:
        raise ValueError(reason)
    terms = _pair_terms(x)
    s0, rest = _norm_pairs(terms)
    if any(rest.values()):
        raise NotScalarNormError("norm is not scalar; element is outside the Clifford group")
    if not s0:
        raise NotInvertibleError("twisting element is not invertible")
    cols = _vector_columns(_image_pairs(terms, x.form), x.form.dim)
    if cols is None:
        raise NotScalarNormError("image of a vector is not a vector")
    return _rotation(cols, s0)


def _pair_terms(x: Multivector) -> List[Tuple[int, int, int, int]]:
    """Each term x_A e_A of a real even x = X / den as (A, x_A, r_A x_A, m_A),
    with r_A the reversal sign of e_A and m_A its sign mask
    (``clifford._sign_mask``): e_C e_A = (-1)^popcount(C & m_A) e_{C ^ A}."""
    pos = x.form.positive_mask
    return [(a, v, -v if a.bit_count() & 2 else v, _sign_mask(a, pos))
            for a, v in x._re.items()]


def _norm_pairs(terms) -> Tuple[int, Dict[int, int]]:
    """(s0, rest) of rev(X) X over the pairs j <= k of X's ``terms``: s0 its
    scalar entry, ``rest`` its other entries, cancelled ones kept as zeros
    (module docstring)."""
    s0 = 0
    rest: Dict[int, int] = {}
    for j, (a, va, ra, ma) in enumerate(terms):
        t = ra * va
        s0 += -t if (a & ma).bit_count() & 1 else t
        ra *= 2
        for b, vb, _, mb in terms[j + 1:]:
            d = a ^ b
            if d.bit_count() & 2:
                continue
            t = ra * vb
            rest[d] = rest.get(d, 0) + (-t if (a & mb).bit_count() & 1 else t)
    return s0, rest


#: per dimension n, entry D (filled on first use): the columns a pair of
#: terms with A ^ B = D feeds, each as (e_i, key of its entry in the image)
_FEEDS: Dict[int, List[Optional[Tuple[Tuple[int, int], ...]]]] = {}


def _feeds(d: int, full: int) -> Tuple[Tuple[int, int], ...]:
    """The columns e_i with D ^ e_i of grade 1 mod 4: i in D when |D| = 2
    mod 4, i outside D when |D| = 0 mod 4 (module docstring)."""
    hit = d if d.bit_count() & 2 else full ^ d
    out = []
    while hit:
        low = hit & -hit
        hit ^= low
        out.append((low, low << MAX_DIM | d ^ low))
    return tuple(out)


def _image_pairs(terms, form: QuadraticForm) -> Dict[int, int]:
    """The entries of X e_i rev(X), for every i, over the pairs j <= k of
    X's ``terms``: the coefficient of e_C in the image of e_i is keyed
    ``(1 << i) << MAX_DIM | C``, cancelled ones kept as zeros (module
    docstring)."""
    pos = form.positive_mask
    full = (1 << form.dim) - 1
    feeds = _FEEDS.get(form.dim)
    if feeds is None:
        feeds = _FEEDS[form.dim] = [None] * (full + 1)
    image: Dict[int, int] = {}
    for j, (a, va, ra, ma) in enumerate(terms):
        # s = S_A: e_A e_i = (-1)^(bit i of s) e_{A ^ e_i}, bit i the parity
        # of A's indices above i (a 16-bit xor window, as in _sign_mask),
        # flipped when i is in A and e_i^2 = -1
        s = a >> 1
        s ^= s >> 1
        s ^= s >> 2
        s ^= s >> 4
        s ^= s >> 8
        s ^= a & pos
        for b, _, rb, mb in terms[j:]:
            d = a ^ b
            t = va * rb
            if d:
                t *= 2
            if (a & mb).bit_count() & 1:
                t = -t
            flip = s ^ mb
            feed = feeds[d]
            if feed is None:
                feed = feeds[d] = _feeds(d, full)
            for low, key in feed:
                image[key] = image.get(key, 0) + (-t if flip & low else t)
    return image


def _vector_columns(image: Dict[int, int], n: int) -> Optional[List[List[int]]]:
    """The integer columns of :func:`_image_pairs`' images, or None when an
    image has a nonzero entry off the vectors."""
    blades = (1 << MAX_DIM) - 1
    if any(v and (key & blades).bit_count() != 1 for key, v in image.items()):
        return None
    return [[image.get(1 << i << MAX_DIM | 1 << r, 0) for r in range(n)] for i in range(n)]


@dataclass(frozen=True)
class SpinElement:
    """A multivector certified to lie in Spin(V, q)."""

    value: Multivector

    def __post_init__(self):
        cert, matrix = _certify(self.value)
        if not cert.ok:
            raise ValueError(f"not a Spin element: {cert.reason}")
        object.__setattr__(self, "_matrix", matrix)

    @property
    def form(self) -> QuadraticForm:
        return self.value.form

    def __neg__(self) -> "SpinElement":
        # N(-u) = N(u) and -u covers the same rotation: nothing to certify
        out = object.__new__(SpinElement)
        object.__setattr__(out, "value", -self.value)
        object.__setattr__(out, "_matrix", self._matrix)
        return out

    def __mul__(self, other: "SpinElement") -> "SpinElement":
        return SpinElement(self.value * other.value)

    def to_json(self) -> dict:
        return self.value.to_json()

    @classmethod
    def from_json(cls, data: dict) -> "SpinElement":
        return cls(Multivector.from_json(data))


def covering_map(u: SpinElement) -> RotationMatrix:
    """The rotation covered by u; satisfies covering_map(-u) == covering_map(u)."""
    return u._matrix


def lift_rotation(i: int, j: int, theta: float,
                  form: Optional[QuadraticForm] = None) -> SpinElement:
    """An exact unit rotor near cos(theta/2) + sin(theta/2) e_i e_j, covering
    the plane rotation e_i -> cos(theta) e_i + sin(theta) e_j.

    The rotor is exp(phi e_i e_j) with phi = theta/2.  Split phi = q pi/2 + psi
    with |psi| <= pi/4, read cos(psi) and sin(psi) off the float cos(phi) and
    sin(phi), and round the half-angle tangent t = sin(psi) / (1 + cos(psi))
    to a multiple of 2^-52.  Then

        (e_i e_j)^q ((1 - t^2) + 2t e_i e_j) / (1 + t^2)

    has norm exactly 1, and its coefficients differ from the float cos/sin
    by about an ulp.  theta = k*pi gives (e_i e_j)^k exactly for |k| <= 3:
    1, e_i e_j and -1 at theta = 0, pi and 2*pi, the full-turn lift -1
    exhibiting the two-sheeted cover.
    """
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    if form is None:
        form = QuadraticForm.euclidean(max(i, j))
    if i == j:
        raise ValueError("rotation plane needs two distinct axes")
    if not (1 <= i <= form.dim and 1 <= j <= form.dim):
        raise ValueError("axis out of range")
    if form.signs[i - 1] != 1 or form.signs[j - 1] != 1:
        raise ValueError("plane rotation lift needs positive axes")
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    # (cos psi, sin psi) is (c, s) turned back by q quarter turns
    q, c, s = max(((0, c, s), (1, s, -c), (2, -c, -s), (3, -s, c)), key=lambda e: e[1])
    den = 1 << 52
    t = round(s / (1 + c) * den)                 # the tangent is t / den
    a, b = den * den - t * t, 2 * t * den        # (1 + t^2) exp(psi e_i e_j)
    for _ in range(q):                           # times e_i e_j, whose square is -1
        a, b = -b, a
    norm = den * den + t * t
    return SpinElement(Multivector(form, {
        0: Fraction(a, norm),
        blade_from_indices(sorted((i, j))): Fraction(b if i < j else -b, norm)}))


# ---------------------------------------------------------------------------
# Spin^c
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpinCElement:
    """Class of (spin, phase) modulo the simultaneous sign flip, with an
    exact phase (a float or complex one raises TypeError).

    Canonical representative: phase on the closed upper half circle, with the
    real phases resolved to +1 (built by :func:`spinc_canonicalize`).
    """

    spin: SpinElement
    phase: GaussianRational

    def __post_init__(self):
        object.__setattr__(self, "phase", GaussianRational.coerce(self.phase))

    def __mul__(self, other: "SpinCElement") -> "SpinCElement":
        return spinc_canonicalize(SpinElement(self.spin.value * other.spin.value),
                                  self.phase * other.phase)

    def to_json(self) -> dict:
        return {"spin": self.spin.to_json(),
                "phase": {"re": str(self.phase.re), "im": str(self.phase.im)}}


def spinc_canonicalize(u: SpinElement, z: GaussianRational) -> SpinCElement:
    """Deterministic representative of {(u, z), (-u, -z)}."""
    z = GaussianRational.coerce(z)
    if z.re * z.re + z.im * z.im != 1:
        raise ValueError("phase must have unit modulus")
    if z.im < 0 or (z.im == 0 and z.re < 0):
        return SpinCElement(-u, -z)
    return SpinCElement(u, z)


# ---------------------------------------------------------------------------
# rational sampling helpers (Pythagorean unit vectors)
# ---------------------------------------------------------------------------

def rational_unit_vector(rng, dim: int) -> List[Fraction]:
    """A q-norm-1 vector with rational coordinates on the Euclidean sphere,
    via inverse stereographic projection of a random rational point."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if dim == 1:
        return [Fraction(rng.choice((-1, 1)))]
    while True:
        w = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
             for _ in range(dim - 1)]
        n2 = sum(x * x for x in w)
        denom = n2 + 1
        v = [2 * x / denom for x in w] + [(n2 - 1) / denom]
        if any(v):
            return v


def random_spin_element(rng, form: QuadraticForm, pairs: int = 2) -> SpinElement:
    """Product of 2*pairs random rational unit vectors (hence in Spin)."""
    if any(s != 1 for s in form.signs):
        raise ValueError("rational unit sampling implemented for Euclidean forms")
    value = Multivector.scalar(form, 1)
    for _ in range(2 * pairs):
        coords = rational_unit_vector(rng, form.dim)
        value = value * Multivector.vector(form, coords)
    return SpinElement(value)
