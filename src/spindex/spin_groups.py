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

So one integer product gives s0 and n more give the columns of the cover as
integers over the single denominator s0; division happens only when the
final Fraction entries are built.

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

Each of these products multiplies only half of its term pairs.  rev is an
anti-automorphism, rev(e_A) = r_A e_A with r_A = (-1)^(k(k-1)/2) on a blade
of grade k, and rev(e_i) = e_i.  Write X = sum_A x_A e_A.  The pair (A, B)
of X e_i rev(X) gives the term t_AB = x_A x_B r_B e_A e_i e_B, and

    rev(t_AB) = x_A x_B r_B rev(e_B) e_i rev(e_A) = x_A x_B r_A e_B e_i e_A = t_BA.

The same holds with 1 in place of e_i, for Y rev(Y) with Y = rev(X), which
is the norm rev(X) X.  Both t_AB and t_BA lie on the blade A ^ B ^ e_i
(A ^ B for the norm), of grade k say, where rev is the sign
(-1)^(k(k-1)/2): +1 for k = 0, 1 mod 4 and -1 for k = 2, 3 mod 4.  So
t_AB + t_BA is 2 t_AB on grades 0, 1 mod 4 and 0 on grades 2, 3 mod 4, and
the pair loop (``clifford._product`` with ``symmetric``) takes each pair of
terms once, A <= B in the order of X's terms: a diagonal pair once, an
off-diagonal pair twice or, when its grade is 2 or 3 mod 4, not at all,
skipped before it is multiplied.  The integers are those of the full
products, so every certificate and matrix is too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from numbers import Rational
from typing import Dict, List, Optional, Tuple

from . import exactnum
from .clifford import (GaussianRational, Multivector, QuadraticForm, _product, _reversed,
                       _right, _times_blade, blade_from_indices)


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
    try:
        s0 = _cleared_norm(x)
    except NotScalarNormError:
        return SpinCertificate(False, "norm is not scalar"), None
    norm = Fraction(s0, x._den * x._den)
    if norm != 1:
        return SpinCertificate(False, f"norm is {norm}, not 1"), None
    try:
        cols = _cleared_columns(x, s0)
    except NotScalarNormError:
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
    non-real x.
    """
    reason = _refusal(x)
    if reason:
        raise ValueError(reason)
    s0 = _cleared_norm(x)
    return _rotation(_cleared_columns(x, s0), s0)


def _cleared_norm(x: Multivector) -> int:
    """s0 = den^2 N(x) for a real even x = X / den: the scalar entry of
    rev(X) X, one halved product; NotScalarNormError if another is nonzero."""
    norm: Dict[int, int] = {}
    _product(_reversed(x._re), _right(x._re, x.form.positive_mask), norm, symmetric=True)
    if any(v for m, v in norm.items() if m):
        raise NotScalarNormError("norm is not scalar; element is outside the Clifford group")
    return norm.get(0, 0)


def _cleared_columns(x: Multivector, s0: int) -> List[List[int]]:
    """The columns x e_i alpha(x)^-1 = (X e_i rev(X)) / s0 of a real even
    x as integer lists over s0, one halved product each; rev(X) and its
    sign masks are built once for all n columns.

    Raises NotInvertibleError when s0 = 0 and NotScalarNormError when an
    image leaves the vector space.
    """
    if not s0:
        raise NotInvertibleError("twisting element is not invertible")
    pos = x.form.positive_mask
    n = x.form.dim
    right = _right(_reversed(x._re), pos)
    cols = []
    for i in range(n):
        image: Dict[int, int] = {}
        _product(_times_blade(x._re, 1 << i, pos), right, image, symmetric=True)
        if any(v and m.bit_count() != 1 for m, v in image.items()):
            raise NotScalarNormError("image of a vector is not a vector")
        cols.append([image.get(1 << r, 0) for r in range(n)])
    return cols


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
