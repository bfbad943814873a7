"""Spin and Spin^c groups inside the Clifford algebra.

Group elements are even multivectors of unit norm acting on vectors by the
twisted conjugation x v alpha(x)^-1; the induced matrix on the generators is
the double-covered rotation.  Exact rational elements (built from Pythagorean
unit vectors) keep the whole pipeline exact; angle-parametrized lifts use
floats with a 1e-12 working tolerance.

Norm convention: N(x) = rev(alpha(x)) * x, one of the scalar-factor choices;
documented here once rather than claimed canonical.

Exact elements are certified on integers.  Write x = X / den with X an
integer (Gaussian) blade map, the ``(den, re, im)`` that ``Multivector``
stores.  When N(x) is scalar, x^-1 = rev(alpha(x)) / N(x),
so alpha(x)^-1 = alpha(x^-1) = rev(x) / N(x) (alpha and rev commute and fix
scalars), and

    x e_i alpha(x)^-1 = x e_i rev(x) / N(x) = (X e_i rev(X)) / s0,
    s0 = den^2 N(x) = scalar entry of rev(alpha(X)) X.

So one integer product gives s0 and n more give the columns of the cover as
integers over the single denominator s0; the SO(q) check reads those integers
(C^T Q C = s0^2 Q and det C = s0^n), and division happens only when the
final Fraction entries are built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Tuple, Union

from . import exactnum
from .clifford import (GaussianRational, Multivector, QuadraticForm,
                       _gaussian_product, _reversed, _sign_mask, _to_complex,
                       blade_grade)

FLOAT_TOL = 1e-12


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


def spin_norm(x: Multivector) -> Union[GaussianRational, complex]:
    """N(x) = rev(alpha(x)) * x, which is scalar on the Clifford group."""
    prod = x.grade_involution().reversal() * x
    scalar = prod.scalar_part()
    rest = prod - Multivector.scalar(x.form, scalar)
    if not _negligible(rest):
        raise NotScalarNormError("norm is not scalar; element is outside the Clifford group")
    return scalar


def _negligible(x: Multivector) -> bool:
    """Zero, or (for an inexact x) every float coefficient within FLOAT_TOL."""
    if x._float is None:
        return x.is_zero()
    return all(not v if isinstance(v, GaussianRational) else abs(complex(v)) <= FLOAT_TOL
               for v in x._float.values())


# ---------------------------------------------------------------------------
# rotation matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RotationMatrix:
    """Square matrix with Fraction (exact path) or float entries."""

    entries: Tuple[Tuple[Union[Fraction, float], ...], ...]

    @property
    def dim(self) -> int:
        return len(self.entries)

    def is_exact(self) -> bool:
        return all(isinstance(e, Fraction) for row in self.entries for e in row)

    def to_numpy(self):
        import numpy as np
        return np.array([[float(e) for e in row] for row in self.entries])

    def column(self, j: int):
        return tuple(row[j] for row in self.entries)

    def determinant(self) -> Union[Fraction, float]:
        if self.is_exact():
            return exactnum.det(self.entries)
        import numpy as np
        return float(np.linalg.det(self.to_numpy()))

    def is_special_orthogonal(self, form: QuadraticForm) -> bool:
        """M^T Q M == Q and det M == +1 (exactly when entries are exact)."""
        n = self.dim
        if self.is_exact():
            den = lcm(*(e.denominator for row in self.entries for e in row))
            cols = [[e.numerator * (den // e.denominator) for e in self.column(j)]
                    for j in range(n)]
            return _cleared_is_special_orthogonal(cols, den, form.signs)
        for i in range(n):
            for j in range(n):
                acc = 0.0
                for r in range(n):
                    acc += self.entries[r][i] * form.signs[r] * self.entries[r][j]
                target = form.signs[i] if i == j else 0
                if abs(acc - target) > FLOAT_TOL:
                    return False
        return abs(self.determinant() - 1.0) <= FLOAT_TOL

    def to_json(self) -> dict:
        if self.is_exact():
            rows = [[str(e) for e in row] for row in self.entries]
        else:
            rows = [[float(e) for e in row] for row in self.entries]
        return {"dim": self.dim, "rows": rows}

    def isclose(self, other: "RotationMatrix") -> bool:
        return self.dim == other.dim and all(
            abs(float(a) - float(b)) <= FLOAT_TOL
            for ra, rb in zip(self.entries, other.entries)
            for a, b in zip(ra, rb))


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

    Even-ness, unit norm, real coefficients, preservation of the span of
    1-blades under twisted conjugation, and orientation det +1.
    """
    return _certify(x)[0]


def _certify(x: Multivector):
    if any(blade_grade(mask) & 1 for mask in x._masks()):
        return SpinCertificate(False, "element has an odd component"), None
    if x._float is None:
        if x._im:
            return SpinCertificate(False, "coefficients are not real"), None
        return _certify_cleared(x)
    if any(abs(_to_complex(v).imag) > FLOAT_TOL for v in x._float.values()):
        return SpinCertificate(False, "coefficients are not real"), None
    try:
        norm = spin_norm(x)
    except NotScalarNormError:
        return SpinCertificate(False, "norm is not scalar"), None
    if abs(_to_complex(norm) - 1) > FLOAT_TOL:
        return SpinCertificate(False, f"norm is {norm}, not 1"), None
    try:
        matrix = _conjugation_matrix(x)
    except NotInvertibleError:
        return SpinCertificate(False, "element is not invertible"), None
    except NotScalarNormError:
        return SpinCertificate(False, "twisted conjugation leaves the vector space"), None
    if not matrix.is_special_orthogonal(x.form):
        return SpinCertificate(False, "image is not special orthogonal"), None
    return SpinCertificate(True), matrix


def _certify_cleared(x: Multivector):
    """The exact branch of :func:`_certify` for an even, real x: the same
    checks in the same order, on x's integers (module docstring)."""
    try:
        s0 = _cleared_norm(x)
    except NotScalarNormError:
        return SpinCertificate(False, "norm is not scalar"), None
    norm = GaussianRational.over(*s0, x._den * x._den)
    if norm != 1:
        return SpinCertificate(False, f"norm is {norm}, not 1"), None
    try:
        d, cols = _cleared_columns(x, s0)
    except NotScalarNormError:
        return SpinCertificate(False, "twisted conjugation leaves the vector space"), None
    if not _cleared_is_special_orthogonal(cols, d, x.form.signs):
        return SpinCertificate(False, "image is not special orthogonal"), None
    return SpinCertificate(True), _rotation(cols, d)


def _conjugation_matrix(x: Multivector) -> RotationMatrix:
    """Matrix of v -> x v alpha(x)^-1 on the generators.

    For exact x the column i is x e_i alpha(x)^-1 = (X e_i rev(X)) / s0 with
    X = den x integral and s0 = den^2 N(x) (derived in the module
    docstring), computed on integers.  Float elements keep the general
    inverse, whose rounding the float results were produced with.
    """
    form = x.form
    if x._float is None:
        d, cols = _cleared_columns(x, _cleared_norm(x))
        return _rotation(cols, d)
    try:
        alpha_inv = x.inverse().grade_involution()
    except ZeroDivisionError as exc:
        raise NotInvertibleError("twisting element is not invertible") from exc
    pos = form.positive_mask
    cols = []
    for i in range(form.dim):
        x_ei = Multivector(form, _times_generator(x._float, 1 << i, pos))
        image = x_ei * alpha_inv
        off = image - image.grade_part(1)
        if not _negligible(off):
            raise NotScalarNormError("image of a vector is not a vector")
        cols.append([_to_complex(c).real for c in image.grade_part(1).vector_coords()])
    n = form.dim
    return RotationMatrix(tuple(tuple(cols[j][i] for j in range(n)) for i in range(n)))


def _times_generator(terms: Dict[int, object], bit: int, positive_mask: int) -> Dict[int, object]:
    """The blade map of x e_i (``bit`` = e_i) term by term:
    c e_A e_i = (-1)^popcount(A & sign mask) c e_{A ^ e_i}."""
    sign_mask = _sign_mask(bit, positive_mask)
    return {m ^ bit: -c if (m & sign_mask).bit_count() & 1 else c for m, c in terms.items()}


def _cleared_norm(x: Multivector) -> Tuple[int, int]:
    """s0 = den^2 N(x) for an exact x = X / den: the (re, im) parts of the
    scalar entry of rev(alpha(X)) X; NotScalarNormError if another is nonzero."""
    re, im = x._re, x._im
    norm = _gaussian_product((_reversed(re, True), _reversed(im, True)), (re, im),
                             x.form.positive_mask)
    if any(m for part in norm for m in part):
        raise NotScalarNormError("norm is not scalar; element is outside the Clifford group")
    return norm[0].get(0, 0), norm[1].get(0, 0)


def _cleared_columns(x: Multivector, s0: Tuple[int, int]):
    """``(d, cols)``: the columns x e_i alpha(x)^-1 = (X e_i rev(X)) / s0 as
    integer lists ``cols[i]`` over one real denominator d (s0 itself when it
    is real, |s0|^2 otherwise, the columns then times conj(s0)).

    Raises NotInvertibleError when s0 = 0 and NotScalarNormError when an
    image leaves the vector space or has an imaginary part.
    """
    re, im = x._re, x._im
    s_re, s_im = s0
    if not (s_re or s_im):
        raise NotInvertibleError("twisting element is not invertible")
    pos = x.form.positive_mask
    n = x.form.dim
    rev = _reversed(re), _reversed(im)
    cols = []
    for i in range(n):
        x_ei = tuple(_times_generator(part, 1 << i, pos) for part in (re, im))
        img_re, img_im = _gaussian_product(x_ei, rev, pos)
        if any(m.bit_count() != 1 for part in (img_re, img_im) for m in part):
            raise NotScalarNormError("image of a vector is not a vector")
        c_re = [img_re.get(1 << r, 0) for r in range(n)]
        c_im = [img_im.get(1 << r, 0) for r in range(n)]
        if s_im:
            # c / s0 = c conj(s0) / |s0|^2
            c_re, c_im = ([a * s_re + b * s_im for a, b in zip(c_re, c_im)],
                          [b * s_re - a * s_im for a, b in zip(c_re, c_im)])
        if any(c_im):
            raise NotScalarNormError("vector image has imaginary part")
        cols.append(c_re)
    return (s_re * s_re + s_im * s_im if s_im else s_re), cols


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
        """Parse a serialized element.

        Floating-point elements round-trip through the fraction-string schema
        as exact dyadic rationals whose norm is off by an ulp; when the exact
        reading fails certification and N(x) is within FLOAT_TOL of 1, retry
        in float arithmetic.  Any other failure is the exact one.
        """
        value = Multivector.from_json(data)
        try:
            return cls(value)
        except ValueError:
            norm = value.grade_involution().reversal() * value
            if not norm.isclose(Multivector.scalar(value.form, 1), FLOAT_TOL):
                raise
            as_float = Multivector(value.form, {m: v.to_complex()
                                                for m, v in value.terms().items()})
            return cls(as_float)


def covering_map(u: SpinElement) -> RotationMatrix:
    """The rotation covered by u; satisfies covering_map(-u) == covering_map(u)."""
    return u._matrix


def lift_rotation(i: int, j: int, theta: float,
                  form: Optional[QuadraticForm] = None) -> SpinElement:
    """cos(theta/2) + sin(theta/2) e_i e_j, covering the plane rotation
    e_i -> cos(theta) e_i + sin(theta) e_j.

    Exact for theta = 0 and theta = 2*pi-multiples up to float cos/sin; the
    full-turn lift is -1, exhibiting the two-sheeted cover.
    """
    if form is None:
        form = QuadraticForm.euclidean(max(i, j))
    if i == j:
        raise ValueError("rotation plane needs two distinct axes")
    if not (1 <= i <= form.dim and 1 <= j <= form.dim):
        raise ValueError("axis out of range")
    if form.signs[i - 1] != 1 or form.signs[j - 1] != 1:
        raise ValueError("plane rotation lift needs positive axes")
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    if c == int(c) and s == int(s):
        value = (Multivector.scalar(form, int(c))
                 + Multivector.blade(form, sorted((i, j)),
                                     int(s) if i < j else -int(s)))
    else:
        value = (Multivector.scalar(form, float(c))
                 + Multivector.blade(form, sorted((i, j)),
                                     float(s) if i < j else -float(s)))
    return SpinElement(value)


# ---------------------------------------------------------------------------
# Spin^c
# ---------------------------------------------------------------------------

Phase = Union[GaussianRational, complex]


@dataclass(frozen=True)
class SpinCElement:
    """Class of (spin, phase) modulo the simultaneous sign flip.

    Canonical representative: phase on the closed upper half circle, with the
    real phases resolved to +1 (built by :func:`spinc_canonicalize`).
    """

    spin: SpinElement
    phase: Phase

    def __mul__(self, other: "SpinCElement") -> "SpinCElement":
        return spinc_canonicalize(SpinElement(self.spin.value * other.spin.value),
                                  _phase_mul(self.phase, other.phase))

    def __eq__(self, other):
        if not isinstance(other, SpinCElement):
            return NotImplemented
        if isinstance(self.phase, GaussianRational) != isinstance(other.phase, GaussianRational):
            return False
        if isinstance(self.phase, GaussianRational):
            return self.phase == other.phase and self.spin.value == other.spin.value
        return (abs(complex(self.phase) - complex(other.phase)) <= FLOAT_TOL
                and self.spin.value.isclose(other.spin.value, FLOAT_TOL))

    def to_json(self) -> dict:
        if isinstance(self.phase, GaussianRational):
            phase = {"re": str(self.phase.re), "im": str(self.phase.im)}
        else:
            z = complex(self.phase)
            phase = {"re": z.real, "im": z.imag}
        return {"spin": self.spin.to_json(), "phase": phase}


def _phase_mul(a: Phase, b: Phase) -> Phase:
    if isinstance(a, GaussianRational) and isinstance(b, GaussianRational):
        return a * b
    return complex(a if not isinstance(a, GaussianRational) else a.to_complex()) * \
        complex(b if not isinstance(b, GaussianRational) else b.to_complex())


def spinc_canonicalize(u: SpinElement, z: Phase) -> SpinCElement:
    """Deterministic representative of {(u, z), (-u, -z)}."""
    if isinstance(z, GaussianRational):
        if z.re * z.re + z.im * z.im != 1:
            raise ValueError("phase must have unit modulus")
        flip = z.im < 0 or (z.im == 0 and z.re < 0)
    else:
        z = complex(z)
        if abs(abs(z) - 1.0) > FLOAT_TOL:
            raise ValueError("phase must have unit modulus")
        flip = z.imag < -FLOAT_TOL or (abs(z.imag) <= FLOAT_TOL and z.real < 0)
    if flip:
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
