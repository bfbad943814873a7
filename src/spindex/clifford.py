"""Exact arithmetic in real and complex Clifford algebras.

Elements are stored blade-wise: a blade is a bitmask over the basis vectors
(bit ``i`` set means ``e_{i+1}`` occurs), which keeps every basis monomial in
the canonical increasing-index form.  Exact Gaussian-rational coefficients
are stored as integers over one denominator (see :class:`Multivector`), and
every operation works on those integers.  Coefficients are exact: any
``numbers.Rational`` or ``GaussianRational``; a float or complex raises
TypeError.

Sign convention: generators square to minus their quadratic-form value,
``v * v == -q(v)``, so the Euclidean (all ``+1``) form has ``e_i**2 == -1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm
from numbers import Rational
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .exactnum import GaussianRational, _operand

MAX_DIM = 16

Coefficient = Union[GaussianRational, Rational]


class FormMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class QuadraticForm:
    """Diagonal quadratic form on R^dim with entries +1/-1."""

    dim: int
    signs: Tuple[int, ...]
    #: bit i set when signs[i] == +1, i.e. when e_{i+1}**2 == -1
    positive_mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0 <= self.dim <= MAX_DIM):
            raise ValueError(f"dimension must be in [0, {MAX_DIM}], got {self.dim}")
        if len(self.signs) != self.dim:
            raise ValueError("signs length must equal dim")
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs entries must be exactly +1 or -1")
        object.__setattr__(self, "positive_mask",
                           sum(1 << i for i, s in enumerate(self.signs) if s == 1))

    @classmethod
    def euclidean(cls, dim: int) -> "QuadraticForm":
        return cls(dim, (1,) * dim)

    @classmethod
    def of_signature(cls, plus: int, minus: int) -> "QuadraticForm":
        return cls(plus + minus, (1,) * plus + (-1,) * minus)

    def value(self, coords: Sequence) -> Coefficient:
        """q(v) for a coordinate vector."""
        total = None
        for s, c in zip(self.signs, coords):
            term = c * c if s == 1 else -(c * c)
            total = term if total is None else total + term
        return total if total is not None else 0


# ---------------------------------------------------------------------------
# blades
# ---------------------------------------------------------------------------

def blade_from_indices(indices: Iterable[int]) -> int:
    """Bitmask of a canonical blade from 1-based, strictly increasing indices."""
    mask = 0
    prev = 0
    for i in indices:
        if i <= prev:
            raise ValueError("blade indices must be strictly increasing and >= 1")
        mask |= 1 << (i - 1)
        prev = i
    return mask


def blade_indices(mask: int) -> Tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def blade_grade(mask: int) -> int:
    return mask.bit_count()


def blade_name(mask: int) -> str:
    if mask == 0:
        return "1"
    return "e" + "".join(str(i) for i in blade_indices(mask))


def _sign_mask(b: int, positive_mask: int) -> int:
    """Mask M with e_A e_B = (-1)^popcount(A & M) e_{A^B} for every blade A.

    Bit j of the prefix xor of ``b << 1`` is the parity of the indices of B
    below j, the transpositions e_j makes to pass them; each repeated index
    with a positive form value contributes e_j**2 = -1.  A 16-bit xor window
    covers every index of MAX_DIM = 16.
    """
    x = b << 1
    x ^= x << 1
    x ^= x << 2
    x ^= x << 4
    x ^= x << 8
    return x ^ (b & positive_mask)


def blade_sign(a: int, b: int, positive_mask: int) -> int:
    """The sign s with e_A e_B = s e_{A^B}; ``positive_mask`` has bit i set
    when q(e_{i+1}) = +1 (see :attr:`QuadraticForm.positive_mask`)."""
    return -1 if (a & _sign_mask(b, positive_mask)).bit_count() & 1 else 1


def blade_product(a: int, b: int, form: QuadraticForm) -> Tuple[GaussianRational, int]:
    """Product of two basis blades: (scalar factor, result blade).

    The factor is the transposition-count sign times ``-signs[i]`` for every
    repeated index (each ``e_i**2 = -q(e_i)``).
    """
    limit = 1 << form.dim
    if a >= limit or b >= limit:
        raise ValueError("blade does not fit in the quadratic form dimension")
    return GaussianRational(blade_sign(a, b, form.positive_mask)), a ^ b


# ---------------------------------------------------------------------------
# multivectors
# ---------------------------------------------------------------------------

class Multivector:
    """Element of Cl(V, q) with blade-indexed coefficients.

    An exact element is ``(den, re, im)``: a positive integer ``den`` and two
    ``dict[int, int]`` blade maps with no zero entries, the coefficient of
    e_m being ``(re[m] + i*im[m]) / den``.  A product or an inverse
    divides gcd(den, numerators) out, so a chain whose factors cancel keeps
    small integers; a sum or difference does not, so equality
    cross-multiplies and the hash divides out one gcd.
    ``GaussianRational`` appears only in ``terms()``, ``coefficient()``,
    ``scalar_part()``, ``vector_coords()``, ``to_json()`` and ``repr``.  A
    coefficient may be given as any ``numbers.Rational`` or a
    ``GaussianRational``; a float or complex raises TypeError, since no
    coefficient is ever rounded.  No stored map changes after construction,
    so instances are safe to share across threads.
    """

    __slots__ = ("form", "_den", "_re", "_im")

    def __init__(self, form: QuadraticForm, terms: Dict[int, Coefficient]):
        self.form = form
        limit = 1 << form.dim
        clean: Dict[int, GaussianRational] = {}
        den = 1
        for mask, value in terms.items():
            if mask >= limit or mask < 0:
                raise ValueError("blade outside algebra dimension")
            if type(value) is not GaussianRational:
                value = GaussianRational(value)
            if value:
                clean[mask] = value
                den = lcm(den, value.re.denominator, value.im.denominator)
        self._den = den
        self._re = {m: v.re.numerator * (den // v.re.denominator)
                    for m, v in clean.items() if v.re}
        self._im = {m: v.im.numerator * (den // v.im.denominator)
                    for m, v in clean.items() if v.im}

    @classmethod
    def _exact(cls, form: QuadraticForm, den: int, re: Dict[int, int], im: Dict[int, int]):
        """Wrap integer blade maps with no zero entries over ``den > 0``."""
        out = object.__new__(cls)
        out.form, out._den, out._re, out._im = form, den, re, im
        return out

    @classmethod
    def _reduced(cls, form: QuadraticForm, den: int, re: Dict[int, int], im: Dict[int, int]):
        """:meth:`_exact` after dividing gcd(den, numerators) out."""
        if den > 1:
            g = gcd(den, *re.values(), *im.values())
            if g > 1:
                den //= g
                re = {m: v // g for m, v in re.items()}
                if im:
                    im = {m: v // g for m, v in im.items()}
        return cls._exact(form, den, re, im)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, form: QuadraticForm) -> "Multivector":
        return cls(form, {})

    @classmethod
    def scalar(cls, form: QuadraticForm, value) -> "Multivector":
        return cls(form, {0: value})

    @classmethod
    def basis_vector(cls, form: QuadraticForm, i: int) -> "Multivector":
        """e_i for 1-based index i."""
        if not 1 <= i <= form.dim:
            raise ValueError(f"basis index {i} out of range")
        return cls(form, {1 << (i - 1): GaussianRational(1)})

    @classmethod
    def blade(cls, form: QuadraticForm, indices: Iterable[int], coeff=1) -> "Multivector":
        return cls(form, {blade_from_indices(indices): coeff})

    @classmethod
    def vector(cls, form: QuadraticForm, coords: Sequence) -> "Multivector":
        if len(coords) != form.dim:
            raise ValueError("coordinate count must equal dimension")
        return cls(form, {1 << i: c for i, c in enumerate(coords)})

    # -- access --------------------------------------------------------------

    def terms(self) -> Dict[int, GaussianRational]:
        re, im, den = self._re, self._im, self._den
        return {m: GaussianRational.over(re.get(m, 0), im.get(m, 0), den)
                for m in ({**re, **im} if im else re)}

    def coefficient(self, mask_or_indices) -> GaussianRational:
        mask = (mask_or_indices if isinstance(mask_or_indices, int)
                else blade_from_indices(mask_or_indices))
        return GaussianRational.over(self._re.get(mask, 0), self._im.get(mask, 0), self._den)

    def scalar_part(self) -> GaussianRational:
        return self.coefficient(0)

    def grade_part(self, k: int) -> "Multivector":
        return self._map_parts(lambda part: {m: v for m, v in part.items() if m.bit_count() == k})

    def _masks(self):
        return self._re.keys() | self._im.keys()

    def is_zero(self) -> bool:
        return not (self._re or self._im)

    def is_scalar(self) -> bool:
        return all(m == 0 for m in self._masks())

    def is_vector(self) -> bool:
        return all(blade_grade(m) == 1 for m in self._masks())

    def vector_coords(self) -> List[GaussianRational]:
        if not self.is_vector():
            raise ValueError("not a pure 1-vector")
        return [self.coefficient(1 << i) for i in range(self.form.dim)]

    # -- ring structure ------------------------------------------------------

    def _check_form(self, other: "Multivector"):
        if self.form is not other.form and self.form != other.form:
            raise FormMismatchError("multivectors live in different Clifford algebras")

    def _map_parts(self, fn, form: Optional[QuadraticForm] = None) -> "Multivector":
        """Apply ``fn``, a blade-dict map making no entry zero, to each stored map."""
        form = self.form if form is None else form
        return Multivector._exact(form, self._den, fn(self._re), fn(self._im))

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign: int):
        """self + other (``sign`` 1) or self - other (``sign`` -1)."""
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_form(other)
        da, db = self._den, other._den
        den = lcm(da, db)
        fa, fb = den // da, sign * (den // db)
        return Multivector._exact(self.form, den, _combined(self._re, fa, other._re, fb),
                                  _combined(self._im, fa, other._im, fb))

    def __neg__(self):
        return self._map_parts(lambda part: {m: -v for m, v in part.items()})

    def __mul__(self, other):
        if not isinstance(other, Multivector):
            return self._scale(other)
        self._check_form(other)
        return self._times(other)

    def _times(self, other: "Multivector") -> "Multivector":
        """The product on the integer maps, with no form check."""
        return Multivector._reduced(self.form, self._den * other._den, *_gaussian_product(
            (self._re, self._im), (other._re, other._im), self.form.positive_mask))

    def __rmul__(self, other):
        # scalars commute with everything we ever scale by
        return self._scale(other)

    def _scale(self, c):
        c = _operand(c)
        if c is NotImplemented:
            return NotImplemented
        return self._times(Multivector.scalar(self.form, c))

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        if self.form != other.form:
            return False
        da, db = self._den, other._den
        # a / da == b / db blade by blade, on the same blades
        return all(a.keys() == b.keys() and all(v * db == b[m] * da for m, v in a.items())
                   for a, b in ((self._re, other._re), (self._im, other._im)))

    def __hash__(self):
        g = gcd(self._den, *self._re.values(), *self._im.values())
        return hash((self.form, self._den // g,
                     frozenset((m, v // g) for m, v in self._re.items()),
                     frozenset((m, v // g) for m, v in self._im.items())))

    # -- involutions -----------------------------------------------------------

    def grade_involution(self) -> "Multivector":
        """alpha: negate odd-grade components (v -> -v on vectors)."""
        return self._map_parts(lambda part: {m: -v if m.bit_count() & 1 else v
                                             for m, v in part.items()})

    def reversal(self) -> "Multivector":
        """Anti-automorphism e_{i1}...e_{ik} -> e_{ik}...e_{i1}."""
        return self._map_parts(_reversed)

    def grade_decompose(self) -> Tuple["Multivector", "Multivector"]:
        """Split into the +1 / -1 eigenspaces of the grade involution."""
        return tuple(self._map_parts(lambda part, odd=odd: {
            m: v for m, v in part.items() if m.bit_count() & 1 == odd}) for odd in (0, 1))

    # -- inversion ----------------------------------------------------------

    def inverse(self) -> "Multivector":
        """Multiplicative inverse; ZeroDivisionError when there is none.

        Computes the norm M = rev(alpha(x)) x first.  A scalar M is the
        Clifford-group shortcut: rev(alpha(x)) / M when M != 0, and when
        M = 0 there is no inverse (an inverse of x would make M one too).
        Any other M is inverted by the Faddeev-LeVerrier recursion of
        Shirokov (Comput. Appl. Math. 40 (2021) 173; Hitzer and Sangwine,
        Appl. Math. Comput. 311 (2017) 375, give its closed forms for
        n <= 5), and x^-1 = M^-1 rev(alpha(x)); M is invertible exactly when
        x is, and it lies on grades 0, 3 mod 4 (0 mod 4 for an even x), so
        the recursion's products are sparser on M than on x.

        The recursion inverts any element y.  Cl(V, q) tensor C acts
        faithfully on the complex spinor module of dimension N = 2^ceil(n/2)
        (for odd n the sum of the two irreducible ones), and there the trace
        of y is N times its scalar part: a blade other than 1 anticommutes
        with some generator, so its trace is minus itself, except the odd
        pseudoscalar, which acts by opposite scalars on the two summands.
        Newton's identities for the characteristic polynomial of y on that
        module then read U_1 = y, C_k = (N/k) <U_k>_0 and
        U_{k+1} = y (U_k - C_k), and Cayley-Hamilton makes U_N the scalar
        s = (-1)^(N+1) det y.  With V = U_{N-1} - C_{N-1} (V = 1 in Cl_0),
        y V = s is the certificate, as M is for the shortcut: s != 0 makes
        V / s the inverse, and s = 0 means det y = 0.  The recursion takes
        N - 1 products.
        """
        candidate = self._map_parts(lambda part: _reversed(part, True))
        norm = candidate._times(self)
        # a left inverse in a finite-dimensional algebra is two-sided, so
        # both rev(alpha(x)) / M and M^-1 rev(alpha(x)) are certified by M
        if not norm.is_scalar():
            return norm._inverse_by_recursion()._times(candidate)
        if norm.is_zero():
            raise ZeroDivisionError("multivector is not invertible")
        return candidate._over_scalar(norm)

    def _inverse_by_recursion(self) -> "Multivector":
        size = 1 << (self.form.dim + 1) // 2
        v, u = Multivector.scalar(self.form, 1), self
        for k in range(1, size):
            # U_k = W / d, so U_k - C_k = (k W - N <W>_0) / (k d)
            v = Multivector._exact(self.form, k * u._den,
                                   *(_combined(part, k, {0: part.get(0, 0)}, -size)
                                     for part in (u._re, u._im)))
            u = self._times(v)
        if not u.is_scalar():
            raise RuntimeError("x times its Faddeev-LeVerrier adjugate is not a scalar")
        if u.is_zero():
            raise ZeroDivisionError("multivector is not invertible")
        return v._over_scalar(u)

    def _over_scalar(self, s: "Multivector") -> "Multivector":
        """self / s for a nonzero scalar s."""
        # self = C / d and s = (s_re + i s_im) / e, so self / s is
        # C e conj(s) / (d |s|^2), taken here over d |s|^2 / g with
        # g = gcd(s_re, s_im)
        s_re, s_im = s._re.get(0, 0), s._im.get(0, 0)
        g, e = gcd(s_re, s_im), s._den
        f_re, f_im = e * s_re // g, -e * s_im // g
        c_re, c_im = self._re, self._im
        # C times the scalar f_re + i f_im, term by term
        return Multivector._reduced(self.form, self._den * ((s_re * s_re + s_im * s_im) // g),
                                    _combined(c_re, f_re, c_im, -f_im),
                                    _combined(c_re, f_im, c_im, f_re))

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        terms = [{"blade": list(blade_indices(m)), "re": str(v.re), "im": str(v.im)}
                 for m, v in sorted(self.terms().items())]
        return {"dim": self.form.dim, "signs": list(self.form.signs), "terms": terms}

    @classmethod
    def from_json(cls, data: dict) -> "Multivector":
        """The element :meth:`to_json` wrote.  ValueError names the field of
        ``data`` (parsed JSON, so exact types) that is missing or of the
        wrong type."""
        if type(data) is not dict:
            raise ValueError("multivector JSON must be an object")
        if type(data.get("dim")) is not int:
            raise ValueError("multivector JSON field 'dim' must be an integer")
        if type(data.get("signs")) is not list:
            raise ValueError("multivector JSON field 'signs' must be a list")
        if type(data.get("terms")) is not list or not all(
                type(t) is dict and type(t.get("blade")) is list and "re" in t
                and all(type(i) is int for i in t["blade"]) for t in data["terms"]):
            raise ValueError("multivector JSON field 'terms' must be a list of objects, "
                             "each with a 'blade' list of integers and an 're'")
        form = QuadraticForm(data["dim"], tuple(data["signs"]))
        terms = {}
        for t in data["terms"]:
            mask = blade_from_indices(t["blade"])
            terms[mask] = GaussianRational.parse(str(t["re"]), str(t.get("im", "0")))
        return cls(form, terms)

    def __repr__(self):
        terms = self.terms()
        if not terms:
            return "0"
        parts = []
        for m in sorted(terms, key=lambda m: (blade_grade(m), m)):
            v = terms[m]
            parts.append(f"({v})*{blade_name(m)}" if m else f"({v})")
        return " + ".join(parts)


def _nonzero(part: Dict[int, int]) -> Dict[int, int]:
    return {m: v for m, v in part.items() if v}


def _combined(a: Dict[int, int], fa: int, b: Dict[int, int], fb: int) -> Dict[int, int]:
    """The integer blade map fa * a + fb * b, zero entries left out."""
    acc = {m: v * fa for m, v in a.items()}
    for m, v in b.items():
        acc[m] = acc.get(m, 0) + v * fb
    return _nonzero(acc)


def _reversed(part: Dict[int, int], alpha: bool = False) -> Dict[int, int]:
    """rev (rev . alpha when ``alpha``) of a blade map: a blade of grade k
    changes sign when k(k-1)/2 (k(k+1)/2) is odd, that is when bit 1 of k
    (of k + 1) is set."""
    shift = 1 if alpha else 0
    return {m: -c if (m.bit_count() + shift) & 2 else c for m, c in part.items()}


def _right(b: Dict[int, int], positive_mask: int, sign: int = 1) -> List[Tuple[int, int, int]]:
    """The right factor ``sign * b`` of :func:`_product`: each term of the
    integer blade map ``b`` as (blade, its sign mask, value)."""
    return [(mb, _sign_mask(mb, positive_mask), sign * vb) for mb, vb in b.items()]


def _product(a: Dict[int, int], right: List[Tuple[int, int, int]], acc: Dict[int, int]) -> None:
    """Add ``a * b`` for multivectors given as integer blade maps into
    ``acc`` (cancelled coefficients stay as zeros), with ``right`` =
    ``_right(b, positive_mask)``."""
    for ma, va in a.items():
        for mb, mask, vb in right:
            m = ma ^ mb
            t = va * vb
            acc[m] = acc.get(m, 0) + (-t if (ma & mask).bit_count() & 1 else t)


def _gaussian_product(a, b, positive_mask: int) -> Tuple[Dict[int, int], Dict[int, int]]:
    """(a_re + i a_im)(b_re + i b_im) for integer blade maps given as
    ``(re, im)`` pairs: four real products, zero entries left out."""
    (a_re, a_im), (b_re, b_im) = a, b
    re: Dict[int, int] = {}
    im: Dict[int, int] = {}
    right_re = _right(b_re, positive_mask)
    _product(a_re, right_re, re)
    if a_im or b_im:
        _product(a_im, _right(b_im, positive_mask, -1), re)
        _product(a_re, _right(b_im, positive_mask), im)
        _product(a_im, right_re, im)
    return _nonzero(re), _nonzero(im)


# ---------------------------------------------------------------------------
# the even-subalgebra embedding Cl_{n-1} -> Cl^0_n
# ---------------------------------------------------------------------------

def embed_lower(x: Multivector, target: QuadraticForm) -> Multivector:
    """Algebra map Cl(n-1) -> Cl^0(n) on generators ``e_i -> e_i e_n``.

    The source form must satisfy ``signs_src[i] == signs_tgt[i] * signs_tgt[n-1]``
    so that the generator relations are preserved.

    Each blade maps in closed form.  For A = {i_1 < ... < i_k}, the image
    (e_{i_1} e_n) ... (e_{i_k} e_n) becomes e_{i_1} ... e_{i_k} e_n^k once
    every e_n is moved to the right: the e_n of factor j anticommutes past
    the k - j generators e_{i_{j+1}}, ..., e_{i_k}, which gives
    (-1)^(k(k-1)/2).  With
    e_n^2 = -s_n (s_n = ``target.signs[-1]``),
    e_n^k = (-s_n)^floor(k/2) e_n^(k mod 2), and since n is the top index
    e_A e_n is the canonical blade A | bit_(n-1).  So

        c e_A -> (-1)^(k(k-1)/2) (-s_n)^floor(k/2) c e_{A'} = s_n^floor(k/2) c e_{A'},

    with A' = A | bit_(n-1) for odd k and A' = A for even k; the two signs
    combine because k(k-1)/2 and floor(k/2) are both odd exactly when
    k = 2, 3 mod 4.  The map is injective on blades, so each term gives one
    term.
    """
    src = x.form
    if target.dim != src.dim + 1:
        raise ValueError("target dimension must be source dimension + 1")
    last = target.signs[-1]
    for i in range(src.dim):
        if src.signs[i] != target.signs[i] * last:
            raise ValueError("incompatible signs between source and target forms")
    top = 1 << src.dim
    flip = 2 if last < 0 else 0     # s_n = -1 negates the grades k = 2, 3 mod 4
    return x._map_parts(lambda part: {m | top if m.bit_count() & 1 else m:
                                      -v if m.bit_count() & flip else v
                                      for m, v in part.items()}, target)


# ---------------------------------------------------------------------------
# algebra classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlgebraType:
    """Matrix-algebra type: one or two factors M(size, D) with D in {R, C, H}."""

    factors: Tuple[Tuple[str, int], ...]

    def __post_init__(self):
        if not 1 <= len(self.factors) <= 2:
            raise ValueError("one or two factors expected")
        for tag, size in self.factors:
            if tag not in ("R", "C", "H") or size < 1:
                raise ValueError(f"bad factor ({tag}, {size})")

    def real_dimension(self) -> int:
        per = {"R": 1, "C": 2, "H": 4}
        return sum(per[tag] * size * size for tag, size in self.factors)

    def to_json(self) -> dict:
        return {"factors": [[tag, size] for tag, size in self.factors]}

    def __str__(self):
        return " + ".join(f"M({size},{tag})" for tag, size in self.factors)


def classify_real(plus: int, minus: int) -> AlgebraType:
    """Type of the real Clifford algebra with ``plus`` generators of square -1
    and ``minus`` of square +1, computed from structural invariants (center
    dimension, square of the central element, signature of the trace form)."""
    n = plus + minus
    if n > 12:
        raise ValueError("real classification capped at 12 generators")
    form = QuadraticForm.of_signature(plus, minus)
    pos = form.positive_mask

    center = _center_blades(n)
    # trace form B(x, y) = scalar part of x*y is diagonal on blades; its
    # signature separates R / C / H blocks.
    signature = 0
    for mask in range(1 << n):
        signature += blade_sign(mask, mask, pos)

    if len(center) == 1:
        if signature > 0:
            k = signature
            algebra = AlgebraType((("R", k),))
        elif signature < 0:
            k = -signature // 2
            algebra = AlgebraType((("H", k),))
        else:
            raise ArithmeticError("central simple algebra with zero signature")
    else:
        vol = center[1]
        vol_sq = blade_sign(vol, vol, pos)
        if vol_sq == -1:
            k = 1 << ((n - 1) // 2)
            algebra = AlgebraType((("C", k),))
            if signature != 0:
                raise ArithmeticError("complex-center algebra must have zero signature")
        else:
            if signature > 0:
                k = signature // 2
                algebra = AlgebraType((("R", k), ("R", k)))
            elif signature < 0:
                k = -signature // 4
                algebra = AlgebraType((("H", k), ("H", k)))
            else:
                raise ArithmeticError("split-center algebra must have nonzero signature")
    if algebra.real_dimension() != 1 << n:
        raise ArithmeticError(f"classification inconsistent for ({plus},{minus})")
    return algebra


def _center_blades(n: int) -> List[int]:
    """Blades commuting with every generator (exact computation)."""
    out = []
    for mask in range(1 << n):
        k = blade_grade(mask)
        central = True
        for i in range(n):
            inside = mask >> i & 1
            if (k - inside) & 1:
                central = False
                break
        if central:
            out.append(mask)
    return out


def classify_complex(n: int, verify: bool = True) -> AlgebraType:
    """Type of the complex Clifford algebra of dimension n.

    With ``verify=True`` the answer is certified by building the explicit
    spinor representation and checking that the images of all 2^n basis
    blades are linearly independent (pairwise Hilbert-Schmidt orthogonal with
    nonzero norm), which pins down surjectivity by dimension count.
    """
    if n < 0:
        raise ValueError("dimension must be >= 0")
    if n % 2 == 0:
        algebra = AlgebraType((("C", 1 << (n // 2)),))
    else:
        half = 1 << ((n - 1) // 2)
        algebra = AlgebraType((("C", half), ("C", half)))
    if verify and n > 0:
        from . import spinors
        if n > 12:
            raise ValueError("verified classification capped at dimension 12")
        if n % 2 == 0:
            gammas = spinors.gamma_matrices(n)
            reps = [gammas]
        else:
            plus, minus = spinors.odd_irreps(n)
            reps = [plus.generators, minus.generators]
        for mask in range(1, 1 << n):
            tr = 0.0 + 0.0j
            for gens in reps:
                tr += _blade_image_trace(mask, gens)
            if tr != 0:
                raise ArithmeticError(
                    f"blade {blade_name(mask)} image has nonzero trace {tr}; "
                    "representation not an isomorphism")
    return algebra


def _blade_image_trace(mask: int, gens) -> complex:
    img = None
    for i in range(mask.bit_length()):
        if mask >> i & 1:
            img = gens[i].copy() if img is None else img @ gens[i]
    return complex(img.trace())
