"""Exact arithmetic in real and complex Clifford algebras.

Elements are stored blade-wise: a blade is a bitmask over the basis vectors
(bit ``i`` set means ``e_{i+1}`` occurs), which keeps every basis monomial in
the canonical increasing-index form.  Coefficients are exact Gaussian
rationals (see :mod:`spindex.exactnum`); an exact product clears each
operand's denominators once, multiplies Gaussian-integer numerators and
divides once per result coefficient.  Float/complex coefficients are also
accepted for angle-parametrized constructions, in which case arithmetic is
plain IEEE.

Sign convention: generators square to minus their quadratic-form value,
``v * v == -q(v)``, so the Euclidean (all ``+1``) form has ``e_i**2 == -1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .exactnum import GaussianRational, realify, solve

MAX_DIM = 16

Coefficient = Union[GaussianRational, complex, float, int, Fraction]


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

    Values behave immutably: all operations return fresh instances and the
    term map is never mutated after construction, so instances are safe to
    share across threads.
    """

    __slots__ = ("form", "_terms")

    def __init__(self, form: QuadraticForm, terms: Dict[int, Coefficient]):
        self.form = form
        limit = 1 << form.dim
        clean: Dict[int, Coefficient] = {}
        for mask, value in terms.items():
            if mask >= limit or mask < 0:
                raise ValueError("blade outside algebra dimension")
            if isinstance(value, (int, Fraction)):
                value = GaussianRational(value)
            if value:
                clean[mask] = value
        self._terms = clean

    @classmethod
    def _trusted(cls, form: QuadraticForm, terms: Dict[int, Coefficient]) -> "Multivector":
        """Wrap terms already known to be in range and nonzero, with each
        coefficient a GaussianRational, float or complex (as the constructor
        leaves them)."""
        out = object.__new__(cls)
        out.form = form
        out._terms = terms
        return out

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

    def terms(self) -> Dict[int, Coefficient]:
        return dict(self._terms)

    def coefficient(self, mask_or_indices) -> Coefficient:
        mask = (mask_or_indices if isinstance(mask_or_indices, int)
                else blade_from_indices(mask_or_indices))
        return self._terms.get(mask, GaussianRational(0))

    def scalar_part(self) -> Coefficient:
        return self._terms.get(0, GaussianRational(0))

    def grade_part(self, k: int) -> "Multivector":
        return Multivector(self.form, {m: v for m, v in self._terms.items()
                                       if blade_grade(m) == k})

    def is_zero(self) -> bool:
        return not self._terms

    def is_scalar(self) -> bool:
        return all(m == 0 for m in self._terms)

    def is_vector(self) -> bool:
        return all(blade_grade(m) == 1 for m in self._terms)

    def vector_coords(self) -> List[Coefficient]:
        if not self.is_vector():
            raise ValueError("not a pure 1-vector")
        return [self._terms.get(1 << i, GaussianRational(0)) for i in range(self.form.dim)]

    # -- ring structure ------------------------------------------------------

    def _check_form(self, other: "Multivector"):
        if self.form != other.form:
            raise FormMismatchError("multivectors live in different Clifford algebras")

    def __add__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_form(other)
        acc = dict(self._terms)
        for m, v in other._terms.items():
            acc[m] = acc[m] + v if m in acc else v
        return Multivector(self.form, acc)

    def __sub__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_form(other)
        acc = dict(self._terms)
        for m, v in other._terms.items():
            acc[m] = acc[m] - v if m in acc else -v
        return Multivector(self.form, acc)

    def __neg__(self):
        return Multivector(self.form, {m: -v for m, v in self._terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Multivector):
            return self._scale(other)
        self._check_form(other)
        pos = self.form.positive_mask
        left, right = _numerators(self._terms), _numerators(other._terms)
        if left is None or right is None:
            # inexact coefficients: plain float arithmetic term by term
            acc: Dict[int, Coefficient] = {}
            _product(self._terms, other._terms, pos, acc)
            return Multivector(self.form, acc)
        # (a_re + i a_im)(b_re + i b_im) over the denominator da * db
        da, a_re, a_im = left
        db, b_re, b_im = right
        re: Dict[int, int] = {}
        im: Dict[int, int] = {}
        _product(a_re, b_re, pos, re)
        if a_im or b_im:
            _product(a_im, b_im, pos, re, -1)
            _product(a_re, b_im, pos, im)
            _product(a_im, b_re, pos, im)
        den = da * db
        out = {}
        for m in (re.keys() | im.keys()) if im else re:
            r, i = re.get(m, 0), im.get(m, 0)
            if r or i:
                out[m] = GaussianRational.over(r, i, den)
        return Multivector._trusted(self.form, out)

    def __rmul__(self, other):
        # scalars commute with everything we ever scale by
        return self._scale(other)

    def _scale(self, c):
        if isinstance(c, (int, Fraction)):
            c = GaussianRational(c)
        elif not isinstance(c, (GaussianRational, float, complex)):
            return NotImplemented
        return Multivector(self.form, {m: c * v for m, v in self._terms.items()})

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.form == other.form and self._terms == other._terms

    def isclose(self, other: "Multivector", tol: float = 1e-12) -> bool:
        """Termwise comparison with tolerance (for float-coefficient paths)."""
        if self.form != other.form:
            return False
        masks = set(self._terms) | set(other._terms)
        for m in masks:
            a = self._terms.get(m, GaussianRational(0))
            b = other._terms.get(m, GaussianRational(0))
            av, bv = _to_complex(a), _to_complex(b)
            if abs(av - bv) > tol:
                return False
        return True

    def __hash__(self):
        return hash((self.form, frozenset(
            (m, v if isinstance(v, GaussianRational) else complex(v))
            for m, v in self._terms.items())))

    # -- involutions -----------------------------------------------------------

    def grade_involution(self) -> "Multivector":
        """alpha: negate odd-grade components (v -> -v on vectors)."""
        return Multivector(self.form, {
            m: (-v if blade_grade(m) & 1 else v) for m, v in self._terms.items()})

    def reversal(self) -> "Multivector":
        """Anti-automorphism e_{i1}...e_{ik} -> e_{ik}...e_{i1}."""
        out = {}
        for m, v in self._terms.items():
            k = blade_grade(m)
            out[m] = -v if (k * (k - 1) // 2) & 1 else v
        return Multivector(self.form, out)

    def grade_decompose(self) -> Tuple["Multivector", "Multivector"]:
        """Split into the +1 / -1 eigenspaces of the grade involution."""
        even = {m: v for m, v in self._terms.items() if not blade_grade(m) & 1}
        odd = {m: v for m, v in self._terms.items() if blade_grade(m) & 1}
        return Multivector(self.form, even), Multivector(self.form, odd)

    # -- inversion ----------------------------------------------------------

    def inverse(self) -> "Multivector":
        """Multiplicative inverse.

        Tries the Clifford-group shortcut rev(alpha(x)) / N(x) first and falls
        back to solving the left-multiplication linear system exactly.  For
        float coefficients the shortcut also takes an N(x) whose non-scalar
        part is rounding residue, within 1e-12 of its scalar part.
        """
        candidate = self.reversal().grade_involution()
        norm = candidate * self
        # a left inverse in a finite-dimensional algebra is two-sided, so a
        # scalar nonzero norm already certifies the shortcut
        if norm.is_scalar() and not norm.is_zero():
            return candidate * _coeff_reciprocal(norm.scalar_part())
        if any(type(v) is not GaussianRational for v in norm._terms.values()):
            scalar = _to_complex(norm.scalar_part())
            residue = max(abs(_to_complex(v)) for m, v in norm._terms.items() if m)
            if residue <= 1e-12 * abs(scalar):
                return candidate * (1.0 / scalar)
        return self._inverse_by_solving()

    def _inverse_by_solving(self) -> "Multivector":
        n = self.form.dim
        size = 1 << n
        cleared = _numerators(self._terms)
        if cleared is None:
            import numpy as np
            mat = np.zeros((size, size), dtype=complex)
            for col in range(size):
                prod = self * Multivector(self.form, {col: 1.0 + 0.0j})
                for m, v in prod._terms.items():
                    mat[m, col] = complex(v)
            rhs = np.zeros(size, dtype=complex)
            rhs[0] = 1.0
            try:
                sol = np.linalg.solve(mat, rhs)
            except np.linalg.LinAlgError:
                raise ZeroDivisionError("multivector is not invertible")
            return Multivector(self.form, {m: sol[m] for m in range(size)})
        # left multiplication by self = (re + i*im) / den; column col of
        # each integer part is that part times e_col
        den, re, im = cleared
        parts = []
        for part in (re, im):
            mat = [[0] * size for _ in range(size)]
            for col in range(size):
                column: Dict[int, int] = {}
                _product(part, {col: 1}, self.form.positive_mask, column)
                for m, v in column.items():
                    mat[m][col] = v
            parts.append(mat)
        mat = realify(*parts) if im else parts[0]
        y, d = solve(mat, [den] + [0] * (len(mat) - 1))
        im_y = y[size:] if im else [0] * size
        return Multivector(self.form, {m: GaussianRational.over(y[m], im_y[m], d)
                                       for m in range(size)})

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        terms = []
        for m in sorted(self._terms):
            v = self._terms[m]
            if not isinstance(v, GaussianRational):
                v = GaussianRational(Fraction(complex(v).real), Fraction(complex(v).imag))
            terms.append({"blade": list(blade_indices(m)),
                          "re": str(v.re), "im": str(v.im)})
        return {"dim": self.form.dim, "signs": list(self.form.signs), "terms": terms}

    @classmethod
    def from_json(cls, data: dict) -> "Multivector":
        form = QuadraticForm(data["dim"], tuple(data["signs"]))
        terms = {}
        for t in data["terms"]:
            mask = blade_from_indices(t["blade"])
            terms[mask] = GaussianRational.parse(str(t["re"]), str(t.get("im", "0")))
        return cls(form, terms)

    def __repr__(self):
        if not self._terms:
            return "0"
        parts = []
        for m in sorted(self._terms, key=lambda m: (blade_grade(m), m)):
            v = self._terms[m]
            parts.append(f"({v})*{blade_name(m)}" if m else f"({v})")
        return " + ".join(parts)


def _to_complex(c) -> complex:
    return c.to_complex() if isinstance(c, GaussianRational) else complex(c)


def _coeff_reciprocal(c):
    if isinstance(c, GaussianRational):
        return GaussianRational(1) / c
    return 1.0 / c


def _numerators(terms: Dict[int, Coefficient]
                ) -> Optional[Tuple[int, Dict[int, int], Dict[int, int]]]:
    """Clear denominators once: ``(den, re, im)`` with integer maps such that
    each coefficient is ``(re[m] + i*im[m]) / den``, zero parts omitted; None
    when some coefficient is inexact."""
    den = 1
    for v in terms.values():
        if type(v) is not GaussianRational:
            return None
        if type(v.re) is not int:
            den = lcm(den, v.re.denominator)
        if type(v.im) is not int:
            den = lcm(den, v.im.denominator)
    re: Dict[int, int] = {}
    im: Dict[int, int] = {}
    for m, v in terms.items():
        if v.re:
            re[m] = v.re.numerator * (den // v.re.denominator)
        if v.im:
            im[m] = v.im.numerator * (den // v.im.denominator)
    return den, re, im


def _product(a: Dict[int, Coefficient], b: Dict[int, Coefficient],
             positive_mask: int, acc: Dict[int, Coefficient], sign: int = 1) -> None:
    """Add ``sign * a * b`` for multivectors given as blade -> coefficient
    dicts into ``acc`` (cancelled coefficients stay as zeros)."""
    right = [(mb, _sign_mask(mb, positive_mask), sign * vb) for mb, vb in b.items()]
    for ma, va in a.items():
        for mb, mask, vb in right:
            m = ma ^ mb
            t = va * vb
            acc[m] = acc.get(m, 0) + (-t if (ma & mask).bit_count() & 1 else t)


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
    out = {}
    for mask, v in x._terms.items():
        k = mask.bit_count()
        out[mask | top if k & 1 else mask] = -v if last < 0 and k & 2 else v
    return Multivector._trusted(target, out)


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
    import numpy as np
    img = None
    for i in range(mask.bit_length()):
        if mask >> i & 1:
            img = gens[i].copy() if img is None else img @ gens[i]
    return complex(np.trace(img))
