"""Explicit matrix representations of complex Clifford algebras.

Generators are built by the recursive tensor construction, so every entry is
one of 0, +-1, +-i and all products of generator matrices stay exact in
complex float arithmetic (Gaussian integers of modulus <= 1 per entry).
Generator convention matches the exact core: gamma_i**2 = -I.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

MAX_CLIFFORD_DIM = 12

UNIQUE_EVEN = "unique-even"
PLUS_ODD = "plus-odd"
MINUS_ODD = "minus-odd"

_S1 = np.array([[0, 1], [1, 0]], dtype=complex)
_S2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_S3 = np.array([[1, 0], [0, -1]], dtype=complex)
_I_SIGMA = np.array([1j * _S1, 1j * _S2])


class ModuleError(ValueError):
    pass


@dataclass(frozen=True)
class CliffordModule:
    """A complex Clifford module given by generator actions.

    ``grading`` is the decomposition operator (square = identity, generators
    odd); ``None`` marks an ungraded module.  ``explicit_dim`` carries the
    dimension of generator-less (dimension-0 algebra) modules.
    """

    clifford_dim: int
    generators: Tuple[np.ndarray, ...]
    grading: Optional[np.ndarray] = None
    explicit_dim: Optional[int] = None

    @property
    def dim(self) -> int:
        if self.generators:
            return self.generators[0].shape[0]
        if self.grading is not None:
            return self.grading.shape[0]
        if self.explicit_dim is not None:
            return self.explicit_dim
        return 0

    @property
    def is_graded(self) -> bool:
        return self.grading is not None

    def validate(self, tol: float = 0.0) -> None:
        """Check generator relations (and grading oddness when present).

        Every generator's shape is checked first.  The relations
        g_i g_j + g_j g_i = -2 delta_ij are then checked one row i at a time,
        as one stacked product of g_i with the generators j >= i (the
        anticommutator is symmetric, so the first violating pair in row-major
        order has j >= i); the grading's oddness is one stacked product with
        all generators.  With ``tol == 0`` the relations must hold exactly,
        otherwise every entry within ``tol``; a NaN entry never passes.  The
        first violation raises :class:`ModuleError`.
        """
        k, d = self.clifford_dim, self.dim
        if len(self.generators) != k:
            raise ModuleError(f"expected {k} generators, found {len(self.generators)}")
        if any(g.shape != (d, d) for g in self.generators):
            raise ModuleError("generator shape mismatch")
        gens = np.array(self.generators).reshape(k, d, d)
        two_eye = 2 * np.eye(d, dtype=gens.dtype)
        for i in range(k):
            anti = gens[i] @ gens[i:] + gens[i:] @ gens[i]
            anti[0] += two_eye      # the target is -2 I at j == i, 0 elsewhere
            bad = _violations(anti, tol)
            if bad.size:
                raise ModuleError(f"relation violated for generators {i + 1},{i + bad[0] + 1}")
        if self.grading is not None:
            eps = self.grading
            if not _close(eps @ eps, np.eye(d), tol):
                raise ModuleError("grading does not square to the identity")
            bad = _violations(eps @ gens + gens @ eps, tol)
            if bad.size:
                raise ModuleError(f"generator {bad[0] + 1} is not odd for the grading")

    def to_json(self) -> dict:
        out = {"clifford_dim": self.clifford_dim,
               "generators": [_matrix_strings(g) for g in self.generators]}
        if self.grading is not None:
            out["grading"] = _matrix_strings(self.grading)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "CliffordModule":
        gens = tuple(_matrix_from_strings(g) for g in data["generators"])
        grading = (_matrix_from_strings(data["grading"])
                   if "grading" in data else None)
        return cls(data["clifford_dim"], gens, grading)


def _close(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    if tol == 0.0:
        return np.array_equal(a, b)
    return bool(np.max(np.abs(a - b)) <= tol) if a.size else True


def _violations(stack: np.ndarray, tol: float) -> np.ndarray:
    """Indices of the matrices in the stack with an entry of modulus above
    ``tol`` (nonzero for ``tol == 0``), NaN counting as above."""
    return np.flatnonzero(~(np.abs(stack) <= tol).all(axis=(1, 2)))


def _matrix_strings(m: np.ndarray) -> List[List[str]]:
    out = []
    for row in m:
        srow = []
        for z in row:
            re, im = int(round(z.real)), int(round(z.imag))
            if abs(z.real - re) > 1e-12 or abs(z.imag - im) > 1e-12:
                raise ValueError("matrix entry is not a Gaussian integer")
            srow.append(f"{re}{im:+d}i")
        out.append(srow)
    return out


def _matrix_from_strings(rows: List[List[str]]) -> np.ndarray:
    def parse(s: str) -> complex:
        body, _, _ = s.rpartition("i")
        for cut in range(len(body) - 1, 0, -1):
            if body[cut] in "+-" and body[cut - 1] not in "+-":
                return complex(int(body[:cut]), int(body[cut:]))
        raise ValueError(f"bad entry {s!r}")
    return np.array([[parse(s) for s in row] for row in rows], dtype=complex)


# ---------------------------------------------------------------------------
# gamma construction
# ---------------------------------------------------------------------------

def gamma_matrices(k: int) -> List[np.ndarray]:
    """Generators of the irreducible module of the even-dimensional algebra.

    Recursive: dimension 2 uses i*sigma_1, i*sigma_2; each further pair
    tensors the previous generators with sigma_3 and appends 1 (x) i*sigma_1,
    1 (x) i*sigma_2.
    """
    if k < 2 or k % 2:
        raise ValueError("gamma_matrices needs an even dimension >= 2")
    if k > MAX_CLIFFORD_DIM:
        raise ValueError(f"dimension capped at {MAX_CLIFFORD_DIM}")
    gens = _I_SIGMA.copy()
    while len(gens) < k:
        m, d = len(gens), gens.shape[1]
        out = np.empty((m + 2, 2 * d, 2 * d), dtype=complex)
        # np.kron(a, b)[2 r + s, 2 c + t] = a[r, c] * b[s, t], for all of
        # the stack at once: g (x) sigma_3, then 1 (x) i sigma_1, 2
        np.multiply(gens[:, :, None, :, None], _S3[:, None, :],
                    out=out[:m].reshape(m, d, 2, d, 2))
        np.multiply(np.eye(d)[:, None, :, None], _I_SIGMA[:, None, :, None, :],
                    out=out[m:].reshape(2, d, 2, d, 2))
        gens = out
    return list(gens)


def chirality_operator(module_or_gens) -> np.ndarray:
    """Normalized volume element i^n * gamma_1 ... gamma_2n (squares to +I)."""
    gens = (module_or_gens.generators if isinstance(module_or_gens, CliffordModule)
            else list(module_or_gens))
    k = len(gens)
    if k % 2:
        raise ValueError("chirality operator needs an even generator count")
    omega = np.eye(gens[0].shape[0], dtype=complex) * (1j ** (k // 2))
    for g in gens:
        omega = omega @ g
    return omega


def volume_image(module: CliffordModule) -> np.ndarray:
    """Image of e_1 ... e_k under the module action."""
    img = np.eye(module.dim, dtype=complex)
    for g in module.generators:
        img = img @ g
    return img


def blade_traces(gens: Sequence[np.ndarray]) -> np.ndarray:
    """Traces of the images of all 2^n basis blades, indexed by blade mask.

    A blade's image is the product of its generators in increasing index
    order, so img(A | B) = img(A) img(B) when every index of A lies below
    every index of B.  The images of the subsets of the low floor(n/2)
    generators and of the high ceil(n/2) ones are built as two stacks, each
    level one batched product, and tr(L_A H_B) = sum_ij L_A[i, j] H_B[j, i]
    gives all 2^n traces from one product of the two flattened stacks.  For
    generators with Gaussian-integer entries (``gamma_matrices`` and
    ``odd_irreps``: one unit entry per row) every image and every trace is
    exact.
    """
    low, d = len(gens) // 2, gens[0].shape[0]
    lo, hi = _subset_images(gens[:low], d), _subset_images(gens[low:], d)
    traces = lo.reshape(len(lo), -1) @ hi.transpose(0, 2, 1).reshape(len(hi), -1).T
    # mask A | B << low sits at row A, column B
    return traces.T.reshape(-1)


def _subset_images(gens: Sequence[np.ndarray], d: int) -> np.ndarray:
    """The (2^m, d, d) stack of the products, in increasing index order, of
    every subset of the m generators, indexed by subset mask."""
    stack = np.eye(d, dtype=complex)[None]
    for g in gens:
        stack = np.concatenate([stack, stack @ g])
    return stack


def spinor_module(k: int) -> CliffordModule:
    """The canonical graded module of dimension 2^ceil(k/2).

    Even k: the unique irreducible module with the chirality grading.
    Odd k: the unique irreducible *graded* module (the even-dimension module
    one step up, with its last generator dropped).
    """
    if k < 0:
        raise ValueError("dimension must be >= 0")
    if k == 0:
        return CliffordModule(0, (), np.array([[1.0 + 0j]]))
    if k % 2 == 0:
        gens = gamma_matrices(k)
        return CliffordModule(k, tuple(gens), chirality_operator(gens))
    gens = gamma_matrices(k + 1)
    return CliffordModule(k, tuple(gens[:k]), chirality_operator(gens))


def odd_irreps(k: int) -> Tuple[CliffordModule, CliffordModule]:
    """The two ungraded irreducibles of an odd-dimensional algebra.

    Returned as (plus, minus) where "plus" is the one whose represented
    volume element e_1...e_k equals +i^ceil(k/2) times the identity.
    """
    if k % 2 == 0 or k < 1:
        raise ValueError("odd_irreps needs an odd dimension")
    if k > MAX_CLIFFORD_DIM:
        raise ValueError(f"dimension capped at {MAX_CLIFFORD_DIM}")
    if k == 1:
        base: List[np.ndarray] = []
        omega = np.array([[1.0 + 0j]])
    else:
        base = gamma_matrices(k - 1)
        omega = chirality_operator(base)
    modules = []
    for sign in (1, -1):
        gens = tuple(base + [sign * 1j * omega])
        modules.append(CliffordModule(k, gens, None))
    plus = next(m for m in modules if _volume_label(m) == 1)
    minus = next(m for m in modules if _volume_label(m) == -1)
    return plus, minus


def _volume_label(module: CliffordModule) -> int:
    """+1/-1 according to volume image = +-i^ceil(k/2) * I (odd dim only)."""
    k = module.clifford_dim
    img = volume_image(module) / (1j ** ((k + 1) // 2))
    d = module.dim
    for s in (1, -1):
        if np.allclose(img, s * np.eye(d), atol=1e-9):
            return s
    raise ModuleError("volume element does not act as a normalized scalar")


# ---------------------------------------------------------------------------
# module operations
# ---------------------------------------------------------------------------

def clifford_action(v: Sequence[complex], module: CliffordModule,
                    s: np.ndarray) -> np.ndarray:
    """Apply cl(v) = sum_i v_i gamma_i to a spinor."""
    if len(v) != module.clifford_dim:
        raise ValueError("vector length must match the Clifford dimension")
    s = np.asarray(s, dtype=complex)
    if s.shape[0] != module.dim:
        raise ValueError("spinor dimension mismatch")
    out = np.zeros_like(s)
    for vi, g in zip(v, module.generators):
        if vi:
            out = out + vi * (g @ s)
    return out


def restrict_module(module: CliffordModule) -> CliffordModule:
    """Forget the last generator: a module one Clifford dimension down."""
    if module.clifford_dim == 0:
        raise ValueError("cannot restrict below dimension 0")
    return CliffordModule(module.clifford_dim - 1,
                          module.generators[:-1], module.grading)


def flip_grading(module: CliffordModule) -> CliffordModule:
    if module.grading is None:
        raise ValueError("module is not graded")
    return CliffordModule(module.clifford_dim, module.generators, -module.grading)


def direct_sum(a: CliffordModule, b: CliffordModule) -> CliffordModule:
    if a.clifford_dim != b.clifford_dim:
        raise ValueError("modules over different algebras")
    if (a.grading is None) != (b.grading is None):
        raise ValueError("cannot sum a graded and an ungraded module")
    gens = tuple(_block_diag(x, y) for x, y in zip(a.generators, b.generators))
    grading = (_block_diag(a.grading, b.grading)
               if a.grading is not None else None)
    return CliffordModule(a.clifford_dim, gens, grading)


def _block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n, m = a.shape[0], b.shape[0]
    out = np.zeros((n + m, n + m), dtype=complex)
    out[:n, :n] = a
    out[n:, n:] = b
    return out


# ---------------------------------------------------------------------------
# decomposition into irreducibles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModuleDecomposition:
    """Multiplicities of irreducibles, keyed by their label."""

    clifford_dim: int
    graded: bool
    multiplicities: Dict[str, int]

    def multiplicity(self, label: str) -> int:
        return self.multiplicities.get(label, 0)

    def __eq__(self, other):
        if not isinstance(other, ModuleDecomposition):
            return NotImplemented
        return (self.clifford_dim == other.clifford_dim
                and self.graded == other.graded
                and {k: v for k, v in self.multiplicities.items() if v}
                == {k: v for k, v in other.multiplicities.items() if v})


def decompose_module(module: CliffordModule, graded: Optional[bool] = None,
                     tol: float = 1e-9) -> ModuleDecomposition:
    """Decompose into irreducibles using dimension counts and the trace of
    the normalized central volume element.

    Ungraded modules over an odd algebra split between ``plus-odd`` and
    ``minus-odd`` (labels fixed by volume image = +-i^ceil(k/2) I); even
    algebras have the single label ``unique-even``.  Graded modules are
    reported through the equivalence with ungraded modules one dimension
    down, e.g. a graded module over dimension 2 decomposes into ``plus-odd``
    and ``minus-odd`` pieces of dimension-1 algebra modules.  For graded
    dimension-0 modules, ``plus-odd``/``minus-odd`` name the two grading
    lines.
    """
    if graded is None:
        graded = module.is_graded
    if graded and not module.is_graded:
        raise ValueError("graded decomposition of an ungraded module")
    module.validate(tol=tol if _is_float_module(module) else 0.0)

    if graded:
        return _decompose_graded(module, tol)
    return _decompose_ungraded(module.clifford_dim, list(module.generators),
                               module.dim, tol, graded=False)


def _is_float_module(module: CliffordModule) -> bool:
    """Whether some generator or grading entry is not a Gaussian integer."""
    mats = list(module.generators)
    if module.grading is not None:
        mats.append(module.grading)
    if not mats:
        return False
    # raveled, so a module whose shapes do not match reaches validate()
    flat = np.concatenate([np.ravel(m) for m in mats])
    return not np.allclose(flat, np.round(flat.real) + 1j * np.round(flat.imag), atol=1e-12)


def _decompose_ungraded(k: int, gens: List[np.ndarray], dim: int, tol: float,
                        graded: bool) -> ModuleDecomposition:
    if k == 0:
        return ModuleDecomposition(0, graded, {UNIQUE_EVEN: dim})
    if k % 2 == 0:
        irrep_dim = 1 << (k // 2)
        if dim % irrep_dim:
            raise ModuleError("dimension not a multiple of the irreducible dimension")
        return ModuleDecomposition(k, graded, {UNIQUE_EVEN: dim // irrep_dim})
    irrep_dim = 1 << ((k - 1) // 2)
    img = np.eye(dim, dtype=complex)
    for g in gens:
        img = img @ g
    tr = np.trace(img / (1j ** ((k + 1) // 2)))
    if abs(tr.imag) > tol * max(dim, 1):
        raise ModuleError("volume trace is not real after normalization")
    diff = tr.real / irrep_dim
    total = dim // irrep_dim
    if dim % irrep_dim or abs(diff - round(diff)) > 1e-6:
        raise ModuleError("module does not split into the two odd irreducibles")
    diff = int(round(diff))
    if (total + diff) % 2:
        raise ModuleError("inconsistent multiplicities")
    m_plus = (total + diff) // 2
    m_minus = (total - diff) // 2
    if m_plus < 0 or m_minus < 0:
        raise ModuleError("negative multiplicity; relations must be violated")
    return ModuleDecomposition(k, graded, {PLUS_ODD: m_plus, MINUS_ODD: m_minus})


def _decompose_graded(module: CliffordModule, tol: float) -> ModuleDecomposition:
    k = module.clifford_dim
    if k == 0:
        n_plus = _grading_eigenbasis(module.grading, +1).shape[1]
        return ModuleDecomposition(0, True,
                                   {PLUS_ODD: n_plus, MINUS_ODD: module.dim - n_plus})
    under = graded_to_ungraded(module, tol=tol)
    dec = _decompose_ungraded(k - 1, list(under.generators), under.dim, tol,
                              graded=False)
    return ModuleDecomposition(k, True, dict(dec.multiplicities))


# ---------------------------------------------------------------------------
# graded <-> ungraded equivalence
# ---------------------------------------------------------------------------

def _grading_eigenbasis(grading: np.ndarray, sign: int) -> np.ndarray:
    """Basis of the +1 or -1 eigenspace of a (possibly non-normal) grading."""
    if grading.shape[0] == 0:
        return np.zeros((0, 0), dtype=complex)
    w, q = np.linalg.eig(grading)
    keep = np.abs(w - sign) < 0.5
    return q[:, keep]


def graded_to_ungraded(module: CliffordModule, tol: float = 1e-9) -> CliffordModule:
    """Even part of a graded module as an ungraded module one dimension down.

    The action on the grading's +1 eigenspace is pulled back along the
    generator map e_i -> e_i e_k of the even-subalgebra isomorphism.  Works
    for any invertible grading (eigenbasis plus pseudo-inverse pairing).
    """
    if module.grading is None:
        raise ValueError("module is not graded")
    k = module.clifford_dim
    if k == 0:
        raise ValueError("no lower algebra below dimension 0")
    basis = _grading_eigenbasis(module.grading, +1)
    dual = np.linalg.pinv(basis) if basis.size else basis.conj().T
    last = module.generators[-1]
    gens = []
    for g in module.generators[:-1]:
        act = dual @ (g @ (last @ basis))
        gens.append(act)
    return CliffordModule(k - 1, tuple(gens), None, explicit_dim=basis.shape[1])


def ungraded_to_graded(module: CliffordModule) -> CliffordModule:
    """Induce a graded module one dimension up: M |-> M (x)_{Cl^0} Cl.

    Underlying space M + M with grading (+1, -1); the new last generator acts
    by [[0, -I], [I, 0]] and the old generators by [[0, a_i], [a_i, 0]].
    """
    if module.grading is not None:
        raise ValueError("expected an ungraded module")
    k, d = module.clifford_dim, module.dim
    eye = np.eye(d)
    zero = np.zeros((d, d))
    gens = []
    for a in module.generators:
        gens.append(np.block([[zero, a], [a, zero]]))
    gens.append(np.block([[zero, -eye], [eye, zero]]).astype(complex))
    grading = np.block([[eye, zero], [zero, -eye]]).astype(complex)
    return CliffordModule(k + 1, tuple(g.astype(complex) for g in gens), grading)
