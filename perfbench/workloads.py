"""The four benchmark workloads.

A workload turns a seed into a round of operations.  The make-up of a round
(the kinds of operation and their sizes) is fixed; the seed picks
coefficients, vectors, fluxes, phases and splits.  A run repeats the same
round, so every operation is timed several times and its best time is robust
to bursts of load from outside the process.  Each operation carries its own
known answer, computed by ``reference`` and never by spindex, and the check
runs outside the timed call.

``torus-index`` also has a battery: the ROADMAP item 1 inputs that the
accepted domain admits but on which the index pipeline returns a wrong index
without an error.  It runs once per run, is classified and counted like every
other operation, and is kept out of the latency and throughput figures so
that they do not depend on the number of rounds.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List

import numpy as np

import reference as ref
from spindex import clifford as cl
from spindex import spin_groups as sg
from spindex import spinors as sp
from spindex import symbols as sy
from spindex import torus_index as ti


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    known_defect: bool = False


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, stream: int) -> np.random.Generator:
        """Stream 0 feeds the warm-up, 1 the round, 2 the battery."""
        return np.random.default_rng([self.seed, stream])

    def round(self) -> List[Op]:
        raise NotImplementedError

    def battery(self) -> List[Op]:
        return []

    def warm_up(self) -> Op:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# exact-sparse
# ---------------------------------------------------------------------------

def _coefficient(rng) -> Fraction:
    return Fraction(int(rng.integers(1, 5)) * int(rng.choice((-1, 1))))


def _sparse(rng, n: int) -> ref.Terms:
    """Three terms (fewer when the algebra is smaller) on distinct blades."""
    masks = rng.choice(1 << n, size=min(3, 1 << n), replace=False)
    return {int(m): _coefficient(rng) for m in masks}


def _nonnull_vector(rng, signs) -> List[int]:
    """A vector with two nonzero coordinates (one in dimension 1) and
    q(v) != 0."""
    while True:
        coords = [0] * len(signs)
        for i in rng.choice(len(signs), size=min(len(signs), 2), replace=False):
            coords[int(i)] = int(_coefficient(rng))
        if ref.quadratic_value(coords, signs):
            return coords


def _equals(mv, terms: ref.Terms) -> bool:
    return ref.plain_terms(mv) == terms


class ExactSparse(Workload):
    """Short products of sparse integer multivectors in Cl(p, q), n = 1..8."""

    name = "exact-sparse"

    def round(self) -> List[Op]:
        rng = self.rng(1)
        ops = []
        for n in range(1, 9):
            for _ in range(8):
                form = cl.QuadraticForm(n, tuple(int(s) for s in rng.choice((-1, 1), size=n)))
                ops += [self._associativity(rng, form), self._associativity(rng, form),
                        self._relation(rng, form), self._versor_inverse(rng, form),
                        self._embedding(rng, form)]
        return ops

    def warm_up(self) -> Op:
        return self._associativity(self.rng(0), cl.QuadraticForm(3, (1, -1, 1)))

    @staticmethod
    def _associativity(rng, form) -> Op:
        x, y, z = (_sparse(rng, form.dim) for _ in range(3))
        want = ref.mul(ref.mul(x, y, form.signs), z, form.signs)
        mx, my, mz = (cl.Multivector(form, t) for t in (x, y, z))
        return Op(f"associativity-n{form.dim}", lambda: ((mx * my) * mz, mx * (my * mz)),
                  lambda out: _equals(out[0], want) and _equals(out[1], want))

    @staticmethod
    def _relation(rng, form) -> Op:
        coords = [int(rng.integers(-4, 5)) for _ in range(form.dim)]
        q = ref.quadratic_value(coords, form.signs)
        want = {0: Fraction(-q)} if q else {}
        v = cl.Multivector.vector(form, coords)
        return Op(f"relation-n{form.dim}", lambda: v * v, lambda out: _equals(out, want))

    @staticmethod
    def _versor_inverse(rng, form) -> Op:
        x: ref.Terms = {0: Fraction(1)}
        for _ in range(3):
            x = ref.mul(x, ref.vector(_nonnull_vector(rng, form.signs)), form.signs)
        mx = cl.Multivector(form, x)

        def call():
            inv = mx.inverse()
            return inv, mx * inv

        return Op(f"versor-inverse-n{form.dim}", call,
                  lambda out: (ref.mul(x, ref.plain_terms(out[0]), form.signs) == {0: 1}
                               and _equals(out[1], {0: Fraction(1)})))

    @staticmethod
    def _embedding(rng, target) -> Op:
        n = target.dim
        source = cl.QuadraticForm(n - 1, tuple(s * target.signs[-1] for s in target.signs[:-1]))
        x, y = _sparse(rng, n - 1), _sparse(rng, n - 1)
        want = ref.embed(ref.mul(x, y, source.signs), n - 1, target.signs)
        mx, my = cl.Multivector(source, x), cl.Multivector(source, y)
        return Op(f"embed-lower-n{n}",
                  lambda: (cl.embed_lower(mx * my, target),
                           cl.embed_lower(mx, target) * cl.embed_lower(my, target)),
                  lambda out: _equals(out[0], want) and _equals(out[1], want))


# ---------------------------------------------------------------------------
# spin-cover
# ---------------------------------------------------------------------------

def _exact_matrix(rot) -> ref.Matrix:
    rows = [list(row) for row in rot.entries]
    if not all(isinstance(e, Fraction) for row in rows for e in row):
        raise ValueError("rotation matrix is not exact")
    return rows


def _versor(vectors, signs) -> ref.Terms:
    x: ref.Terms = {0: Fraction(1)}
    for v in vectors:
        x = ref.mul(x, ref.vector(v), signs)
    return x


class SpinCover(Workload):
    """Exact Spin(n) certification and covering maps, n = 2..6, with
    non-members that must be rejected and a few float plane-rotation lifts.

    Operations of one cost come in blocks, so that the median and the tail
    fall inside a block rather than at a step between two costs, where
    noise or the seed could move them across: the tail among twelve general
    inverses at n = 4, below the nine covers at n = 5 and 6 (and one each at
    n = 4), the median among twelve covers at n = 3."""

    name = "spin-cover"
    covers = {2: 3, 3: 4, 4: 1, 5: 1, 6: 1}      # n: instances of each k = 2, 4, 6
    nonversors = {4: 12}                         # n: instances

    def round(self) -> List[Op]:
        rng = self.rng(1)
        ops = []
        for n in range(2, 7):
            form = cl.QuadraticForm.euclidean(n)
            for _ in range(self.covers[n]):
                for k in (2, 4, 6):
                    ops.append(self._cover(rng, form, k))
            u = _versor([ref.unit_vector(rng, n) for _ in range(2)], form.signs)
            odd = dict(u)
            odd[1 << int(rng.integers(0, n))] = Fraction(int(rng.integers(1, 4)))
            ops.append(self._reject(form, odd, "odd-part"))
            ops.append(self._reject(form, {m: 2 * c for m, c in u.items()}, "non-unit-norm"))
            for _ in range(self.nonversors.get(n, 0)):
                ops.append(self._nonversor(rng, form))
        for n in (3, 4):
            ops.append(self._lift(rng, cl.QuadraticForm.euclidean(n)))
        return ops

    def warm_up(self) -> Op:
        return self._cover(self.rng(0), cl.QuadraticForm.euclidean(3), 2)

    @staticmethod
    def _cover(rng, form, k) -> Op:
        us = [ref.unit_vector(rng, form.dim) for _ in range(k)]
        ws = [ref.unit_vector(rng, form.dim) for _ in range(2)]
        mu = cl.Multivector(form, _versor(us, form.signs))
        mw = cl.Multivector(form, _versor(ws, form.signs))
        r_u, r_w = ref.rotation_of(us), ref.rotation_of(ws)

        def call():
            su, sw = sg.SpinElement(mu), sg.SpinElement(mw)
            return [sg.covering_map(s) for s in (su, sw, su * sw, -su)]

        def check(maps):
            ru, rw, ruw, rneg = (_exact_matrix(m) for m in maps)
            return (ru == r_u and rw == r_w and rneg == ru
                    and ruw == ref.matmul(ru, rw)
                    and ref.is_special_orthogonal(ru) and ref.is_special_orthogonal(ruw))

        return Op(f"cover-n{form.dim}-k{k}", call, check)

    @staticmethod
    def _reject(form, terms: ref.Terms, why: str) -> Op:
        mx = cl.Multivector(form, terms)
        return Op(f"reject-{why}-n{form.dim}", lambda: sg.is_in_spin(mx), lambda cert: not cert.ok)

    @staticmethod
    def _nonversor(rng, form) -> Op:
        """An even element outside the Clifford group (its norm is not a
        scalar), made invertible by a dominant scalar part, so the inverse
        needs the general exact elimination."""
        n = form.dim
        even = [m for m in range(1, 1 << n)
                if bin(m).count("1") % 2 == 0 and m not in (0b0011, 0b1100)]
        while True:
            x: ref.Terms = {0b0011: Fraction(int(rng.integers(1, 3))),
                            0b1100: Fraction(int(rng.integers(1, 3)))}
            for m in rng.choice(even, size=n, replace=False):
                x[int(m)] = Fraction(int(rng.integers(1, 3)) * int(rng.choice((-1, 1))))
            x[0] = 1 + sum(abs(c) for c in x.values())
            if not ref.norm_is_scalar(x, form.signs):
                break
        mx = cl.Multivector(form, x)
        return Op(f"nonversor-n{n}", lambda: (sg.is_in_spin(mx), mx.inverse()),
                  lambda out: (not out[0].ok
                               and ref.mul(x, ref.plain_terms(out[1]), form.signs) == {0: 1}))

    @staticmethod
    def _lift(rng, form) -> Op:
        i, j = sorted(int(a) for a in rng.choice(np.arange(1, form.dim + 1), 2, replace=False))
        theta = float(rng.uniform(0.1, 2 * math.pi - 0.1))
        want = np.eye(form.dim)
        want[[i - 1, j - 1, i - 1, j - 1], [i - 1, j - 1, j - 1, i - 1]] = (
            math.cos(theta), math.cos(theta), -math.sin(theta), math.sin(theta))
        return Op(f"lift-rotation-n{form.dim}",
                  lambda: sg.covering_map(sg.lift_rotation(i, j, theta, form)),
                  lambda rot: bool(np.allclose(rot.to_numpy(), want, rtol=0, atol=1e-9)))


# ---------------------------------------------------------------------------
# torus-index
# ---------------------------------------------------------------------------

CERTIFIED_R, CERTIFIED_M0 = 1.0, 1.0


def _item1_inputs() -> List[tuple]:
    """ROADMAP item 1: (N, d, m0) in the accepted domain with a wrong index."""
    cases = [(8, s * d, 0.3) for d in range(7, 17) for s in (1, -1)]
    cases += [(12, s * d, 0.3) for d in range(15, 37, 3) for s in (1, -1)]
    cases += [(n, s * n * n // 4, 1.7) for n in (8, 12) for s in (1, -1)]
    return cases


def _index_op(kind, spec, want, known_defect=False) -> Op:
    return Op(kind, lambda: ti.index(ti.build_torus_dirac(spec)),
              lambda res: res.index == want, known_defect)


def _crossings(t0: float, t1: float) -> int:
    """Net zero crossings of the eigenvalues n + t, |n| <= 32, as t runs
    from t0 to t1: one per integer strictly between them."""
    lo, hi = min(t0, t1), max(t0, t1)
    count = sum(1 for k in range(-32, 33) if lo < k < hi)
    return count if t1 > t0 else -count


class TorusIndex(Workload):
    """Overlap indices on the flux torus, N = 8..24, with gauge copies,
    disjoint unions and spectral flows.

    As in spin-cover, operations of one cost come in blocks: the tail falls
    among twelve indices at N = 16 (dense work; eleven indices at N = 24
    would take about 35 s a round on a 2-core Xeon), the median among eleven
    indices and gauge copies at N = 12 (assembly and Python)."""

    name = "torus-index"
    index_sizes = {8: 2, 10: 2, 12: 8, 16: 12, 24: 1}   # N: indices per round

    def round(self) -> List[Op]:
        rng = self.rng(1)
        ops = []
        for n, count in self.index_sizes.items():
            for d in rng.integers(-3, 4, size=count):
                spec = ti.FluxBundleSpec(n, int(d), CERTIFIED_R, CERTIFIED_M0)
                ops.append(_index_op(f"index-N{n}", spec, int(d)))
        for _ in range(3):
            ops += [self._gauge(rng, 8), self._gauge(rng, 12), self._disjoint(rng),
                    self._shift_flow(rng), self._constant_flow(rng)]
        return ops

    def battery(self) -> List[Op]:
        cases = _item1_inputs()
        order = self.rng(2).permutation(len(cases))
        return [_index_op("item1", ti.FluxBundleSpec(cases[i][0], cases[i][1],
                                                     CERTIFIED_R, cases[i][2]),
                          cases[i][1], known_defect=True)
                for i in order]

    def warm_up(self) -> Op:
        return _index_op("index-N8", ti.FluxBundleSpec(8, 1, CERTIFIED_R, CERTIFIED_M0), 1)

    @staticmethod
    def _gauge(rng, n) -> Op:
        d = int(rng.integers(-3, 4))
        spec = ti.FluxBundleSpec(n, d, CERTIFIED_R, CERTIFIED_M0)
        phases = rng.uniform(0.0, 2.0 * math.pi, size=(n, n))
        return Op(f"gauge-N{n}",
                  lambda: ti.index(ti.gauge_transform(ti.build_torus_dirac(spec), phases)),
                  lambda res: res.index == d)

    @staticmethod
    def _disjoint(rng) -> Op:
        da, db = (int(x) for x in rng.integers(-3, 4, size=2))
        a = ti.FluxBundleSpec(8, da, CERTIFIED_R, CERTIFIED_M0)
        b = ti.FluxBundleSpec(10, db, CERTIFIED_R, CERTIFIED_M0)
        return Op("disjoint-union",
                  lambda: ti.disjoint_union_index(ti.build_torus_dirac(a), ti.build_torus_dirac(b)),
                  lambda idx: idx == da + db)

    @staticmethod
    def _shift_flow(rng) -> Op:
        while True:
            t0, t1 = (float(int(rng.integers(-3, 4)) + rng.uniform(0.05, 0.95)) for _ in range(2))
            if abs(t1 - t0) > 0.05:
                break
        fam = ti.shift_family(t0, t1)
        want = _crossings(t0, t1)
        return Op("flow-shift", lambda: ti.spectral_flow(fam), lambda flow: flow == want)

    @staticmethod
    def _constant_flow(rng) -> Op:
        q, _ = np.linalg.qr(rng.normal(size=(12, 12)))
        evals = rng.uniform(0.5, 2.0, size=12) * rng.choice((-1, 1), size=12)
        fam = ti.constant_family((q * evals) @ q.T)
        return Op("flow-constant", lambda: ti.spectral_flow(fam), lambda flow: flow == 0)


# ---------------------------------------------------------------------------
# modules-symbols
# ---------------------------------------------------------------------------

def _sum(modules):
    out = modules[0]
    for m in modules[1:]:
        out = sp.direct_sum(out, m)
    return out


def _conjugate(module, rng):
    d = module.dim
    p = np.eye(d) + 0.2 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / math.sqrt(d)
    pinv = np.linalg.inv(p)
    grading = None if module.grading is None else p @ module.grading @ pinv
    return sp.CliffordModule(module.clifford_dim,
                             tuple(p @ g @ pinv for g in module.generators), grading)


def _label(sign: int) -> str:
    return sp.PLUS_ODD if sign > 0 else sp.MINUS_ODD


def _nonzero(dec) -> Dict[str, int]:
    return {k: v for k, v in dec.multiplicities.items() if v}


class ModulesSymbols(Workload):
    """Gamma matrices, module decompositions, graded/ungraded round trips,
    the periodicity quotient, windings, ellipticity and classifications."""

    name = "modules-symbols"

    def round(self) -> List[Op]:
        rng = self.rng(1)
        ops = [self._gamma(k) for k in (2, 4, 6, 8, 10, 12)]
        for k in (2, 4, 6):
            ops.append(self._graded_even(rng, k, conjugate=False))
        ops.append(self._graded_even(rng, 4, conjugate=True))
        for k in (3, 5):
            ops.append(self._decompose(f"graded-odd-k{k}", _sum([sp.spinor_module(k)] * 2),
                                       {sp.UNIQUE_EVEN: 2}))
        for k in (3, 5, 7):
            ops.append(self._ungraded_odd(rng, k))
        for k in (4, 6):
            gamma = sp.CliffordModule(k, tuple(sp.gamma_matrices(k)))
            ops.append(self._decompose(f"ungraded-even-k{k}", _sum([gamma] * 2), {sp.UNIQUE_EVEN: 2}))
        for k in (3, 5):
            ops.append(self._round_trip(self._odd_mixture(rng, k)))
        ops.append(self._round_trip(sp.CliffordModule(4, tuple(sp.gamma_matrices(4)))))
        ops += [self._abs_group(k) for k in range(9)]
        for _ in range(2):
            a = int(rng.integers(0, 3))
            s2 = sp.spinor_module(2)
            parts = [s2] * a + [sp.flip_grading(s2)] * (2 - a)
            # the spinor module of Cl_2 has det(clutching) = i e^{i theta}:
            # winding +1, and -1 with the grading flipped
            ops.append(self._winding("winding-abs", sy.abs_class(_sum(parts)), a - (2 - a)))
        ops.append(self._winding("winding-thom", sy.thom_class_complex(1), 1))
        for dim in (2, 3, 4):
            ops.append(self._elliptic(f"elliptic-laplacian-{dim}", sy.laplacian_operator(dim), True))
            ops.append(self._elliptic(f"elliptic-dalembertian-{dim}",
                                      sy.dalembertian_operator(dim - 1), False))
        for dim in (2, 4):
            ops.append(self._elliptic(f"elliptic-dirac-{dim}", sy.dirac_operator(dim), True))
        for n in (2, 5, 8):
            ops.append(Op(f"classify-complex-n{n}", lambda n=n: cl.classify_complex(n),
                          lambda alg, n=n: alg.factors == ref.complex_clifford_type(n)))
        for n in (3, 6, 9, 12):
            plus = int(rng.integers(0, n + 1))
            ops.append(Op(f"classify-real-n{n}", lambda p=plus, q=n - plus: cl.classify_real(p, q),
                          lambda alg, p=plus, q=n - plus: alg.factors == ref.real_clifford_type(p, q)))
        return ops

    def warm_up(self) -> Op:
        # its check multiplies 64 x 64 matrices, which starts the BLAS threads
        return self._gamma(12)

    @staticmethod
    def _gamma(k) -> Op:
        return Op(f"gamma-k{k}", lambda: sp.gamma_matrices(k),
                  lambda gens: (len(gens) == k and gens[0].shape == (1 << (k // 2),) * 2
                                and ref.satisfies_relations(gens)))

    @staticmethod
    def _decompose(kind, module, want) -> Op:
        return Op(kind, lambda: sp.decompose_module(module), lambda dec: _nonzero(dec) == want)

    def _graded_even(self, rng, k, conjugate) -> Op:
        a = int(rng.integers(0, 4))
        s = sp.spinor_module(k)
        parts = [s] * a + [sp.flip_grading(s)] * (3 - a)
        want = Counter(_label(ref.even_part_label(m.generators, m.grading)) for m in parts)
        module = _sum(parts)
        if conjugate:
            module = _conjugate(module, rng)
        kind = "graded-even-conjugated" if conjugate else "graded-even"
        return self._decompose(f"{kind}-k{k}", module, want)

    @staticmethod
    def _odd_mixture(rng, k):
        plus, minus = sp.odd_irreps(k)
        a = int(rng.integers(0, 4))
        return _sum([plus] * a + [minus] * (3 - a))

    def _ungraded_odd(self, rng, k) -> Op:
        plus, minus = sp.odd_irreps(k)
        a = int(rng.integers(0, 4))
        parts = [plus] * a + [minus] * (3 - a)
        want = Counter(_label(ref.volume_label(m.generators)) for m in parts)
        return self._decompose(f"ungraded-odd-k{k}", _conjugate(_sum(parts), rng), want)

    @staticmethod
    def _round_trip(module) -> Op:
        k = module.clifford_dim
        trace = ref.volume_trace(module.generators) if k % 2 else None

        def call():
            graded = sp.ungraded_to_graded(module)
            return graded, sp.graded_to_ungraded(graded)

        def check(out):
            graded, back = out
            return (graded.clifford_dim == k + 1 and graded.dim == 2 * module.dim
                    and ref.satisfies_relations(graded.generators, graded.grading)
                    and back.clifford_dim == k and back.dim == module.dim
                    and ref.satisfies_relations(back.generators)
                    and (trace is None or abs(ref.volume_trace(back.generators) - trace) < 1e-6))

        return Op(f"grading-round-trip-k{k}", call, check)

    @staticmethod
    def _abs_group(k) -> Op:
        return Op(f"abs-group-k{k}", lambda: sy.abs_group(k),
                  lambda group: group.group == ref.abs_group(k))

    @staticmethod
    def _winding(kind, sc, want) -> Op:
        return Op(kind, lambda: sy.winding_number(sc), lambda w: w == want)

    @staticmethod
    def _elliptic(kind, operator, elliptic) -> Op:
        sym = sy.principal_symbol(operator)

        def check(report):
            if elliptic:
                return report.elliptic
            w = report.witness_exact
            return (not report.elliptic and w is not None and any(w)
                    and w[0] * w[0] == sum(x * x for x in w[1:]))

        return Op(kind, lambda: sy.is_elliptic(sym), check)


WORKLOADS = {w.name: w for w in (ExactSparse, SpinCover, TorusIndex, ModulesSymbols)}
