"""The acceptance suite: one callable per criterion, shared by pytest and
the command line.  Every function returns a CriterionResult; randomized
criteria take a seed (default 0) for reproducibility."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from . import spinors, symbols, torus_index
from .clifford import (GaussianRational, Multivector, QuadraticForm,
                       blade_grade, classify_complex, embed_lower)
from .spin_groups import (_conjugation_matrix, covering_map,
                          random_spin_element)


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float
    budget: float = 0.0     # seconds allowed; 0 for a criterion without a budget

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        used = f"{self.seconds:.2f}s / {self.budget:.0f}s" if self.budget else f"{self.seconds:.2f}s"
        return f"{tag} {self.name}: {self.detail} [{used}]"


def _run(name: str, budget: float, body: Callable[[], str]) -> CriterionResult:
    start = time.perf_counter()
    try:
        detail = body()
        elapsed = time.perf_counter() - start
        if budget and elapsed > budget:
            return CriterionResult(name, False,
                                   f"{detail}; exceeded {budget:.0f}s budget",
                                   elapsed, budget)
        return CriterionResult(name, True, detail, elapsed, budget)
    except Exception as exc:  # noqa: BLE001 - report, do not crash the suite
        elapsed = time.perf_counter() - start
        return CriterionResult(name, False, f"{type(exc).__name__}: {exc}",
                               elapsed, budget)


def _random_multivector(rng, form: QuadraticForm, terms: int = 4) -> Multivector:
    masks = rng.integers(0, 1 << form.dim, size=terms).tolist()
    coefficients = rng.integers(-4, 5, size=terms).tolist()
    # a repeated mask keeps its last coefficient
    return Multivector(form, dict(zip(masks, coefficients)))


def clifford_relations_and_associativity(seed: int = 0,
                                         triples: int = 1000) -> CriterionResult:
    def body() -> str:
        rng = np.random.default_rng(seed)
        checked = 0
        for n in range(1, 7):
            form = QuadraticForm.euclidean(n)
            for _ in range(triples):
                x = _random_multivector(rng, form)
                y = _random_multivector(rng, form)
                z = _random_multivector(rng, form)
                if (x * y) * z != x * (y * z):
                    raise AssertionError(f"associativity failed in Cl_{n}")
                coords = rng.integers(-4, 5, size=n).tolist()
                v = Multivector.vector(form, coords)
                q = form.value(coords)
                if v * v != Multivector.scalar(form, -q):
                    raise AssertionError(f"defining relation failed in Cl_{n}")
                checked += 1
        return f"{checked} random triples and vectors exact across n <= 6"

    return _run("clifford-relations-associativity", 10.0, body)


def complex_classification(seed: int = 0) -> CriterionResult:
    def body() -> str:
        for n in range(0, 7):
            algebra = classify_complex(n, verify=True)
            if n % 2 == 0:
                expected = (("C", 1 << (n // 2)),)
            else:
                half = 1 << ((n - 1) // 2)
                expected = (("C", half), ("C", half))
            if algebra.factors != expected:
                raise AssertionError(f"classification mismatch at n = {n}")
        return "n = 0..6 verified surjective onto the matrix algebras"

    return _run("complex-classification", 0.0, body)


def even_subalgebra_isomorphism(seed: int = 0) -> CriterionResult:
    def body() -> str:
        for n in range(1, 7):
            target = QuadraticForm.euclidean(n)
            source = QuadraticForm.euclidean(n - 1)
            images = {}
            for mask in range(1 << (n - 1)):
                x = Multivector(source, {mask: GaussianRational(1)})
                img = embed_lower(x, target)
                terms = img.terms()
                if len(terms) != 1:
                    raise AssertionError("basis blade image is not a blade")
                ((m, c),) = terms.items()
                if blade_grade(m) % 2:
                    raise AssertionError("image not in the even part")
                if c * c != GaussianRational(1):
                    raise AssertionError("image coefficient is not a unit")
                images[mask] = (m, c)
            masks = {m for m, _ in images.values()}
            if len(masks) != 1 << (n - 1):
                raise AssertionError("embedding is not injective on blades")
            even_masks = {m for m in range(1 << n) if blade_grade(m) % 2 == 0}
            if masks != even_masks:
                raise AssertionError("image does not span the even part")
            for a in range(1 << (n - 1)):
                xa = Multivector(source, {a: GaussianRational(1)})
                fa = embed_lower(xa, target)
                for b in range(1 << (n - 1)):
                    xb = Multivector(source, {b: GaussianRational(1)})
                    if embed_lower(xa * xb, target) != fa * embed_lower(xb, target):
                        raise AssertionError("embedding is not multiplicative")
        return "e_i -> e_i e_n bijective algebra map onto the even part, n <= 6"

    return _run("even-subalgebra-isomorphism", 0.0, body)


def covering_map_products(seed: int = 0, count: int = 500) -> CriterionResult:
    def body() -> str:
        rng = np.random.default_rng(seed)
        dims = (2, 3, 4, 5)
        per = count // len(dims)
        done = 0
        for dim_i, dim in enumerate(dims):
            form = QuadraticForm.euclidean(dim)
            quota = per + (count - per * len(dims) if dim_i == len(dims) - 1 else 0)
            for _ in range(quota):
                u = random_spin_element(rng, form, pairs=int(rng.integers(1, 4)))
                rot = covering_map(u)
                if not rot.is_special_orthogonal(form):
                    raise AssertionError("image not special orthogonal")
                if _conjugation_matrix(-u.value).entries != rot.entries:
                    raise AssertionError("covering map distinguishes u and -u")
                done += 1
        return f"{done} random even products exactly in SO(n), kernel = {{+-1}}"

    return _run("covering-map-500", 30.0, body)


def abs_periodicity(seed: int = 0) -> CriterionResult:
    def body() -> str:
        for k in range(0, 7):
            group = symbols.abs_group(k)
            expected = "Z" if k % 2 == 0 else "0"
            if group.group != expected:
                raise AssertionError(f"period mismatch at k = {k}")
        return "module quotient Z/0/Z/0/Z/0/Z for k = 0..6, computed"

    return _run("abs-periodicity", 0.0, body)


def abs_generator_winding(seed: int = 0) -> CriterionResult:
    def body() -> str:
        s2 = spinors.spinor_module(2)
        w = symbols.winding_number(symbols.abs_class(s2))
        if w not in (1, -1):
            raise AssertionError(f"generator winding {w} not +-1")
        w2 = symbols.winding_number(symbols.abs_class(spinors.direct_sum(s2, s2)))
        if w2 != 2 * w:
            raise AssertionError("direct-sum doubling failed")
        return f"generator winds {w}, doubled class winds {w2}"

    return _run("abs-generator-winding", 0.0, body)


def thom_class_agreement(seed: int = 0) -> CriterionResult:
    def body() -> str:
        w_abs = symbols.winding_number(symbols.abs_class(spinors.spinor_module(2)))
        w_thom = symbols.winding_number(symbols.thom_class_complex(1))
        if abs(w_thom) != abs(w_abs):
            raise AssertionError(f"|{w_thom}| != |{w_abs}|")
        return f"exterior model winds {w_thom}, spinor model winds {w_abs}"

    return _run("thom-class-agreement", 0.0, body)


def ellipticity_checks(seed: int = 0) -> CriterionResult:
    def body() -> str:
        lap = symbols.principal_symbol(symbols.laplacian_operator(3))
        if not symbols.is_elliptic(lap).elliptic:
            raise AssertionError("Laplacian not detected elliptic")
        box = symbols.principal_symbol(symbols.dalembertian_operator(2))
        report = symbols.is_elliptic(box)
        if report.elliptic:
            raise AssertionError("d'Alembertian detected elliptic")
        if report.witness_exact is None:
            raise AssertionError("no exact light-cone witness found")
        tau, *space = report.witness_exact
        if tau * tau != sum(x * x for x in space):
            raise AssertionError("witness is not on the light cone")
        dirac = symbols.principal_symbol(symbols.dirac_operator(2))
        if not symbols.is_elliptic(dirac).elliptic:
            raise AssertionError("Dirac operator not detected elliptic")
        return (f"Laplacian elliptic, wave operator degenerate at "
                f"{report.witness_exact}, Dirac elliptic")

    return _run("ellipticity", 0.0, body)


def torus_index_theorem(seed: int = 0) -> CriterionResult:
    def body() -> str:
        checked = 0
        for n in (12, 14, 16):
            for d in range(-3, 4):
                spec = torus_index.FluxBundleSpec(n, d)
                result = torus_index.index(torus_index.build_torus_dirac(spec))
                if result.index != d:
                    raise AssertionError(f"index {result.index} != {d} at N={n}")
                if not np.isfinite(result.spectral_gap) or result.spectral_gap <= 0:
                    raise AssertionError(f"no certified gap at N={n}, d={d}")
                checked += 1
        return f"index == flux for {checked} cases, N in {{12,14,16}}, |d| <= 3"

    return _run("torus-index-theorem", 120.0, body)


def spectral_flow_family(seed: int = 0) -> CriterionResult:
    def body() -> str:
        eps = 1e-3
        one = torus_index.spectral_flow(torus_index.shift_family(eps, 1 + eps))
        two = torus_index.spectral_flow(torus_index.shift_family(eps, 2 + eps))
        rng = np.random.default_rng(seed)
        h = rng.normal(size=(12, 12))
        const = torus_index.spectral_flow(
            torus_index.constant_family(h + h.T + 12 * np.eye(12)))
        if (one, two, const) != (1, 2, 0):
            raise AssertionError(f"flows {(one, two, const)} != (1, 2, 0)")
        return "shift family flows 1 then 2 per period; constant family flows 0"

    return _run("spectral-flow", 0.0, body)


def gauge_invariance(seed: int = 0, trials: int = 20) -> CriterionResult:
    def body() -> str:
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(trials):
            n = int(rng.choice([8, 10]))
            d = int(rng.integers(-2, 3))
            op = torus_index.build_torus_dirac(torus_index.FluxBundleSpec(n, d))
            phases = rng.uniform(0.0, 2.0 * np.pi, size=(n, n))
            transformed = torus_index.gauge_transform(op, phases)
            drift = op.overlap().spectrum - transformed.overlap().spectrum
            worst = max(worst, float(np.max(np.abs(drift))))
            if worst > 1e-10:
                raise AssertionError(f"H_W eigenvalues moved by {worst:.2e}")
            if {torus_index.index(op).index, torus_index.index(transformed).index} != {d}:
                raise AssertionError("index != flux before or after the gauge transformation")
        return f"{trials} trials, max H_W eigenvalue drift {worst:.2e}, index == flux on both"

    return _run("gauge-invariance", 0.0, body)


ALL_CRITERIA = (
    clifford_relations_and_associativity,
    complex_classification,
    even_subalgebra_isomorphism,
    covering_map_products,
    abs_periodicity,
    abs_generator_winding,
    thom_class_agreement,
    ellipticity_checks,
    torus_index_theorem,
    spectral_flow_family,
    gauge_invariance,
)


def run_all(seed: int = 0) -> List[CriterionResult]:
    return [criterion(seed) for criterion in ALL_CRITERIA]
