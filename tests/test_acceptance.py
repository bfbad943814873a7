"""One test per acceptance criterion; each prints its PASS/FAIL line with
timing so the suite doubles as the runnable acceptance report
(``pytest tests/test_acceptance.py -s`` or ``spindex acceptance``)."""

import pytest

from spindex import acceptance

SEED = 0


def _check(criterion):
    result = criterion(SEED)
    print(result.line())
    assert result.passed, result.detail


def test_clifford_relations_and_associativity():
    # 1000 seeded random triples per dimension n <= 6, exact, under 10 s
    _check(acceptance.clifford_relations_and_associativity)


def test_complex_classification():
    # matrix-algebra types for n = 0..6 with representation surjectivity
    _check(acceptance.complex_classification)


def test_even_subalgebra_isomorphism():
    # e_i -> e_i e_n injective algebra map onto the even part, n <= 6
    _check(acceptance.even_subalgebra_isomorphism)


def test_covering_map_products():
    # 500 random even products of rational unit vectors in SO(n), n <= 5,
    # with covering_map(u) == covering_map(-u), under 30 s
    _check(acceptance.covering_map_products)


def test_abs_periodicity():
    # quotient group Z for even k, 0 for odd k, k = 0..6, computed
    _check(acceptance.abs_periodicity)


def test_abs_generator_winding():
    # generator winds +-1 (integrality tolerance 1e-6), doubling gives +-2
    _check(acceptance.abs_generator_winding)


def test_thom_class_agreement():
    # exterior-algebra Thom class matches the spinor class up to sign
    _check(acceptance.thom_class_agreement)


def test_ellipticity():
    # Laplacian elliptic, wave operator degenerate on the light cone, Dirac elliptic
    _check(acceptance.ellipticity_checks)


def test_torus_index_theorem():
    # index == d for N in {12, 14, 16}, d in -3..3, certified gaps, under 2 min
    _check(acceptance.torus_index_theorem)


def test_spectral_flow():
    # shift family: one period -> 1, two periods -> 2; constant family -> 0
    _check(acceptance.spectral_flow_family)


def test_gauge_invariance():
    # 20 seeded gauge conjugations; H_W spectra within 1e-10, index == flux on both
    _check(acceptance.gauge_invariance)
