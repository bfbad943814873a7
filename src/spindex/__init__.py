"""spindex: exact Clifford algebra arithmetic, spinor representations,
spin groups, difference-bundle symbol classes, and numerically certified
Dirac indices on the flat 2-torus.

The names below are loaded on first use (PEP 562), so that the exact core
(``Multivector``, ``SpinElement``, ...) can be used without importing numpy,
which only the spinor, symbol and torus modules need.
"""

import importlib

_EXPORTS = {
    "clifford": ("AlgebraType", "FormMismatchError", "Multivector",
                 "QuadraticForm", "blade_from_indices", "blade_grade",
                 "blade_indices", "blade_name", "blade_product",
                 "classify_complex", "classify_real", "embed_lower"),
    "exactnum": ("GaussianRational",),
    "spin_groups": ("RotationMatrix", "SpinCElement", "SpinCertificate",
                    "SpinElement", "covering_map", "is_in_spin",
                    "lift_rotation", "random_spin_element", "spin_norm",
                    "spinc_canonicalize", "twisted_conjugation"),
    "spinors": ("CliffordModule", "ModuleDecomposition", "chirality_operator",
                "clifford_action", "decompose_module", "direct_sum",
                "flip_grading", "gamma_matrices", "graded_to_ungraded",
                "odd_irreps", "restrict_module", "spinor_module",
                "ungraded_to_graded"),
    "symbols": ("AbsGroup", "EllipticityReport", "OperatorSpec", "SymbolClass",
                "SymbolPolynomial", "abs_class", "abs_group",
                "dalembertian_operator", "dirac_operator", "is_elliptic",
                "laplacian_operator", "principal_symbol",
                "thom_class_complex", "winding_number"),
    "torus_index": ("AmbiguousKernelError", "FamilySpec", "FluxBundleSpec",
                    "IndexResult", "LatticeOperator", "NonConvergenceError",
                    "build_torus_dirac", "constant_family",
                    "disjoint_union_index", "gauge_transform", "index",
                    "kernel_dimension", "shift_family", "spectral_flow"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_SOURCE.keys() | _EXPORTS.keys())


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | set(__all__))
