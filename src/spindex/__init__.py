"""spindex: exact Clifford algebra arithmetic, spinor representations,
spin groups, difference-bundle symbol classes, and numerically certified
Dirac indices on the flat 2-torus."""

from .clifford import (AlgebraType, FormMismatchError, Multivector,
                       QuadraticForm, blade_from_indices, blade_grade,
                       blade_indices, blade_name, blade_product,
                       classify_complex, classify_real, embed_lower)
from .exactnum import GaussianRational
from .spin_groups import (RotationMatrix, SpinCElement, SpinCertificate,
                          SpinElement, covering_map, is_in_spin,
                          lift_rotation, random_spin_element, spin_norm,
                          spinc_canonicalize, twisted_conjugation)
from .spinors import (CliffordModule, ModuleDecomposition, chirality_operator,
                      clifford_action, decompose_module, direct_sum,
                      flip_grading, gamma_matrices, graded_to_ungraded,
                      odd_irreps, restrict_module, spinor_module,
                      ungraded_to_graded)
from .symbols import (AbsGroup, EllipticityReport, OperatorSpec, SymbolClass,
                      SymbolPolynomial, abs_class, abs_group,
                      dalembertian_operator, dirac_operator, is_elliptic,
                      laplacian_operator, principal_symbol,
                      thom_class_complex, winding_number)
from .torus_index import (AmbiguousKernelError, FamilySpec, FluxBundleSpec,
                          IndexResult, LatticeOperator, NonConvergenceError,
                          build_torus_dirac, constant_family,
                          disjoint_union_index, gauge_transform, index,
                          kernel_dimension, shift_family, spectral_flow)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
