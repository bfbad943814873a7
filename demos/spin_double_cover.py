"""The Spin -> SO double cover, exactly.

Rational spin elements (products of Pythagorean unit vectors) give rotation
matrices with Fraction entries and exact orthogonality.  Angle-parametrized
lifts are exact rational rotors too (through the half-angle tangent), and
exhibit the two sheets of the cover: the full turn lifts to exactly -1.
"""

import math

import numpy as np

from spindex import (GaussianRational, Multivector, QuadraticForm,
                     SpinElement, covering_map, lift_rotation,
                     random_spin_element, spin_norm, spinc_canonicalize,
                     twisted_conjugation)

form = QuadraticForm.euclidean(4)
e12 = Multivector.blade(form, [1, 2])

# A bivector exponentiates (here: is already) a Spin element; its twisted
# conjugation action on vectors is the covered rotation.
u = SpinElement(e12)
print("covering_map(e1 e2) =")
print(covering_map(u).to_numpy())

# Twisted conjugation by a unit vector reflects across its orthogonal plane
# (computed by exact blade reduction).
e1 = Multivector.basis_vector(form, 1)
e2 = Multivector.basis_vector(form, 2)
print("\ntwist by e1: e1 ->", twisted_conjugation(e1, e1),
      ",  e2 ->", twisted_conjugation(e1, e2))

# The two sheets: a full turn lifts to -1, which still covers the identity.
theta = math.pi / 2
quarter = lift_rotation(1, 2, theta, form)
full = lift_rotation(1, 2, 2 * math.pi, form)
print("\nlift(pi/2)  =", quarter.value)
print("lift(2 pi)  =", full.value, " -> covers the identity rotation:")
print(covering_map(full).to_numpy())

# Exact random sampling: products of rational unit vectors land in SO(n)
# with Fraction-level exactness.
rng = np.random.default_rng(7)
s = random_spin_element(rng, form, pairs=2)
rot = covering_map(s)
print("\nrandom rational spin element, norm =", spin_norm(s.value))
print("exact rotation entries, first row:", rot.entries[0])
print("M^T M = I and det = +1 exactly:", rot.is_special_orthogonal(form))

# Spin^c pairs are classes modulo the simultaneous sign flip; the canonical
# representative keeps the phase on the upper half circle.
z = GaussianRational(0, 1)
a = spinc_canonicalize(u, z)
b = spinc_canonicalize(-u, -z)
print("\nspin^c: (u, i) and (-u, -i) canonicalize identically:", a == b)
square = a * a
print("(e1 e2, i)^2 canonicalizes to phase", square.phase,
      "and spin part", square.spin.value)
