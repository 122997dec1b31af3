"""Exact arithmetic for free commutative Rota-Baxter algebras, weighted
Hurwitz series, and the distributive map between them, with a seeded law
suite that machine-checks the defining identities on random small instances.
"""

from .coeffs import (INTEGERS, RATIONALS, Ring, RingError, Scalar, parse_ring,
                     parse_scalar, residues)
from .algebra import (Handle, HandleMismatchError, Hom, HurwitzHandle,
                      MAX_NESTING, Poly, PolyHandle, SampleBudget, ShaHandle,
                      WeightError, alg_eq, difference_quotient,
                      difference_quotient_on, derivative_on, exp_span_rb,
                      hurwitz as hurwitz_handle, integration_on, poly_derivative,
                      poly_handle, poly_integrate, random_element, scaled_identity,
                      scaled_identity_on, sha, subst_hom, unit, zero)
from .freerb import (Tensor, counit_eval, eta, eta_hom, free_derivation,
                     free_rb_operator, induced_hom, induced_rb_hom,
                     interleavings, mu, mu_hom, rb_prepend, sha_hom, sha_map,
                     structure_hom)
from .hurwitz import (PrecisionError, Series, comult, comult_hom,
                      costructure_hom, counit, counit_hom, derivation_series,
                      higher_leibniz, lifted_rb, map_pointwise, pointwise_hom,
                      rb_lift_apply, shift, shift_derivation)
from .distlaw import (beta, beta_hom, lift_costructure, lift_costructure_hom,
                      lift_t_structure)
from .reports import LawReport, LawSuite

__version__ = "0.1.0"
