"""Exact computation with finite commutative unital rings.

Dense-table rings, their ideals and quotients, extensions with enumerated
intermediate-subalgebra lattices, minimal-extension classification,
seminormalization and t-closure, separating families, idealizations with
submodule lattices, and the partition combinatorics tying subalgebra counts
to Bell and Stirling numbers.
"""

from .config import arith_limit, lattice_limit
from .errors import (InternalCheckError, NotApplicableError, ParseError,
                     PreconditionError, RinglatError, SizeLimitError)
from .rings import (FiniteRing, Ideal, ProductResult, QuotientResult,
                    RingHom, check_ring_axioms, compose, identity_hom,
                    idempotents, is_field, is_local, is_spir, make_gf,
                    make_zmod, nilpotency_index, poly_quotient, product,
                    quotient, same_tables)
from .ideals import (all_ideals, annihilator, colon, conductor, ideal_generated,
                     ideal_intersection, ideal_power, ideal_product, ideal_sum,
                     principal_ideal, spectrum, unit_ideal, zero_ideal)
from .lattice import (Extension, LatticeReport, MinimalClassification,
                      Subalgebra, classify_minimal, gilbert_bijection,
                      intermediate_algebras, irreducible_decomposition,
                      is_delta, is_delta0, is_infra_integral,
                      is_pointwise_minimal, is_quadratic,
                      is_seminormal, is_special_minimal_ramified,
                      is_subintegral, is_tclosed, lower_extension,
                      power_extension, predicate_battery, product_extension,
                      realize, upper_extension)
from .closures import (CanonicalDecomposition, canonical_decomposition,
                       seminormalization, t_closure,
                       verify_diagonal_formulas)
from .crt import (CrtExtension, SeparatingFamily, conductor_by_formula,
                  is_minimal_crt, is_minimal_crt2, make_crt, make_family,
                  reduce_to_zero_conductor, seminormalization_of_crt,
                  weak_crt_check)
from .modules import (FiniteModule, check_module, componentwise_census,
                      idealization_lattice_bijection,
                      idealize, interval_length, is_cyclic, is_faithful,
                      is_uniserial, jordan_holder_check, length_and_count,
                      module_from_cyclics,
                      module_from_ring, module_length, quotient_module,
                      submodules, uniserial_structure_check)
from .combinatorics import (LambdaMatrix, Partition, bell, enumerate_exal,
                            enumerate_homal, exal_bound_check,
                            partition_to_subalgebra, partitions, stirling2)
from .dsl import build, build_text, parse, print_expr

__version__ = "0.1.0"
