"""Exact Hochschild and cyclic (Shukla) homology of finitely presented
commutative algebras over Z, Z/m and Q.

The engine computes with free differential graded models, divided-power
de Rham (Gamma-forms) complexes and crystalline-style filtered
complexes, cross-validated against a brute-force normalized bar-complex
oracle.  All arithmetic is exact.
"""

from .linalg import GroundRing, HomologyGroup, SparseMatrix, homology_at, preimage, snf
from .dpalgebra import (
    DIVIDED_POWER, EXTERIOR, POLYNOMIAL, Element, GammaDerivation, Generator,
    GradedAlgebra, basis_slice, contraction_complex, derivation_matrix, derive,
    homotopy_h,
)
from .models import (
    FreeDGA, Presentation, TateTower, check_boundary_square, koszul_model,
    quasi_monic_reduce, tate_extend, trivial_model,
)
from .mixed import (
    DoubleMixedComplex, FilteredGroups, cyclic_e2, cyclic_total, e1_term,
    filtration_layers, hochschild_total, validate,
)
from .gammaforms import (
    GammaFormsComplex, WitnessReport, build_gamma_forms, hc_assemble, hh_assemble,
    hh_layers, witness_model, witness_nondegeneracy,
)
from .baroracle import (
    FiniteAlgebra, cyclic_mixed, from_presentation, hc_oracle, hh_oracle,
)
from .crystalline import (
    Envelope, L_complex, Lprime_complex, dbar, envelope_slice, hc_layers_small,
    hodge_hh, lprime_homology, word_product,
)

__all__ = [name for name in dir() if not name.startswith("_")]
