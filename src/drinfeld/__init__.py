"""Exact computation of holomorphic polydifferentials on the Drinfeld curve
and their module decompositions over SL2(F_q).

Layout: ff (finite fields and exact linear algebra), curve (monomial basis
and action matrices), closedform (the decomposition tables in closed form),
modrep (the independent matrix oracle), cli (command-line surface).
"""

from .closedform import (
    BDecomposition,
    BLabel,
    GDecomposition,
    InconsistencyError,
    b_decomposition,
    b_decomposition_large_p,
    c_abt,
    coinvariants_dim,
    comp_factors_h0,
    g_decomposition,
)
from .curve import (
    BasisSet,
    GroupElement,
    action_matrix,
    dim_h0,
    genus,
    reduce_to_basis,
)
from .ff import FieldCtx, FqElem, FqMatrix, make_field
from .modrep import (
    CompFactorVector,
    GuardError,
    ModuleRep,
    cartan_check,
    comp_factors_brauer,
    comp_factors_oracle,
    decompose_b_oracle,
    h0_module,
    hom_dim,
    induce_to_g,
    restrict_to_b,
    simple_module,
    uab_module,
    verify_full,
)

__version__ = "0.1.0"

__all__ = [
    "BDecomposition",
    "BLabel",
    "GDecomposition",
    "InconsistencyError",
    "b_decomposition",
    "b_decomposition_large_p",
    "c_abt",
    "coinvariants_dim",
    "comp_factors_h0",
    "g_decomposition",
    "BasisSet",
    "GroupElement",
    "action_matrix",
    "dim_h0",
    "genus",
    "reduce_to_basis",
    "FieldCtx",
    "FqElem",
    "FqMatrix",
    "make_field",
    "CompFactorVector",
    "GuardError",
    "ModuleRep",
    "cartan_check",
    "comp_factors_brauer",
    "comp_factors_oracle",
    "decompose_b_oracle",
    "h0_module",
    "hom_dim",
    "induce_to_g",
    "restrict_to_b",
    "simple_module",
    "uab_module",
    "verify_full",
    "__version__",
]
