"""Exact tools for the composite braid-group map

    pure braids on n+1 strands -> cylindrical braids -> virtual cylindrical
    braids -> GL_n(Z[t^{+-1}, s^{+-1}])

with the unreduced Burau representation as its classical restriction,
word-problem oracles certifying witnesses, and a kernel search.
"""

from .words import (
    CLASSICAL,
    CYLINDRICAL,
    Flavor,
    Letter,
    Permutation,
    SIGMA,
    TAU,
    VCB,
    Word,
    WordError,
    ZETA,
    classical,
    commutator,
    cylindrical,
    parse_word,
    sigma,
    tau,
    vcb,
    zeta,
)
from .laurent import (
    LaurentPoly,
    ONE,
    PolyMatrix,
    S,
    S_INV,
    T,
    T_INV,
    ZERO,
)
from .reps import (
    ArtinBudgetError,
    FreeAut,
    ReductionCapError,
    artin_apply,
    burau,
    handle_reduce,
    is_trivial_braid,
    rho_letter,
    rho_word,
)
from .maps import (
    PurityError,
    UnsupportedLetterError,
    cancellation_defect,
    mn_map,
    pk_letter_image,
    project_pk,
    stabilize_fd,
)
from .kernel import (
    SearchResult,
    VerificationReport,
    WitnessError,
    bigelow_alpha,
    lift_witness,
    search_kernel,
    verify_theorem1,
    verify_theorem2,
)

__version__ = "0.1.0"
