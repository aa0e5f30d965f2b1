"""The package's public names: every change to them shows in this pin."""
import inspect

import mnmap

EXPORTS = [
    "ArtinBudgetError", "CLASSICAL", "CYLINDRICAL", "Flavor", "FreeAut",
    "LaurentPoly", "Letter", "ONE", "Permutation", "PolyMatrix",
    "PurityError", "ReductionCapError", "S", "SIGMA", "S_INV",
    "SearchResult", "T", "TAU", "T_INV", "UnsupportedLetterError", "VCB",
    "VerificationReport", "WitnessError", "Word", "WordError", "ZERO",
    "ZETA", "artin_apply", "bigelow_alpha", "burau", "cancellation_defect",
    "classical", "commutator", "cylindrical", "handle_reduce",
    "is_trivial_braid", "lift_witness", "mn_map", "parse_word",
    "pk_letter_image", "project_pk", "rho_letter", "rho_word",
    "search_kernel", "sigma", "stabilize_fd", "tau", "vcb",
    "verify_theorem1", "verify_theorem2", "zeta",
]


def test_public_names_are_pinned():
    # submodules are left out: importing one (mnmap.cli, say) binds it here
    names = sorted(name for name, value in vars(mnmap).items()
                   if not name.startswith("_") and not inspect.ismodule(value))
    assert names == EXPORTS
