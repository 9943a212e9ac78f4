"""Exact generalized cycle indices for permutation groups with linear characters.

The library computes Z(chi; p_1, ..., p_d) in exact cyclotomic arithmetic,
enumerates the weighted orbit sets it counts, and cross-checks the two routes
against each other, together with the product rule, the insertion (plethysm)
rule, and the projector/basis statements behind them.
"""

from .caps import CapExceeded, Caps, caps_from_env
from .characters import (LinearCharacter, enumerate_linear_characters, kernel,
                         product_character, sign_character, unit_character,
                         wreath_character)
from .cyclo import Cyclotomic, cyclotomic_polynomial
from .orbits import (OrbitRecord, OrbitTable, enumerate_orbits, full_census,
                     index_set_J, weighted_sum_g)
from .perms import (PermGroup, compose, cycle_string, cycle_type,
                    decompose_wreath_element, derived_subgroup,
                    direct_product_embed, group_closure, inverse, named_group,
                    perm_from_cycles, wreath_embed)
from .polys import (MonomialPoly, PowerSumPoly, cycle_index, is_symmetric,
                    plethysm_insert, psum_mul, specialize)
from .projector import (BasisReport, MonomialModule, SparseMatrix,
                        build_projector, check_annihilation,
                        random_gamma_family, verify_basis_prop)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded", "Caps", "caps_from_env",
    "LinearCharacter", "enumerate_linear_characters", "kernel",
    "product_character", "sign_character", "unit_character", "wreath_character",
    "Cyclotomic", "cyclotomic_polynomial",
    "OrbitRecord", "OrbitTable", "enumerate_orbits", "full_census",
    "index_set_J", "weighted_sum_g",
    "PermGroup", "compose", "cycle_string", "cycle_type",
    "decompose_wreath_element", "derived_subgroup", "direct_product_embed",
    "group_closure", "inverse", "named_group", "perm_from_cycles", "wreath_embed",
    "MonomialPoly", "PowerSumPoly", "cycle_index", "is_symmetric",
    "plethysm_insert", "psum_mul", "specialize",
    "BasisReport", "MonomialModule", "SparseMatrix", "build_projector",
    "check_annihilation", "random_gamma_family", "verify_basis_prop",
]
