"""Sphere growth, connectivity atoms, girth bounds and zero-product
witnesses for finite relations (directed graphs with loops)."""

from .connectivity import (
    AtomsUndefinedError,
    ConnectivityResult,
    Fragment,
    atom_containing,
    atoms_oracle,
    check_atom_disjointness,
    check_proposition_basic,
    fragments_oracle,
    kappa,
    min_separating_set,
)
from .groups import (
    FiniteGroup,
    GroupValidationError,
    TransitivityCertificate,
    abelian_groups,
    automorphisms_brute,
    catalog_up_to_order,
    cayley_relation,
    cyclic,
    dihedral,
    direct_product,
    group_from_table,
    is_point_transitive_brute,
    symmetric,
)
from .relation import INFINITE, Relation, VertexSet
from .theorems import (
    BugError,
    CheckRecord,
    FamilyRun,
    VerificationReport,
    ZeroProductWitness,
    check_ball_growth,
    check_girth_bound,
    check_lemma_powers,
    check_main_theorem,
    growth_profile,
    run_family,
    scan_girth_bound,
    shortest_zero_product_oracle,
    zero_product_witness,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
