"""The API's refusals of invalid arguments, each with its exact message."""

import re

import pytest

from relgrowth import (
    Relation,
    TransitivityCertificate,
    VertexSet,
    cayley_relation,
    check_atom_disjointness,
    check_ball_growth,
    check_girth_bound,
    check_main_theorem,
    check_proposition_basic,
    cyclic,
    dihedral,
    fragments_oracle,
    growth_profile,
    min_separating_set,
)

UNCERTIFIED = TransitivityCertificate.none()
# a 3-cycle: regular, loopless and not reflexive
CYCLE3 = Relation.from_edges(3, [(0, 1), (1, 2), (2, 0)])
# out-degrees 1, 0, 0 and, with every loop, 2, 1, 1
PATH_ARC = Relation.from_edges(3, [(0, 1)])
NOT_REGULAR = "relation is not regular (so not point-transitive)"
# point-transitive, so the proposition check reaches its engine
CAY_Z8, _ = cayley_relation(cyclic(8), [1, 3])

REFUSALS = {
    "negative-vertex-count": (lambda: Relation(-1, ()), "vertex count must be nonnegative"),
    "short-successor-table": (
        lambda: Relation(2, (0,)), "successor table length must equal vertex count"
    ),
    "successor-bit-past-n": (
        lambda: Relation(2, (0b100, 0)), "successor of vertex 0 out of range"
    ),
    "negative-ball-radius": (
        lambda: CYCLE3.ball(0, -1), "ball radius must be nonnegative"
    ),
    "from-edges-arc-past-n": (
        lambda: Relation.from_edges(2, [(0, 5)]), "edge (0, 5) out of range for n=2"
    ),
    "image-other-universe": (
        lambda: CYCLE3.image(VertexSet(4, 0)), "universe mismatch: 4 != 3"
    ),
    "difference-other-universe": (
        lambda: VertexSet(3, 0).difference(VertexSet(4, 0)), "universe mismatch: 3 != 4"
    ),
    "compose-other-size": (
        lambda: CYCLE3.compose(Relation.identity(4)), "size mismatch: 3 != 4"
    ),
    "ball-vertex-past-n": (lambda: CYCLE3.ball(3, 1), "vertex 3 out of range for n=3"),
    "ball-negative-vertex": (lambda: CYCLE3.ball(-1, 0), "vertex -1 out of range for n=3"),
    "restriction-other-universe": (
        lambda: CYCLE3.restriction(VertexSet(4, 1)), "universe mismatch: 4 != 3"
    ),
    "restriction-empty": (
        lambda: CYCLE3.restriction(VertexSet(3, 0)), "restriction to the empty set is undefined"
    ),
    "growth-profile-at-n": (
        lambda: growth_profile(CYCLE3.reflexive_closure(), 3), "vertex 3 out of range for n=3"
    ),
    "main-not-regular": (
        lambda: check_main_theorem(PATH_ARC.reflexive_closure(), UNCERTIFIED), NOT_REGULAR
    ),
    "growth-not-regular": (
        lambda: check_ball_growth(PATH_ARC.reflexive_closure(), UNCERTIFIED), NOT_REGULAR
    ),
    "girth-not-regular": (lambda: check_girth_bound(PATH_ARC, UNCERTIFIED), NOT_REGULAR),
    "main-not-reflexive": (
        lambda: check_main_theorem(CYCLE3, UNCERTIFIED),
        "the sphere bound assumes a reflexive relation",
    ),
    "growth-not-reflexive": (
        lambda: check_ball_growth(CYCLE3, UNCERTIFIED),
        "the ball growth bound assumes a reflexive relation",
    ),
    "dihedral-zero": (lambda: dihedral(0), "dihedral parameter must be positive"),
    "separating-set-target-past-n": (
        lambda: min_separating_set(CYCLE3, 0, 3), "vertex 3 out of range for n=3"
    ),
    "separating-set-negative-source": (
        lambda: min_separating_set(CYCLE3, -1, 0), "vertex -1 out of range for n=3"
    ),
    "atom-disjointness-unknown-engine": (
        lambda: check_atom_disjointness(CAY_Z8, engine="orcale"), "unknown engine: orcale"
    ),
    "proposition-unknown-engine": (
        lambda: check_proposition_basic(CAY_Z8, engine="orcale"), "unknown engine: orcale"
    ),
    "fragments-oracle-one-vertex": (
        lambda: fragments_oracle(Relation.identity(1)), "oracle requires at least 2 vertices"
    ),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
