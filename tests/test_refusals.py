"""The API's refusals of invalid arguments, each with its exact message."""

import re

import pytest

from relgrowth import (
    Relation,
    TransitivityCertificate,
    VertexSet,
    check_ball_growth,
    check_girth_bound,
    check_main_theorem,
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
    "restriction-other-universe": (
        lambda: CYCLE3.restriction(VertexSet.of(4, [0])), "universe mismatch: 4 != 3"
    ),
    "vertex-set-member-past-n": (
        lambda: VertexSet.of(3, [3]), "vertex 3 out of range for universe size 3"
    ),
    "vertex-set-negative-member": (
        lambda: VertexSet.of(3, [-1]), "vertex -1 out of range for universe size 3"
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
    "fragments-oracle-one-vertex": (
        lambda: fragments_oracle(Relation.identity(1)), "oracle requires at least 2 vertices"
    ),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
