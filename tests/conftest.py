import random

import pytest
from hypothesis import strategies as st

from relgrowth import Relation, cayley_relation, cyclic
from relgrowth.theorems import subsets_of


def random_relation(rng: random.Random, n: int, p: float) -> Relation:
    edges = [(u, v) for u in range(n) for v in range(n) if rng.random() < p]
    return Relation.from_edges(n, edges)


def oracle_corpus():
    """The flow/oracle corpus: every Cay(Z_n, S) with 2 <= n <= 10, then
    1000 seeded random relations (loops allowed) on 2..10 vertices."""
    for n in range(2, 11):
        for gens in subsets_of(range(1, n)):
            yield cayley_relation(cyclic(n), gens)[0]
    rng = random.Random(20260823)
    for i in range(1000):
        p = (0.2, 0.4, 0.6)[i % 3]
        yield random_relation(rng, rng.randrange(2, 11), p)


# regular, strongly connected relations that are not point-transitive and
# whose reflexive closure breaks the sphere bound inside the hypothesis
# window: transitivity is needed, regularity is not enough.  On this one
# (in- and out-degree 2, r = 3 once closed) the balls around vertex 0 are
# 1, 3, 4, so the 2-sphere has 1 element against r - 1 = 2.
SHARPNESS_CORPUS = [
    Relation.from_edges(6, [(0, 3), (0, 5), (1, 0), (1, 4), (2, 1), (2, 4),
                            (3, 2), (3, 5), (4, 0), (4, 1), (5, 2), (5, 3)]),
]


@st.composite
def relations(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    succ = tuple(
        draw(st.integers(min_value=0, max_value=(1 << n) - 1)) for _ in range(n)
    )
    return Relation(n, succ)


@pytest.fixture
def cycle5():
    return Relation.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
