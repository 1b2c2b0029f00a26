"""Balls and spheres in a finite relation.

A relation on n points is a directed graph that may have loops.  From a
base vertex v the j-ball is everything reachable in at most j steps, and
the j-sphere is the fresh layer the j-th step adds.  For a reflexive
relation whose out-degree is a constant r, every sphere inside the
hypothesis window has at least r - 1 vertices, so balls grow linearly
until the window closes.

Run with:  python3 demos/01_balls_and_spheres.py
"""

from relgrowth import Relation, cayley_relation, cyclic, growth_profile


def show_growth(rel, v, label):
    profile = growth_profile(rel, v)
    r = rel.regular_degree()
    print(f"{label}: n={rel.n}, r={r}, window max_j={profile.max_j}")
    print("  j  |ball|  |sphere|  bound r-1")
    previous = 1
    for j, ball in enumerate(profile.balls):
        size = ball.bit_count()
        marker = "-" if j == 0 else str(r - 1)
        print(f"  {j}  {size:5d}  {size - previous:8d}  {marker:>9}")
        previous = size
    print()


# A reflexive directed cycle is the simplest example: r = 2, so each
# sphere must contain at least one vertex, and in fact contains exactly
# one.  The bound is tight at every step.
cycle = Relation.from_edges(9, [(i, (i + 1) % 9) for i in range(9)])
show_growth(cycle.reflexive_closure(), 0, "reflexive 9-cycle")

# A circulant with two generators has r = 3 once the identity 0 joins
# them, which gives every vertex its loop: Cay(Z12, {0, 1, 2}) is the
# reflexive closure.  Its spheres have exactly two new vertices per step
# while the window stays open.
rel, _ = cayley_relation(cyclic(12), [0, 1, 2])
show_growth(rel, 0, "Cay(Z12, {1,2}) + loops")

# With generators spread further apart the spheres can be strictly
# larger than the bound for a while.
rel, _ = cayley_relation(cyclic(17), [0, 1, 5])
show_growth(rel, 0, "Cay(Z17, {1,5}) + loops")
