"""Connectivity, fragments and atoms.

The connectivity kappa of a relation is the smallest boundary
|image(X) \\ X| over the feasible vertex sets X (nonempty, and X together
with its image does not cover everything).  A fragment attaining the
minimum with the fewest vertices is an atom.  Two independent engines
compute these:

  * a unit-capacity max-flow routine with vertex splitting, and
  * a brute-force oracle that scans every subset with numpy.

Run with:  python3 demos/02_connectivity_and_atoms.py
"""

from relgrowth import (
    Relation,
    atoms_oracle,
    cayley_relation,
    check_atom_disjointness,
    cyclic,
    kappa,
)


def describe(rel, label):
    result = kappa(rel)
    print(f"{label}: kappa = {result.kappa}")
    for atom in result.atoms:
        print(
            f"  atom {list(atom.set.members())}"
            f"  boundary {list(atom.boundary.members())}"
        )
    return result


# On a reflexive cycle removing any single successor disconnects the
# rest, so kappa = 1 and every vertex is its own atom.
cycle = Relation.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
describe(cycle.reflexive_closure(), "reflexive 6-cycle")
print()

# Doubling the generators doubles the connectivity; the identity 0 in
# the subset gives every vertex its loop, as on the cycle above.
rel, _ = cayley_relation(cyclic(8), [0, 1, 2])
describe(rel, "Cay(Z8, {1,2}) + loops")
print()

# The two engines must agree exactly, atoms included.
value, atoms = atoms_oracle(rel)
flow = kappa(rel)
assert flow.kappa == value
assert {a.set.bits for a in flow.atoms} == {a.set.bits for a in atoms}
print(f"flow and oracle agree: kappa = {value}, {len(atoms)} atoms")
print()

# For a vertex-transitive relation distinct atoms never overlap, in
# either direction of the arrows.
report = check_atom_disjointness(rel)
print(
    "atom disjointness: forward",
    report.forward_disjoint,
    "reverse",
    report.reverse_disjoint,
)
