"""The verification harness end to end.

run_family enumerates every instance of a built-in family, runs the
selected checks, and reports a summary.  A failed check on a certified
vertex-transitive instance is a bug by definition; the same failure on
an uncertified instance is only a caveat.  The sphere bound r - 1 is
exact: instances such as the plain reflexive cycle meet it with
equality, so no larger constant holds.

Run with:  python3 demos/04_verification_harness.py
"""

from relgrowth import run_family

# All circulants Cay(Z_n, S) for n up to 10, every nonempty generator
# subset, with every check enabled.
run = run_family("circulants", max_n=10)
print(f"family: {run.family} {run.params}")
for key, value in run.summary.items():
    print(f"  {key}: {value}")
assert run.ok
print()

# Every sphere record holds, and some meet r - 1 with equality: a bound
# of r would fail on each of those, so r - 1 is the exact constant.
exact = run_family("circulants", max_n=8, checks=("main",))
tight = sum(c.tight for r in exact.reports for c in r.checks)
print(f"sphere bound r - 1: failures = {exact.summary['failures']}")
print(f"sphere records meeting r - 1 with equality: {tight}")
assert exact.summary["failures"] == 0
assert tight > 0
print()

# Other families work the same way; dihedral groups are not abelian,
# so products here genuinely depend on the order of the factors.
run = run_family("cayley_dihedral", max_m=4, checks=("main", "zerosum"))
print(f"family: {run.family} {run.params}")
print(f"  instances: {run.summary['instances']}, bugs: {run.summary['bugs']}")
assert run.ok
