"""Tour of the finite side: building models, deriving residuals, checking laws.

Run as: python demos/finite_models.py
"""

import reslat as R
from reslat import models

# A residuated lattice needs only an order, a monoid table, and a unit;
# both divisions are then forced.  The three-element Goedel chain:
g3 = models.godel3()
print("Goedel-3 multiplication:", g3.mul_table)
print("Goedel-3 left division: ", g3.ldiv_table)
print("axiom defects:", R.validate_axioms(g3) or "none")

# Equations are checked exhaustively, and a failing law comes with the
# lexicographically first counterexample.
h5 = models.heyting5()
verdict = R.check_named_property(h5, "LPL")
print("\nprelinearity on the 5-element Heyting lattice:", verdict.holds)
print("witness:", verdict.witness)

# Arbitrary equations in the signature parse from plain text.
eq = R.parse_equation("(x\\y ^ e) v (y\\x ^ e) = e")
print("same law, written out:", R.check_equation(eq, h5).holds)

# The negative cone of a non-integral model is itself a residuated lattice.
s3 = models.sugihara3()
cone = R.negative_cone(s3)
print("\nSugihara-3 negative cone size:", cone.n)

# Convex closures are computed two ways (the up-set of one idempotent and a
# fixpoint closure) that always agree; the convex subuniverses are the
# up-sets of the idempotents at or below e.
fam = R.all_convex_subuniverses(g3)
print("convex subuniverses of Goedel-3:", sorted(sorted(m) for m in fam))

# Enumeration: the only integral residuated 3-chains with the unit on top
# are the Goedel and Lukasiewicz chains.
chains = [s for s in R.enumerate_chain_models(3, constraints=("integral",))
          if s.unit == 2]
print("\nintegral 3-chains with unit on top:", len(chains))
for s in chains:
    print("  ", s.mul_table)
