"""Identities, cohomology and deformation directions.

The identity engine checks multilinear laws on all basis tuples
(increasing tuples suffice for alternating ones).  The minimal-degree
story: the degree-5 alternating identity holds on every certified
instance, while each lower-degree candidate has a concrete
counterexample.
"""

from olie import (
    GF,
    builtin,
    evaluate,
    find_counterexample,
    h2_dimension,
    holds,
    infinitesimal_deformations,
    parse_identity,
)
from olie import catalog

s4 = catalog.builtin_algebra("omega.s4")
n3 = catalog.builtin_algebra("omega.n3")
sl2 = catalog.builtin_algebra("lie.sl2")

print("degree5 holds on the 4-dim table:", holds(s4, builtin("degree5")))
print("two-basic holds on the 4-dim table:", holds(s4, builtin("two-basic")))

# lower-degree candidates all fail somewhere (1-based tuples)
for name, alg in (("engel", sl2), ("bin-consequence", n3), ("four-consequence", s4)):
    ce = find_counterexample(alg, builtin(name))
    print(f"{name} fails on {alg!r} at", tuple(i + 1 for i in ce))

# direct evaluation of a non-multilinear term for display
print("[[e,h],h],h] =", evaluate(sl2, builtin("engel").direct, (2, 0)))

# ad-hoc identities from s-expressions
ident = parse_identity("(- (b (b x1 x2) x3) (b x1 (b x2 x3)))")
print("bracket is not associative on sl2:",
      find_counterexample(sl2, ident) is not None)

# second cohomology of the 1-dimensional module given by the covector
print("h2 of the 3-dim instance:", h2_dimension(n3, [2, 0, 0]))

# which Lie algebras deform towards a nonzero form at first order?
space = infinitesimal_deformations(sl2)
print("sl2 deformation directions:", len(space.basis),
      "| form part:", space.omega1_projection_dim)
abelian = catalog.AnticommAlgebra(GF(5), 3)
space = infinitesimal_deformations(abelian)
print("abelian deformation directions:", len(space.basis),
      "| form part:", space.omega1_projection_dim)
