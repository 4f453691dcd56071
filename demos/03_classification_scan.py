"""The structural classification at desk scale.

Non-Lie instances of dimension >= 4 land in one of two cases: a
codimension-1 Lie subalgebra, or a codimension-2 radical that is almost
abelian with its abelian part acting nilpotently.  Either way an abelian
subalgebra of codimension <= 3 is attached.  The codimension-1 search is
exact over every field (the law puts the radical of the form inside any
Lie hyperplane), so the verdicts are definitive.
"""

from olie import GF
from olie import catalog
from olie.structure import classify

field = GF(5)
cases = {}
no_abelian_ideal = []
for seed in range(40):
    alg = catalog.random_extension_chain(field, seed, 5)
    if isinstance(alg, catalog.Stuck):
        continue
    verdict = classify(alg)
    cases[verdict.case] = cases.get(verdict.case, 0) + 1
    if alg.is_lie():
        continue
    witness = verdict.abelian_small_codim
    assert witness is not None and witness.codim <= 3
    assert alg.restrict(witness).is_abelian()
    # simple instances do not occur in dimension 5, but abelian ideals
    # can genuinely be absent; solvable ideals always showed up instead
    assert alg.simplicity().kind != "simple"
    if alg.find_abelian_ideal() is None:
        no_abelian_ideal.append(seed)

print("verdicts over 40 seeds:", cases)
print("seeds with no abelian ideal at all:", no_abelian_ideal)

# one instance in detail
alg = catalog.random_extension_chain(field, 0, 5)
verdict = classify(alg)
print("\nseed 0, dim 5:")
print("  case:", verdict.case)
print("  kernel type:", verdict.kernel_type, "| nilpotent action:", verdict.nilpotent_action)
print("  abelian witness (codim", verdict.abelian_small_codim.codim, "):")
for row in verdict.abelian_small_codim.rows:
    print("   ", [field.format(x) for x in row])
