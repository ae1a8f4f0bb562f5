"""A model of the ground ring with generators above degree 2, for tests.

The start y, z of the model of k (as in `gammaforms._witness_start`)
with three generators adjoined by hand, each killing the lowest
homology class left over Z:

- w1 in degree 4, polynomial, boundary yz (H_3 of the start is Z/2);
- w2 in degree 5, exterior, boundary 2 w1 - z^2;
- w3 in degree 6, polynomial, boundary y z^2.

Over Z its homology is Z in degree 0 and 0 in degrees 1..5, and so
over every ring by universal coefficients, since H_0 = Z is free.
"""

from shukla.dpalgebra import EXTERIOR, POLYNOMIAL, GammaDerivation, Generator, GradedAlgebra
from shukla.models import FreeDGA

GENERATORS = (
    (Generator("y", 1, EXTERIOR), {}),
    (Generator("z", 2, POLYNOMIAL), {(("y", 1),): 1}),
    (Generator("w1", 4, POLYNOMIAL), {(("y", 1), ("z", 1)): 1}),
    (Generator("w2", 5, EXTERIOR), {(("w1", 1),): 2, (("z", 2),): -1}),
    (Generator("w3", 6, POLYNOMIAL), {(("y", 1), ("z", 2)): 1}),
)


def witness_top6(ring, count=len(GENERATORS)):
    """The model over ring on the first count generators: y, z, w1, w2,
    w3 in that order, each boundary written in the ones before it."""
    gens = GENERATORS[:count]
    alg = GradedAlgebra(ring, [g for g, _ in gens])
    return FreeDGA(alg, GammaDerivation(alg, -1, {
        g.name: alg.element(value) for g, value in gens}))
