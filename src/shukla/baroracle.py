"""Brute-force ground truth: the normalized cyclic bar complex.

For a commutative algebra A, finite free over the ground ring with a
basis containing 1, the slices A (x) (A/k)^(x q) carry the Hochschild
boundary b (lowering q) and the Connes boundary B (raising q).  As a
mixed complex with every slice in weight 0 it gives HH and HC, which
agree with the model pipelines exactly when A is free over k.
"""

from dataclasses import dataclass
from itertools import product

from .errors import NotQuasiMonic
from .mixed import MixedComplex
from .linalg import SparseMatrix
from .models import quasi_monic_reduce


@dataclass
class FiniteAlgebra:
    """Structure constants of A on a free basis whose first element is 1;
    the empty basis is A = 0, where 1 = 0.

    mult[(i, j)] is the expansion of basis_i * basis_j as a dict
    {basis index: coefficient}.
    """

    ring: object
    basis: tuple
    mult: dict

    def __post_init__(self):
        r = len(self.basis)
        for i in range(r):
            for j in range(r):
                mij = self.mult[(i, j)]
                if self.mult[(j, i)] != mij:
                    raise ValueError("structure constants not commutative")
                if i == 0:
                    expected = {j: 1} if j else {0: 1}
                    if mij != expected:
                        raise ValueError("basis element 0 is not a unit")
        for i in range(r):
            for j in range(r):
                for k in range(r):
                    if self._mul3(i, j, k) != self._mul3_right(i, j, k):
                        raise ValueError("structure constants not associative")

    @property
    def rank(self):
        return len(self.basis)

    def _mul_into(self, coeffs, j):
        out = {}
        ring = self.ring
        for i, c in coeffs.items():
            for k, v in self.mult[(i, j)].items():
                w = ring.add(out.get(k, 0), ring.mul(c, v))
                if ring.is_zero(w):
                    out.pop(k, None)
                else:
                    out[k] = w
        return out

    def _mul3(self, i, j, k):
        # (i * j) * k
        return self._mul_into(self.mult[(i, j)], k)

    def _mul3_right(self, i, j, k):
        # i * (j * k), using commutativity to multiply i in from the right
        return self._mul_into(self.mult[(j, k)], i)

    def product(self, i, j):
        return self.mult[(i, j)]


def from_presentation(pres):
    """Finite free algebra on the reduced monomial basis of a quasi-monic
    presentation; raises NotQuasiMonic when no finite free basis exists.

    A presentation with a unit constant relation gives A = 0, free of
    rank 0 on every ring: its basis is empty, as 1 = 0.
    """
    if pres.is_zero_algebra:
        return FiniteAlgebra(pres.ring, (), {})
    if pres.consts:
        raise NotQuasiMonic("constant relations leave A non-free over k; "
                            "use the model pipelines instead")
    basis = tuple(pres.reduced_monomials())
    idx = {e: i for i, e in enumerate(basis)}
    ring = pres.ring
    mult = {}
    for i, e1 in enumerate(basis):
        for j, e2 in enumerate(basis):
            prod_exps = tuple(a + b for a, b in zip(e1, e2))
            reduced = quasi_monic_reduce(pres, {prod_exps: 1})
            mult[(i, j)] = {idx[e]: c for e, c in reduced.items()}
    return FiniteAlgebra(ring, basis, mult)


def cyclic_mixed(algebra, n_max):
    """The normalized cyclic mixed complex of A through tensor length
    n_max + 1; tensor length q + 1 is the slice (q, 0).  Connes' B is
    built when the complex's B is first read."""
    r = algebra.rank
    qmax = n_max + 1
    slices = {(q, 0): tuple((i0,) + rest
                            for i0 in range(r)
                            for rest in product(range(1, r), repeat=q))
              for q in range(qmax + 1)}

    def blocks(boundary, step, qs):
        # a target's label index lives only while its block is built
        out = {}
        for q in qs:
            tgt = (q + step, 0)
            index = {lab: pos for pos, lab in enumerate(slices[tgt])}
            out[((q, 0), tgt)] = boundary(algebra, q, slices[(q, 0)], index)
        return out

    return MixedComplex(algebra.ring, slices,
                        b=blocks(_hochschild_boundary, -1, range(1, qmax + 1)),
                        build_B=lambda: blocks(_connes_boundary, +1, range(qmax)),
                        window_total=qmax)


def _add_tensor(sums, row_index, col, tensor, coeff, slot, coeffs):
    """Accumulate a tensor whose given slot holds an expanded A-element."""
    for k, v in coeffs.items():
        if slot > 0 and k == 0:
            continue  # normalized: unit in an interior slot dies
        key = (row_index[tensor[:slot] + (k,) + tensor[slot + 1:]], col)
        sums[key] = sums.get(key, 0) + coeff * v


def _hochschild_boundary(algebra, q, source_labels, target_index):
    sums = {}
    for col, lab in enumerate(source_labels):
        for i in range(q):
            sign = 1 if i % 2 == 0 else -1
            prod = algebra.product(lab[i], lab[i + 1])
            tensor = lab[:i] + (0,) + lab[i + 2:]
            _add_tensor(sums, target_index, col, tensor, sign, i, prod)
        sign = 1 if q % 2 == 0 else -1
        prod = algebra.product(lab[q], lab[0])
        tensor = (0,) + lab[1:q]
        _add_tensor(sums, target_index, col, tensor, sign, 0, prod)
    return SparseMatrix.from_sums(len(target_index), len(source_labels),
                                  algebra.ring, sums)


def _connes_boundary(algebra, q, source_labels, target_index):
    sums = {}
    for col, lab in enumerate(source_labels):
        for i in range(q + 1):
            sign = 1 if (q * i) % 2 == 0 else -1
            rotated = lab[i:] + lab[:i]
            if any(x == 0 for x in rotated):
                continue  # some unit lands in an interior slot
            key = (target_index[(0,) + rotated], col)
            sums[key] = sums.get(key, 0) + sign
    return SparseMatrix.from_sums(len(target_index), len(source_labels),
                                  algebra.ring, sums)
