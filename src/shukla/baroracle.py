"""Brute-force ground truth: the normalized cyclic bar complex.

For a commutative algebra A, finite free over the ground ring with a
basis containing 1, the slices A (x) (A/k)^(x q) carry the Hochschild
boundary b (lowering q) and the Connes boundary B (raising q).  As a
mixed complex with every slice in weight 0 it gives HH and HC, which
agree with the model pipelines exactly when A is free over k.

Label codes.  With r = rank A and s = r - 1, the slice (q, 0) lists the
labels (a0, a1, ..., aq), a0 < r and 1 <= at < r, in lexicographic
order, so the label sits at position a0 s^q + sum (at - 1) s^(q - t): a
base-s number with a leading digit a0.  b and B find every row and
column by arithmetic on these codes; no label tuple is built or looked
up while they are assembled.
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
        return {((q, 0), (q + step, 0)): boundary(algebra, q) for q in qs}

    return MixedComplex(algebra.ring, slices,
                        b=blocks(_hochschild_boundary, -1, range(1, qmax + 1)),
                        build_B=lambda: blocks(_connes_boundary, +1, range(qmax)),
                        window_total=qmax)


def _add_run(sums, ids, row, row_step, col, col_step, length, v):
    """Add v at (row + S * row_step, col + S * col_step) for S in
    range(length), each key built from the shared ints ids."""
    get = sums.get
    for key in zip(ids[row:row + length * row_step:row_step],
                   ids[col:col + length * col_step:col_step]):
        sums[key] = get(key, 0) + v


def _hochschild_boundary(algebra, q):
    """b from slice (q, 0) to (q - 1, 0), face by face over label codes.

    With s = r - 1, face i of a label with prefix code P (Pn values) and
    suffix code S (L = s^len(suffix) values) sends the letters a, b
    between them to the letter k.  For fixed a, b, k the source and
    target codes are affine in P and in S, so each face runs over the
    longer of the two at fixed steps.  The last face moves a_q a_0 into
    slot 0; there the middle letters run in step, at stride s in the
    source.
    """
    r = algebra.rank
    s = r - 1
    rows, cols = r * s ** (q - 1), r * s ** q
    if r <= 1:
        return SparseMatrix(rows, cols, algebra.ring)
    mult = algebra.mult
    ids = list(range(cols))
    sums = {}
    letters = range(1, r)
    L = s ** (q - 1)  # face 0: (a, b, suffix) -> (k, suffix), k = 0 kept
    for a in range(r):
        for b in letters:
            col = (a * s + b - 1) * L
            for k, v in mult[(a, b)].items():
                _add_run(sums, ids, k * L, 1, col, 1, L, v)
    for i in range(1, q):
        L, Pn = s ** (q - i - 1), r * s ** (i - 1)
        for a in letters:
            for b in letters:
                col = ((a - 1) * s + b - 1) * L
                for k, v in mult[(a, b)].items():
                    if not k:
                        continue  # normalized: unit in an interior slot dies
                    row, w = (k - 1) * L, -v if i % 2 else v
                    if L >= Pn:
                        for P in range(Pn):
                            _add_run(sums, ids, row + P * s * L, 1,
                                     col + P * s * s * L, 1, L, w)
                    else:
                        for S in range(L):
                            _add_run(sums, ids, row + S, s * L,
                                     col + S, s * s * L, Pn, w)
    M = s ** (q - 1)  # last face: (a0, middle, z) -> (k, middle)
    for a0 in range(r):
        for z in letters:
            for k, v in mult[(z, a0)].items():
                _add_run(sums, ids, k * M, 1, a0 * M * s + z - 1, s, M,
                         -v if q % 2 else v)
    return SparseMatrix.from_sums(rows, cols, algebra.ring, sums)


def _connes_boundary(algebra, q):
    """B from slice (q, 0) to (q + 1, 0) over label codes, column by
    column.

    A label with a0 = 0 rotates a unit into an interior slot and dies.
    Otherwise its letters less one are the base-s digits of D, at column
    D + s^q, and rotation i is D's digits rotated, 0 prepended.
    """
    r = algebra.rank
    s = r - 1
    rows, cols = r * s ** (q + 1), r * s ** q
    if r <= 1:
        return SparseMatrix(rows, cols, algebra.ring)
    ids = list(range(rows))
    sums = {}
    get = sums.get
    rotations = [(s ** (q + 1 - i), s ** i, -1 if q * i % 2 else 1)
                 for i in range(q + 1)]
    base = s ** q
    for D in range(s ** (q + 1)):
        col = ids[D + base]
        for high, low, sign in rotations:
            key = (ids[D % high * low + D // high], col)
            sums[key] = get(key, 0) + sign
    return SparseMatrix.from_sums(rows, cols, algebra.ring, sums)
