"""Exact scalar arithmetic and integer matrix kernels.

Everything here is exact: integers, integers mod m, or rationals.  A
`SparseMatrix` stores one {row: value} dict per column, the layout that
every consumer reads: products, square-zero checks and the integer lift
all work column by column.  The work is integer elimination, and the
ground ring k is decided in these places only:

- `_int_columns` is the lift of a matrix over k to integer columns.  Q
  entries are scaled to integers; over Z and Z/m a column that loses no
  row is the matrix's own dict, shared, so every consumer reads the
  columns or copies one first.  Over Z/m one relation column m*e_i per
  row follows the matrix's own columns, so a lifted d_in carries the
  middle relations and a lifted d_out the target relations.
- `_tensor` returns an integer group (x) k: the group itself over Z and
  Z/m (over Z/m the lattices already hold every m*e_i), its free part
  over Q.  `subquotient` and `homology_at` report through it.
- `universal_coefficients` turns the groups of a free complex over Z
  into those of its reduction mod m: the CLI builds every Z/m
  presentation over Z (`cli._lifted`), so no Z/m input is unliftable.
  `kunneth` combines the groups of two free complexes over Z into those
  of their tensor product, before that map.
- `preimage` asks `is_unit` and `inv` of the ring about one integer g,
  the gcd of the last coordinates of the kernel of [M | b].
- `chain_homology` sweeps every free complex over Z, a Z/m chain
  handed to it directly as its lifted mod-m cone (`_mod_cone`);
  `homology_at` sweeps a Z/m pair as a three-term chain.  Presented
  modules and generators stay presented.
- Two callers outside this module lean on the relation columns that
  `_int_columns` appends over Z/m, each through
  `homology_from_presentation`: `mixed._column_graded_pieces` takes
  those past the matrix's own columns as the target relations, and
  `crystalline.FilteredComplex.homology` adds its own relation vectors
  after them.

Every other module hands integer columns and the ring to these.
"""

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CompositionNonzero


def xgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) = x*a + y*b and g >= 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


class GroundRing:
    """The coefficient ring: Z, Z/m (m >= 2) or Q.

    Elements are plain ints: over Z/m normalized to 0..m-1, over Q
    kept an int whenever integral and a Fraction only otherwise.  0 and
    1 are therefore the same in every ring.  No floating point anywhere.
    """

    __slots__ = ("kind", "modulus")

    def __init__(self, kind, modulus=None):
        if kind not in ("Z", "Q", "Zmod"):
            raise ValueError(f"unknown ring kind {kind!r}")
        if kind == "Zmod":
            if not isinstance(modulus, int) or modulus < 2:
                raise ValueError("modulus must be an integer >= 2")
        elif modulus is not None:
            raise ValueError("modulus only makes sense for Z/m")
        self.kind = kind
        self.modulus = modulus

    @staticmethod
    def Z():
        return GroundRing("Z")

    @staticmethod
    def Q():
        return GroundRing("Q")

    @staticmethod
    def Zmod(m):
        return GroundRing("Zmod", m)

    def normalize(self, x):
        if self.kind == "Q":
            if isinstance(x, Fraction) and x.denominator == 1:
                return x.numerator
            return x
        if self.kind == "Zmod":
            return x % self.modulus
        return x

    def add(self, a, b):
        return self.normalize(a + b)

    def mul(self, a, b):
        return self.normalize(a * b)

    def neg(self, a):
        return self.normalize(-a)

    def is_zero(self, a):
        return self.normalize(a) == 0

    def is_unit(self, a):
        a = self.normalize(a)
        if self.kind == "Q":
            return a != 0
        if self.kind == "Z":
            return a in (1, -1)
        return xgcd(a, self.modulus)[0] == 1

    def inv(self, a):
        a = self.normalize(a)
        if self.kind == "Q":
            if a == 0:
                raise ZeroDivisionError("0 is not invertible")
            return self.normalize(Fraction(1, a))
        if self.kind == "Z":
            if a not in (1, -1):
                raise ZeroDivisionError(f"{a} is not a unit in Z")
            return a
        g, x, _ = xgcd(a, self.modulus)
        if g != 1:
            raise ZeroDivisionError(f"{a} is not a unit mod {self.modulus}")
        return x % self.modulus

    def __eq__(self, other):
        return (isinstance(other, GroundRing)
                and self.kind == other.kind and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.kind, self.modulus))

    def __repr__(self):
        if self.kind == "Zmod":
            return f"Z/{self.modulus}"
        return self.kind


class SparseMatrix:
    """Sparse exact matrix stored by column: columns[j] maps row -> nonzero
    scalar, the compressed-column layout of sparse direct solvers (Davis,
    *Direct Methods for Sparse Linear Systems*, 2006, ch. 2).  Products,
    square-zero checks and the integer lift all read it column by column.
    """

    __slots__ = ("rows", "cols", "ring", "columns")

    def __init__(self, rows, cols, ring, entries=None):
        self.rows = rows
        self.cols = cols
        self.ring = ring
        self.columns = [{} for _ in range(cols)]
        if entries:
            for (i, j), v in entries.items():
                self[i, j] = v

    @property
    def entries(self):
        """(row, col) -> value, column by column; built on each read, in
        O(nnz), so no hot path reads it."""
        return {(i, j): v for j, col in enumerate(self.columns) for i, v in col.items()}

    def __getitem__(self, key):
        i, j = key
        return self.columns[j].get(i, 0)

    def __setitem__(self, key, value):
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry {key} outside {self.rows}x{self.cols}")
        value = self.ring.normalize(value)
        if value == 0:
            self.columns[j].pop(i, None)
        else:
            self.columns[j][i] = value

    @staticmethod
    def from_sums(rows, cols, ring, sums):
        """The matrix whose (i, j) entry is sums[i, j] over the ring.

        Each value is normalized once and only nonzero ones are kept.  The
        caller builds every key in range, so the entries are written
        without the per-entry check of __setitem__.
        """
        m = SparseMatrix(rows, cols, ring)
        columns = m.columns
        normalize = ring.normalize
        for (i, j), v in sums.items():
            v = normalize(v)
            if v:
                columns[j][i] = v
        return m

    @staticmethod
    def identity(n, ring):
        m = SparseMatrix(n, n, ring)
        for i in range(n):
            m[i, i] = 1
        return m

    @staticmethod
    def from_rows(rows, ring):
        nr = len(rows)
        nc = len(rows[0]) if rows else 0
        m = SparseMatrix(nr, nc, ring)
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                m[i, j] = v
        return m

    def to_rows(self):
        out = [[0] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, v in col.items():
                out[i][j] = v
        return out

    def __mul__(self, other):
        """The product, one column of other at a time: column k sums
        other[j, k] times column j of self."""
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        m = SparseMatrix(self.rows, other.cols, self.ring)
        normalize = self.ring.normalize
        left = self.columns
        for k, col in enumerate(other.columns):
            acc = {}
            for j, w in col.items():
                for i, v in left[j].items():
                    acc[i] = acc.get(i, 0) + v * w
            out = m.columns[k]
            for i, v in acc.items():
                v = normalize(v)
                if v:
                    out[i] = v
        return m

    def is_zero(self):
        return not any(self.columns)

    def apply(self, vec):
        """Matrix times a dense coordinate list."""
        out = [0] * self.rows
        for j, col in enumerate(self.columns):
            if vec[j]:
                for i, v in col.items():
                    out[i] = self.ring.add(out[i], v * vec[j])
        return out

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.columns == other.columns)

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={sum(map(len, self.columns))})"


def composite_is_zero(legs, ring):
    """Whether the sum of second * first over the (first, second) pairs in
    legs is zero over the ring.  Every leg maps one source to one target.

    No product matrix is formed: column k of every leg, second[:, j]
    times first[j, k], is added into one row -> value dict, and each
    finished column is tested, the first nonzero entry ending the check.
    """
    rows, cols = legs[0][1].rows, legs[0][0].cols
    for first, second in legs:
        if second.cols != first.rows or (second.rows, first.cols) != (rows, cols):
            raise ValueError("shape mismatch")
    normalize = ring.normalize
    acc = {}
    for k in range(cols):
        for first, second in legs:
            left = second.columns
            for j, w in first.columns[k].items():
                for i, v in left[j].items():
                    acc[i] = acc.get(i, 0) + v * w
        if any(acc.values()) and any(map(normalize, acc.values())):
            return False
        acc.clear()
    return True


def _normalize_torsion(factors):
    """Collapse a multiset of torsion orders into an invariant-factor chain.

    Each order a is inserted from the top of the chain d1 | d2 | ... | dk
    by Z/d + Z/a = Z/lcm(d, a) + Z/gcd(d, a), passing the gcd down; the
    chain stays a divisibility chain and no integer is ever factored.
    """
    chain = []   # largest first
    for a in factors:
        a = abs(int(a))
        if a in (0, 1):
            continue
        for i, d in enumerate(chain):
            g = math.gcd(d, a)
            chain[i] = d // g * a
            a = g
            if a == 1:
                break
        else:
            chain.append(a)
    chain.reverse()
    return tuple(chain)


@dataclass(frozen=True)
class HomologyGroup:
    """A finitely generated k-module: free rank plus torsion chain d1 | d2 | ..."""

    free_rank: int
    invariant_factors: tuple = ()

    @staticmethod
    def from_factors(free_rank, factors):
        return HomologyGroup(free_rank, _normalize_torsion(factors))

    def direct_sum(self, *others):
        rank = self.free_rank
        factors = list(self.invariant_factors)
        for g in others:
            rank += g.free_rank
            factors.extend(g.invariant_factors)
        return HomologyGroup.from_factors(rank, factors)

    @property
    def torsion_order(self):
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    def is_trivial(self):
        return self.free_rank == 0 and not self.invariant_factors

    def to_json(self):
        return {"free_rank": self.free_rank,
                "torsion": list(self.invariant_factors)}

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"C{d}" for d in self.invariant_factors]
        return " x ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Dense Smith normal form (arbitrary precision, smallest-pivot strategy).
# ---------------------------------------------------------------------------

def _row_op(mat, i, k, q, start=0):
    ri, rk = mat[i], mat[k]
    for j in range(start, len(ri)):
        ri[j] -= q * rk[j]


def _col_op(mat, j, k, q, start=0):
    for row in mat[start:]:
        row[j] -= q * row[k]


def dense_snf(a, want_u=False, want_v=False):
    """Smith normal form of an integer matrix given as list of lists.

    Returns (U, S, V) where S = U*A*V is diagonal with d1 | d2 | ...,
    di >= 0, and U, V are unimodular.  A transform not requested comes
    back as None.
    """
    a = [list(map(int, row)) for row in a]
    m = len(a)
    n = len(a[0]) if m else 0
    u = [[int(i == j) for j in range(m)] for i in range(m)] if want_u else None
    v = [[int(i == j) for j in range(n)] for i in range(n)] if want_v else None

    def swap_rows(i, k):
        a[i], a[k] = a[k], a[i]
        if u is not None:
            u[i], u[k] = u[k], u[i]

    def swap_cols(j, k):
        for row in a:
            row[j], row[k] = row[k], row[j]
        if v is not None:
            for row in v:
                row[j], row[k] = row[k], row[j]

    def row_sub(i, k, q):
        # row_i -= q * row_k
        _row_op(a, i, k, q)
        if u is not None:
            _row_op(u, i, k, q)

    def col_sub(j, k, q):
        # col_j -= q * col_k
        _col_op(a, j, k, q)
        if v is not None:
            _col_op(v, j, k, q)

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        if u is not None:
            u[i] = [-x for x in u[i]]

    for k in range(min(m, n)):
        while True:
            # smallest nonzero |entry| in the trailing block
            best = None
            for i in range(k, m):
                row = a[i]
                for j in range(k, n):
                    x = row[j]
                    if x and (best is None or abs(x) < best[0]):
                        best = (abs(x), i, j)
                        if best[0] == 1:
                            break
                if best and best[0] == 1:
                    break
            if best is None:
                break
            _, bi, bj = best
            if bi != k:
                swap_rows(k, bi)
            if bj != k:
                swap_cols(k, bj)
            piv = a[k][k]
            clean = True
            for i in range(k + 1, m):
                if a[i][k]:
                    q = a[i][k] // piv
                    if q:
                        row_sub(i, k, q)
                    if a[i][k]:
                        clean = False
            for j in range(k + 1, n):
                if a[k][j]:
                    q = a[k][j] // piv
                    if q:
                        col_sub(j, k, q)
                    if a[k][j]:
                        clean = False
            if not clean:
                continue
            # pivot must divide every remaining entry
            pull = None
            for i in range(k + 1, m):
                row = a[i]
                for j in range(k + 1, n):
                    if row[j] % piv:
                        pull = i
                        break
                if pull is not None:
                    break
            if pull is None:
                break
            row_sub(k, pull, -1)  # row_k += row_pull
        if a[k][k] < 0:
            negate_row(k)
        if a[k][k] == 0:
            break
    return u, a, v


def snf(matrix):
    """Smith normal form of an integer SparseMatrix: S = U * M * V.

    U and V are invertible over Z; S is diagonal with d1 | d2 | ...,
    all di >= 0.  Total function.
    """
    ring = matrix.ring
    if ring.kind != "Z":
        raise ValueError("snf is defined over Z")
    u, s, v = dense_snf(matrix.to_rows(), want_u=True, want_v=True)
    return (SparseMatrix.from_rows(u, ring),
            SparseMatrix.from_rows(s, ring),
            SparseMatrix.from_rows(v, ring))


def det(matrix_rows):
    """Determinant of a small integer matrix (Bareiss, exact)."""
    a = [list(map(int, row)) for row in matrix_rows]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


# ---------------------------------------------------------------------------
# Sparse integer column echelon: kernels, lattice bases, membership.
# ---------------------------------------------------------------------------

def _combine_columns(ca, cb, r):
    """Column ops making cb[r] = 0; may replace both.  Returns (ca, cb)."""
    a = ca.get(r, 0)
    b = cb.get(r, 0)
    if b == 0:
        return ca, cb
    if a and b % a == 0:
        q = b // a
        for row, val in ca.items():
            nv = cb.get(row, 0) - q * val
            if nv:
                cb[row] = nv
            else:
                cb.pop(row, None)
        return ca, cb
    g, x, y = xgcd(a, b)
    ag, bg = a // g, b // g
    rows = set(ca) | set(cb)
    na, nb = {}, {}
    for row in rows:
        va = ca.get(row, 0)
        vb = cb.get(row, 0)
        w1 = x * va + y * vb
        w2 = -bg * va + ag * vb
        if w1:
            na[row] = w1
        if w2:
            nb[row] = w2
    return na, nb


class ColumnEchelon:
    """Incremental integer column echelon form.

    Columns are dicts row -> int.  Pivot rows are chosen as the minimal
    nonzero row below `limit`; rows >= limit ride along as witnesses.
    All operations are unimodular on the column space, so the zero
    columns' witness parts form a basis of the combination lattice.
    """

    def __init__(self, limit):
        self.limit = limit
        self.pivots = {}        # pivot row -> column dict
        self.null_witnesses = []

    def add(self, col):
        col = dict(col)
        while True:
            work = [r for r in col if r < self.limit]
            if not work:
                if col:
                    self.null_witnesses.append(col)
                return
            r = min(work)
            piv = self.pivots.get(r)
            if piv is None:
                if col[r] < 0:
                    col = {k: -v for k, v in col.items()}
                self.pivots[r] = col
                return
            npiv, col = _combine_columns(piv, col, r)
            self.pivots[r] = npiv

    def reduce(self, col):
        """Reduce col against the pivots; returns (coords, remainder).

        coords maps pivot row -> integer quotient used.  Exact division
        failures leave a nonzero remainder at that row.

        Only pivot rows where col is nonzero are visited, in increasing
        order from a heap: a pivot column has no entry above its pivot
        row, so each step adds entries only below the row it clears.
        """
        col = dict(col)
        coords = {}
        pivots = self.pivots
        heap = [r for r in col if r in pivots]
        heapq.heapify(heap)
        seen = set(heap)
        while heap:
            r = heapq.heappop(heap)
            b = col.get(r, 0)
            if not b:
                continue
            piv = pivots[r]
            a = piv[r]
            if b % a:
                break
            q = b // a
            coords[r] = q
            for row, val in piv.items():
                nv = col.get(row, 0) - q * val
                if nv:
                    col[row] = nv
                    if row not in seen and row in pivots:
                        seen.add(row)
                        heapq.heappush(heap, row)
                else:
                    col.pop(row, None)
        return coords, col


def _int_columns(matrix, drop=()):
    """The lift of a SparseMatrix over the ring to integer column dicts.

    Q entries are scaled by their common denominator.  Over Z/m one
    relation column m*e_i per row follows the matrix's own columns.
    Entries in the rows of the set `drop` are left out.  A column that
    needs no scaling and holds no row of drop is the matrix's own dict,
    not a copy: every consumer reads the columns, or copies one before
    it changes it.
    """
    ring = matrix.ring
    scale = 1
    if ring.kind == "Q":
        scale = math.lcm(*{v.denominator for col in matrix.columns for v in col.values()})
    cols = []
    for col in matrix.columns:
        if scale != 1:
            col = {i: int(v * scale) for i, v in col.items() if i not in drop}
        elif drop and not drop.isdisjoint(col):
            col = {i: v for i, v in col.items() if i not in drop}
        cols.append(col)
    if ring.kind == "Zmod":
        cols += [{i: ring.modulus} for i in range(matrix.rows)]
    return cols


def kernel_basis(columns, nrows):
    """Basis of the integer kernel lattice of the matrix with given columns.

    `columns` is a list of dicts row -> int.  Returns sparse vectors
    x = {column: int} with M x = 0.
    """
    ech = ColumnEchelon(nrows)
    for j, col in enumerate(columns):
        aug = dict(col)
        aug[nrows + j] = 1
        ech.add(aug)
    return [{row - nrows: val for row, val in wit.items()}
            for wit in ech.null_witnesses]


def lattice_echelon(columns, nrows):
    ech = ColumnEchelon(nrows)
    for col in columns:
        ech.add(col)
    return ech


def integer_rank(columns, nrows):
    return len(lattice_echelon(columns, nrows).pivots)


# ---------------------------------------------------------------------------
# Invariant factors of a sparse integer matrix (sparse elimination).
# ---------------------------------------------------------------------------

def _nearest_quotient(a, b):
    """q with |a - q*b| <= |b|/2."""
    q, r = divmod(a, b)
    if 2 * abs(r) > abs(b):
        q += 1
    return q


def _peel_unit_singletons(rows, cols, cancelled):
    """Isolate every unit alone in its column or alone in its row, until
    none is left; returns the isolated units.

    rows and cols are the dicts of invariant_factors_sparse and lose the
    rows and columns of every isolated unit; the columns go into
    `cancelled` when it is a set.  A row is looked at again only when it
    drops to one entry or one of its columns drops to one row, so the
    pass is linear in the number of entries.
    """
    isolated = []
    # (row, None): the row has one entry; (row, j): column j has one row
    todo = [(i, None) for i, row in rows.items() if len(row) == 1]
    todo += [(next(iter(col)), j) for j, col in cols.items() if len(col) == 1]
    while todo:
        i, j = todo.pop()
        row = rows.get(i)
        if row is None:
            continue
        if j is None:
            # the row ops that clear column j change no other column
            (j, v), = row.items()
            if v != 1 and v != -1:
                continue
            for k in cols.pop(j):
                if k != i:
                    other = rows[k]
                    del other[j]
                    if not other:
                        del rows[k]
                    elif len(other) == 1:
                        todo.append((k, None))
        else:
            # column j is {i: v}: no row op, and the column ops clearing
            # row i change no other row
            v = row[j]
            if v != 1 and v != -1:
                continue
            for k in row:
                col = cols[k]
                col.discard(i)
                if not col:
                    del cols[k]
                elif len(col) == 1:
                    todo.append((next(iter(col)), k))
        del rows[i]
        isolated.append(v)
        if cancelled is not None:
            cancelled.add(j)
    return isolated


def invariant_factors_sparse(columns, nrows, cancelled=None):
    """Nontrivial invariant factors and rank of an integer matrix.

    Returns (factors, rank) where factors is the normalized chain of
    entries >= 2 and rank counts all nonzero diagonal entries.  When
    `cancelled` is a set, the column of every unit pivot isolated before
    the first column operation is added to it (see chain_homology).

    Every pivot is eliminated sparsely until it is isolated, the only
    nonzero of its row and column; then coker = Z/|v| + coker(rest), so
    the isolated |v| are collected and _normalize_torsion makes the
    chain d1 | d2 | ... of them.  No dense matrix is built.

    A linear pass (_peel_unit_singletons) first isolates every unit
    alone in its column or alone in its row, and those it frees in turn
    (the singleton pass of sparse LU; Davis, *Direct Methods for Sparse
    Linear Systems*, 2006, ch. 7).  A unit alone in its column needs no
    row op: its row goes, and the row's other columns get shorter.  A
    unit alone in its row clears its column by row ops that touch that
    column only: the column goes.  Neither makes fill, and the heap
    below would take these entries first anyway, since (|v| = 1,
    fill 0) is the least key; the pass only takes them without the
    heap's keys.  The heap then runs on what is left.

    Each pivot is chosen by (|v|, Markowitz fill (len(row) - 1) *
    (len(col) - 1), row), so units go first.  It comes from a lazily
    refreshed heap with one live key per row.  Each step rescores the
    rows it changed; a popped row whose best has grown since is pushed
    back, and otherwise it holds the pivot.  A row whose best fell
    without being changed (its columns lost other rows) keeps its older
    key, so a pivot can be near least rather than least; the order sets
    the cost, never the factors.

    A pivot v clears its column by row ops with the nearest-integer
    quotient; if remainders survive, the smallest becomes the pivot and
    the column is cleared again.  With the column reduced to v alone,
    column ops touch only the pivot row, and again a surviving remainder
    becomes the pivot.  |v| falls with every move, so the step ends; a
    unit pivot is isolated in one pass.

    Those cancelled columns P satisfy a lemma.  Until the first column
    operation every row left is a row of L*A for a unimodular L, and the
    row of a unit pivot at column p holds, besides p, only columns not
    yet eliminated.  So on ker A each x_p is an integer combination of
    later coordinates, and by back-substitution x_P is an integral
    linear function of x_{P^c}: the projection ker A -> Z^{P^c} is
    injective and its image is saturated.  A unit pivot reached after a
    column operation is in coordinates U^-1 x and does not qualify: with
    it, d_1 = [[-5, 17]] would cancel column 0, and its d_2 =
    [[68, 34], [20, 10]] left with row 1 alone gives H_1 = C10, not C2.
    Every unit the linear pass isolates qualifies: the pass makes no
    column operation, a unit alone in its row gives x_p = 0 on ker A,
    and the row of a unit alone in its column holds only columns still
    there.  The set may differ from the one the heap alone would give;
    any such set is valid.
    """
    rows = {}
    cols = {}
    for j, col in enumerate(columns):
        for i, v in col.items():
            if v:
                rows.setdefault(i, {})[j] = v
                cols.setdefault(j, set()).add(i)
    isolated = _peel_unit_singletons(rows, cols, cancelled)
    span = max(rows, default=0) + 1
    # a key is (|v| * cap + fill) * span + row; fill < cap always
    cap = span * (len(columns) + 1)

    def best_entry(i):
        # (|v| * cap + fill, column) of the least entry of row i
        row = rows[i]
        n = len(row) - 1
        best = bj = None
        for j, v in row.items():
            score = abs(v) * cap
            if best is not None and score >= best:
                continue  # no fill makes up for a larger |v|
            score += n * (len(cols[j]) - 1)
            if best is None or score < best:
                best, bj = score, j
                if score == cap:
                    break  # a unit with no fill
        return best, bj

    queued = {i: best_entry(i)[0] * span + i for i in rows}  # live keys
    heap = list(queued.values())
    heapq.heapify(heap)
    row_ops_only = cancelled is not None  # and no column operation yet
    while heap:
        key = heapq.heappop(heap)
        old_score, pi = divmod(key, span)
        if queued.get(pi) != key:
            continue  # superseded by a later key of the same row
        score, pj = best_entry(pi)
        if score > old_score:
            queued[pi] = score * span + pi
            heapq.heappush(heap, queued[pi])
            continue
        touched = set()  # rows changed by this step, old pivot rows too
        while True:
            prow = rows[pi]
            piv = prow[pj]
            unit = piv == 1 or piv == -1
            move = None
            for i in [i for i in cols[pj] if i != pi]:
                row = rows[i]
                touched.add(i)
                q = row[pj] * piv if unit else _nearest_quotient(row[pj], piv)
                if q:
                    for j, v in prow.items():
                        nv = row.get(j, 0) - q * v
                        if nv:
                            row[j] = nv
                            cols[j].add(i)
                        elif row.pop(j, None) is not None:
                            cols[j].discard(i)
                if not row:
                    del rows[i]
                elif pj in row:
                    r = abs(row[pj])
                    if move is None or (r, i) < move:
                        move = (r, i)
            if move is not None:
                touched.add(pi)
                pi = move[1]
                continue
            # the column is {pi: piv}: column ops change row pi only
            if not unit and len(prow) > 1:
                row_ops_only = False
                for j, v in list(prow.items()):
                    if j != pj:
                        r = v - _nearest_quotient(v, piv) * piv
                        if r:
                            prow[j] = r
                            if move is None or (abs(r), j) < move:
                                move = (abs(r), j)
                        else:
                            del prow[j]
                            cols[j].discard(pi)
            if move is None:
                break
            pj = move[1]
        isolated.append(piv)
        if unit and row_ops_only:
            cancelled.add(pj)
        del rows[pi]
        queued.pop(pi, None)
        touched.discard(pi)
        for j in prow:
            cols[j].discard(pi)
        for i in touched:
            if i in rows:
                queued[i] = best_entry(i)[0] * span + i
                heapq.heappush(heap, queued[i])
            else:
                queued.pop(i, None)
    return list(_normalize_torsion(isolated)), len(isolated)


# ---------------------------------------------------------------------------
# Subquotients of integer lattices and homology of two-step complexes.
# ---------------------------------------------------------------------------

def _tensor(free, factors, ring):
    """The integer group Z^free + sum Z/d over factors, tensored with k.

    Over Z/m the lattices it comes from already hold every m*e_i, so
    the group is its own tensor with k; over Q the torsion dies.
    """
    if ring.kind == "Q":
        factors = ()
    return HomologyGroup.from_factors(free, factors)


def universal_coefficients(groups, ring):
    """H_0..H_N of C (x) Z/m from the groups H_0..H_N of a complex C of
    free Z-modules: H_n (x) Z/m + Tor(H_{n-1}, Z/m) (Weibel, *An
    Introduction to Homological Algebra*, Thm 3.6.2).

    Z (x) Z/m = Z/m and Z/d (x) Z/m = Tor(Z/d, Z/m) = Z/gcd(d, m); a
    free summand of H_{n-1} has no Tor.
    """
    m = ring.modulus
    out = []
    below = ()
    for h in groups:
        factors = [m] * h.free_rank
        factors += [math.gcd(d, m) for d in h.invariant_factors + below]
        out.append(HomologyGroup.from_factors(0, factors))
        below = h.invariant_factors
    return out


def kunneth(G, H):
    """H_0..H_N of C (x) D from the groups G = H_0..H_N of C and H =
    H_0..H_N of D, complexes of free Z-modules: H_n is the sum of G_i (x)
    H_j over i + j = n and of Tor(G_i, H_j) over i + j = n - 1 (the
    Kunneth formula; Mac Lane, *Homology*, ch. V).

    Z (x) Z/d = Z/d and Z/a (x) Z/b = Tor(Z/a, Z/b) = Z/gcd(a, b); a free
    summand has no Tor, so no integer is factored.  Groups over Q are
    free, and only their ranks multiply.
    """
    out = []
    for n in range(len(G)):
        rank = 0
        factors = []
        for i in range(n + 1):
            g, h = G[i], H[n - i]
            rank += g.free_rank * h.free_rank
            factors += g.invariant_factors * h.free_rank
            factors += h.invariant_factors * g.free_rank
            factors += _torsion_gcds(g, h)
            if i < n:
                factors += _torsion_gcds(g, H[n - 1 - i])
        out.append(HomologyGroup.from_factors(rank, factors))
    return out


def kunneth_layers(F, G):
    """The weight chains of C (x) D from those of C and D, complexes of
    free Z-modules whose boundaries keep a weight: F maps each weight p
    to H_0..H_N of the weight-p block of C, and G likewise for D.

    Weights add, so the weight-r block of C (x) D is the sum over
    p + q = r of the products of blocks, each given by kunneth: layer
    (i, p) with layer (j, q) lands at (i + j, p + q), and their Tor at
    (i + j + 1, p + q).
    """
    out = {}
    for p, f in F.items():
        for q, g in G.items():
            chain = kunneth(f, g)
            if p + q in out:
                chain = [a.direct_sum(b) for a, b in zip(out[p + q], chain)]
            out[p + q] = chain
    return out


def _torsion_gcds(g, h):
    """Z/gcd(a, b) over the torsion orders a of g and b of h: the torsion
    part of g (x) h, and all of Tor(g, h)."""
    return [math.gcd(a, b) for a in g.invariant_factors for b in h.invariant_factors]


def subquotient(gens_big, gens_small, nrows, ring):
    """(span gens_big) / (span gens_small) (x) k, gens_small inside.

    Vectors are dicts row -> int in an ambient Z^nrows.
    """
    ech = lattice_echelon(gens_big, nrows)
    idx = {row: k for k, row in enumerate(sorted(ech.pivots))}
    expr_cols = []
    for g in gens_small:
        coords, rem = ech.reduce(g)
        if rem:
            raise ValueError("subquotient: second lattice not inside the first")
        expr_cols.append({idx[row]: q for row, q in coords.items() if q})
    factors, rank = invariant_factors_sparse(expr_cols, len(idx))
    return _tensor(len(idx) - rank, factors, ring)


def homology_from_presentation(d_in_cols, d_out_cols, mid_dim, out_dim, ring):
    """(ker d_out / im d_in) (x) k for integer columns of presented modules.

    Columns of d_out_cols past mid_dim are relations of the target: a
    cycle is an integer kernel vector restricted to its first mid_dim
    coordinates.  Every column of d_in_cols, relations of the middle
    included, spans the boundaries.  `_int_columns` gives both lists the
    ring's relations.
    """
    cycles = []
    for vec in kernel_basis(d_out_cols, out_dim):
        g = {j: v for j, v in vec.items() if j < mid_dim}
        if g:
            cycles.append(g)
    return subquotient(cycles, [c for c in d_in_cols if c], mid_dim, ring)


def homology_at(d_in, d_out, ring, r_out=None, cancelled=None, checked=False):
    """Isomorphism class of ker(d_out)/im(d_in) over the ground ring.

    d_in: C_{n+1} -> C_n and d_out: C_n -> C_{n-1} as SparseMatrix.
    Raises CompositionNonzero unless d_out * d_in = 0 over the ring.
    checked=True skips forming that product: the caller has already
    shown d_out * d_in = 0 (the mixed sweeps, from the identities of
    their complex), and the result is meaningless if it is not.
    r_out, when given, is the rank of d_out over Z or Q, already known
    to the caller.  chain_homology reads the rank of d_in back from the
    result.  A Z/m pair is swept as the chain [0, d_out, d_in], whose
    lifted mod-m cone checks it, so checked, r_out and cancelled go
    unused there.  Q takes the integer elimination of Z, and _tensor
    keeps its free part.

    cancelled, over Z and Q, is a set of rows of d_in that the
    elimination of d_out cancelled (invariant_factors_sparse): d_in is
    eliminated without them, and the set is refilled with the columns
    of d_in that this elimination cancels.
    """
    if d_in.rows != d_out.cols:
        raise ValueError("middle dimensions disagree")
    if ring.kind == "Zmod":
        return chain_homology([SparseMatrix(0, d_out.rows, ring), d_out, d_in], ring)[1]
    if not checked and not composite_is_zero([(d_in, d_out)], ring):
        raise CompositionNonzero(
            f"d_out . d_in != 0 on a {d_in.rows}-dimensional slice")
    n = d_in.rows
    # Each integer copy is built when it is needed and dropped after, so
    # the two are never alive together.
    if r_out is None:
        r_out = integer_rank(_int_columns(d_out), d_out.rows)
    # the free rank is n - r_in - r_out; chain_homology inverts it.
    # Torsion of ker/im equals torsion of Z^n/im since the quotient by
    # the kernel is free; without the cancelled rows, ker d_out is a
    # saturated lattice of the rest, so the torsion and rank stay.
    columns = _int_columns(d_in, cancelled or ())
    if cancelled is not None:
        cancelled.clear()
    factors, r_in = invariant_factors_sparse(columns, n, cancelled)
    return _tensor(n - r_in - r_out, factors, ring)


def chain_homology(ds, ring, checked=False):
    """H_0, ..., H_N of the chain whose boundaries are ds[0..N + 1], ds[n]
    from degree n to degree n - 1.

    checked is passed to every homology_at: with True the caller has
    already shown ds[n] * ds[n + 1] = 0 for n <= N, and no product is
    formed.

    Over Z and Q each boundary is ranked once.  The rank of the first
    d_out comes from integer_rank; after that the rank of ds[n + 1] is
    read back from H_n and it is the r_out of degree n + 1: homology_at
    forms the free rank of H_n as c_n - r_in - r_out, and the torsion
    factors it adds are all at least 2, so no rank moves into the free
    part.  (Every caller's ds[0] is the boundary into degree -1, with no
    rows, so that first rank is 0.)  A zero middle gives 0, with no
    homology_at call, and passes rank 0 on.  A Z/m chain is swept as its
    lifted mod-m cone (_mod_cone), which checks d^2 = 0 as it is built,
    whatever checked says; a reduction of a free complex over Z is swept
    over Z by its caller, and universal_coefficients gives its groups.

    Unit pivots are cancelled along the sweep (Kaczynski,
    Mrozek and Slusarek, *Homology computation by reduction of chain
    complexes*, 1998).  The elimination of ds[n + 1] returns the set P
    of columns where it isolated a unit pivot before its first column
    operation.  By the lemma in invariant_factors_sparse, the projection
    to Z^{P^c} maps ker ds[n + 1] isomorphically onto a saturated
    lattice.  So ds[n + 2] without its rows P keeps its rank, H_{n+1}
    keeps the torsion of Z^{P^c} modulo its image, and it is eliminated
    without those rows; its kernel is unchanged, so the lemma holds
    again one degree up.  Not every unit pivot qualifies: d_1 =
    [[-5, 17]] reaches its unit only through column operations, and
    dropping the row at that column from d_2 = [[68, 34], [20, 10]]
    turns H_1 = C2 into C10.  Over Q the integer lift of a boundary has
    its rational kernel, so the projection is injective there too and
    the ranks stay.
    """
    if ring.kind == "Zmod":
        ds, ring, checked = _mod_cone(ds, ring.modulus), GroundRing.Z(), True
    cancelled = set()
    groups = []
    r_out = None
    for n in range(len(ds) - 1):
        d_in, d_out = ds[n + 1], ds[n]
        if d_out.cols == 0:
            groups.append(HomologyGroup(0, ()))
            r_out = 0
            continue
        if r_out is None:
            r_out = integer_rank(_int_columns(d_out), d_out.rows)
        h = homology_at(d_in, d_out, ring, r_out, cancelled, checked)
        groups.append(h)
        r_out = d_in.rows - r_out - h.free_rank
    return groups


def _mod_cone(ds, m):
    """Boundaries over Z of T_n = C~_n + C~_{n-1}, D(x, y) = (d~x + m*y,
    -d~y - h*x), for the Z/m chain C with boundaries ds.  d~ lifts d to
    [0, m), and a remainder of d~d~ = m*h is d^2 != 0 mod m, which raises
    CompositionNonzero.  D^2 = 0 as m*d~h = d~^3 = m*h d~, and (x, y) ->
    x mod m has an acyclic kernel, so H(T) = H(C) (Eisenbud, *Homological
    algebra on a complete intersection*, Trans. AMS 260, 1980, section 1)."""
    Z = GroundRing.Z()
    out = []
    for prev, d in zip([SparseMatrix(0, ds[0].rows, Z)] + ds, ds):  # d~_{n-1}, d~_n
        c, top = d.cols, d.rows
        cone = SparseMatrix(top + prev.rows, c + top, Z)
        below = prev.columns
        for k, col in enumerate(d.columns):
            h = {}
            for j, w in col.items():
                for i, v in below[j].items():
                    h[i] = h.get(i, 0) + v * w
            out_col = cone.columns[k] = dict(col)
            for i, v in h.items():
                q, r = divmod(v, m)
                if r:
                    raise CompositionNonzero(f"d . d != 0 mod {m} into {prev.rows} rows")
                if q:
                    out_col[top + i] = -q
        for i in range(top):
            out_col = cone.columns[c + i] = {i: m}
            out_col.update((top + r, -v) for r, v in below[i].items())
        out.append(cone)
    return out


def preimage(matrix, b, ring):
    """Some x with M x = b over the ring, or None if b is not in the image.

    b is a dense list of scalars; the returned x is a dense list.  An
    integer kernel vector (y, t) of the lift of [M | b] says M y + t b = 0
    over k.  Its t run over an ideal gZ, and b is in the image exactly
    when g is a unit of k; then x = -y / g for the vector with t = g.
    """
    n = matrix.cols
    aug = SparseMatrix(matrix.rows, n + 1, ring)
    aug.columns[:n] = matrix.columns  # read only, by _int_columns
    for i, v in enumerate(b):
        aug[i, n] = v
    g, y = 0, [0] * n
    for vec in kernel_basis(_int_columns(aug), matrix.rows):
        t = vec.get(n, 0)
        if t:
            g, s, u = xgcd(g, t)
            y = [s * a + u * vec.get(j, 0) for j, a in enumerate(y)]
    if not ring.is_unit(g):
        return None
    scale = ring.inv(g)
    return [ring.normalize(-a * scale) for a in y]
