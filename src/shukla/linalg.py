"""Exact scalar arithmetic and integer matrix kernels.

Everything here is exact: integers, integers mod m, or rationals.  The
single workhorse is Smith normal form over Z; homology over Z/m is
reduced to Z by appending m*(identity) relations, and homology over Q
is reduced to Z by clearing denominators and discarding torsion.
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

    Elements are plain ints (Z and Z/m, the latter normalized to
    0..m-1) or Fractions (Q).  No floating point anywhere.
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

    @property
    def zero(self):
        return Fraction(0) if self.kind == "Q" else 0

    @property
    def one(self):
        return Fraction(1) if self.kind == "Q" else 1

    def normalize(self, x):
        if self.kind == "Q":
            return x if isinstance(x, Fraction) else Fraction(x)
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
            return 1 / a
        if self.kind == "Z":
            if a not in (1, -1):
                raise ZeroDivisionError(f"{a} is not a unit in Z")
            return a
        g, x, _ = xgcd(a, self.modulus)
        if g != 1:
            raise ZeroDivisionError(f"{a} is not a unit mod {self.modulus}")
        return x % self.modulus

    @property
    def is_field(self):
        return self.kind == "Q"

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
    """Sparse exact matrix: entries maps (row, col) -> nonzero scalar."""

    __slots__ = ("rows", "cols", "ring", "entries")

    def __init__(self, rows, cols, ring, entries=None):
        self.rows = rows
        self.cols = cols
        self.ring = ring
        self.entries = {}
        if entries:
            for (i, j), v in entries.items():
                self[i, j] = v

    def __getitem__(self, key):
        return self.entries.get(key, self.ring.zero)

    def __setitem__(self, key, value):
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry {key} outside {self.rows}x{self.cols}")
        value = self.ring.normalize(value)
        if value == 0:
            self.entries.pop(key, None)
        else:
            self.entries[key] = value

    def add_at(self, i, j, value):
        self[i, j] = self.ring.add(self[i, j], value)

    @staticmethod
    def identity(n, ring):
        m = SparseMatrix(n, n, ring)
        for i in range(n):
            m[i, i] = ring.one
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
        out = [[self.ring.zero] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def column(self, j):
        return {i: v for (i, jj), v in self.entries.items() if jj == j}

    def columns(self):
        cols = [dict() for _ in range(self.cols)]
        for (i, j), v in self.entries.items():
            cols[j][i] = v
        return cols

    def __mul__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ring = self.ring
        by_row = {}
        for (i, k), v in other.entries.items():
            by_row.setdefault(i, []).append((k, v))
        out = SparseMatrix(self.rows, other.cols, ring)
        acc = {}
        for (i, j), v in self.entries.items():
            for (k, w) in by_row.get(j, ()):
                key = (i, k)
                acc[key] = acc.get(key, ring.zero) + v * w
        for key, v in acc.items():
            out[key] = v
        return out

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        out = SparseMatrix(self.rows, self.cols, self.ring, dict(self.entries))
        for key, v in other.entries.items():
            out.add_at(*key, v)
        return out

    def scaled(self, c):
        out = SparseMatrix(self.rows, self.cols, self.ring)
        for key, v in self.entries.items():
            out[key] = self.ring.mul(v, c)
        return out

    def is_zero(self):
        return not self.entries

    def apply(self, vec):
        """Matrix times a dense coordinate list."""
        out = [self.ring.zero] * self.rows
        for (i, j), v in self.entries.items():
            if vec[j]:
                out[i] = self.ring.add(out[i], v * vec[j])
        return out

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


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


TRIVIAL_GROUP = HomologyGroup(0, ())


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


def dense_snf(a, want_u=False, want_v=False, want_uinv=False):
    """Smith normal form of an integer matrix given as list of lists.

    Returns (U, S, V, Uinv) where S = U*A*V is diagonal with
    d1 | d2 | ..., di >= 0, and U, V are unimodular.  Transform slots
    not requested come back as None.
    """
    a = [list(map(int, row)) for row in a]
    m = len(a)
    n = len(a[0]) if m else 0
    u = [[int(i == j) for j in range(m)] for i in range(m)] if (want_u or want_uinv) else None
    uinv = [[int(i == j) for j in range(m)] for i in range(m)] if want_uinv else None
    v = [[int(i == j) for j in range(n)] for i in range(n)] if want_v else None

    def swap_rows(i, k):
        a[i], a[k] = a[k], a[i]
        if u is not None:
            u[i], u[k] = u[k], u[i]
        if uinv is not None:
            for row in uinv:
                row[i], row[k] = row[k], row[i]

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
        if uinv is not None:
            # inverse op on the right: col_k += q * col_i
            for row in uinv:
                row[k] += q * row[i]

    def col_sub(j, k, q):
        # col_j -= q * col_k
        _col_op(a, j, k, q)
        if v is not None:
            _col_op(v, j, k, q)

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        if u is not None:
            u[i] = [-x for x in u[i]]
        if uinv is not None:
            for row in uinv:
                row[i] = -row[i]

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
    return u, a, v, uinv


def snf(matrix):
    """Smith normal form of an integer SparseMatrix: S = U * M * V.

    U and V are invertible over Z; S is diagonal with d1 | d2 | ...,
    all di >= 0.  Total function.
    """
    ring = matrix.ring
    if ring.kind != "Z":
        raise ValueError("snf is defined over Z")
    u, s, v, _ = dense_snf(matrix.to_rows(), want_u=True, want_v=True)
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

    def basis(self):
        """Echelon basis of the lattice spanned by the added columns."""
        return [self.pivots[r] for r in sorted(self.pivots)]

    def reduce(self, col):
        """Reduce col against the pivots; returns (coords, remainder).

        coords maps pivot row -> integer quotient used.  Exact division
        failures leave a nonzero remainder at that row.
        """
        col = dict(col)
        coords = {}
        for r in sorted(self.pivots):
            b = col.get(r, 0)
            if not b:
                continue
            piv = self.pivots[r]
            a = piv[r]
            if b % a:
                break
            q = b // a
            coords[r] = q
            for row, val in piv.items():
                nv = col.get(row, 0) - q * val
                if nv:
                    col[row] = nv
                else:
                    col.pop(row, None)
        return coords, col


def _int_columns(matrix):
    """Columns of a SparseMatrix as integer dicts (Q entries are scaled)."""
    cols = [dict() for _ in range(matrix.cols)]
    if matrix.ring.kind == "Q":
        scale = 1
        for v in matrix.entries.values():
            scale = scale * v.denominator // xgcd(scale, v.denominator)[0]
        for (i, j), v in matrix.entries.items():
            cols[j][i] = int(v * scale)
    else:
        for (i, j), v in matrix.entries.items():
            cols[j][i] = int(v)
    return cols


def kernel_basis(columns, nrows):
    """Basis of the integer kernel lattice of the matrix with given columns.

    `columns` is a list of dicts row -> int.  Returns a list of dense
    integer vectors x (length = len(columns)) with M x = 0.
    """
    ech = ColumnEchelon(nrows)
    n = len(columns)
    for j, col in enumerate(columns):
        aug = dict(col)
        aug[nrows + j] = 1
        ech.add(aug)
    out = []
    for wit in ech.null_witnesses:
        vec = [0] * n
        for row, val in wit.items():
            vec[row - nrows] = val
        out.append(vec)
    return out


def integer_rank(columns, nrows):
    ech = ColumnEchelon(nrows)
    for col in columns:
        ech.add(col)
    return len(ech.pivots)


def lattice_echelon(columns, nrows):
    ech = ColumnEchelon(nrows)
    for col in columns:
        ech.add(col)
    return ech


# ---------------------------------------------------------------------------
# Invariant factors of a sparse integer matrix (unit-pivot peeling).
# ---------------------------------------------------------------------------

def invariant_factors_sparse(columns, nrows):
    """Nontrivial invariant factors and rank of an integer matrix.

    Returns (factors, rank) where factors is the normalized chain of
    entries >= 2 and rank counts all nonzero diagonal entries.

    Unit entries are peeled first, each time the cheapest unit pivot by
    Markowitz fill (len(row) - 1) * (len(col) - 1), ties to the lower
    row.  The pivot comes from a lazily refreshed heap with one live key
    fill * span + row per row that has a unit entry.  Each elimination
    step rescores the rows it touches and lowers the key of any other
    row whose unit entry lost column mates, so no key exceeds its row's
    fill; a popped row whose fill has grown since is pushed back, and
    otherwise it is the pivot.  What is left when no unit entry remains
    goes to dense_snf.
    """
    rows = {}
    cols = {}
    for j, col in enumerate(columns):
        for i, v in col.items():
            if v:
                rows.setdefault(i, {})[j] = v
                cols.setdefault(j, set()).add(i)
    span = max(rows, default=0) + 1

    def unit_fill(i):
        # cheapest fill over the unit entries of row i, or None
        row = rows[i]
        best = None
        for j, v in row.items():
            if v == 1 or v == -1:
                fill = (len(row) - 1) * (len(cols[j]) - 1)
                if best is None or fill < best[0]:
                    best = (fill, j)
                    if fill == 0:
                        break
        return best

    queued = {}  # row -> its one live key in the heap
    for i in rows:
        best = unit_fill(i)
        if best is not None:
            queued[i] = best[0] * span + i
    heap = list(queued.values())
    heapq.heapify(heap)
    ones = 0
    while heap:
        key = heapq.heappop(heap)
        old_fill, pi = divmod(key, span)
        if queued.get(pi) != key:
            continue  # superseded by a later key of the same row
        # a queued row still has a unit entry: its entries change only
        # in steps that touch it, and those rescore it
        best = unit_fill(pi)
        if best[0] > old_fill:
            queued[pi] = best[0] * span + pi
            heapq.heappush(heap, queued[pi])
            continue
        del queued[pi]
        pj = best[1]
        piv = rows[pi][pj]
        prow = rows.pop(pi)
        for j in prow:
            cols[j].discard(pi)
        touched = set(cols.get(pj, ()))
        for i in touched:
            row = rows[i]
            q = row[pj] * piv  # piv is +-1 so q*piv = row/piv
            for j, v in prow.items():
                nv = row.get(j, 0) - q * v
                if nv:
                    row[j] = nv
                    cols.setdefault(j, set()).add(i)
                else:
                    if row.pop(j, None) is not None:
                        cols[j].discard(i)
            if not row:
                del rows[i]
        for j in list(prow):
            if j in cols and not cols[j]:
                del cols[j]
        cols.pop(pj, None)
        ones += 1
        for i in touched:
            best = unit_fill(i) if i in rows else None
            if best is None:
                queued.pop(i, None)
            else:
                queued[i] = best[0] * span + i
                heapq.heappush(heap, queued[i])
        # Untouched rows kept their entries, but the columns of prow
        # changed length: lower the key of a row whose unit entry there got
        # cheaper.  A key left too low is caught when it is popped.
        for j in prow:
            col = cols.get(j, ())
            for i in col:
                if i not in touched and rows[i][j] in (1, -1):
                    key = (len(rows[i]) - 1) * (len(col) - 1) * span + i
                    if key < queued[i]:
                        queued[i] = key
                        heapq.heappush(heap, key)
    if rows:
        live_rows = sorted(rows)
        live_cols = sorted({j for row in rows.values() for j in row})
        ri = {r: i for i, r in enumerate(live_rows)}
        ci = {c: i for i, c in enumerate(live_cols)}
        dense = [[0] * len(live_cols) for _ in live_rows]
        for r, row in rows.items():
            for c, v in row.items():
                dense[ri[r]][ci[c]] = v
        _, s, _, _ = dense_snf(dense)
        diag = [s[i][i] for i in range(min(len(live_rows), len(live_cols)))]
        factors = [d for d in diag if d not in (0, 1)]
        rank = ones + sum(1 for d in diag if d)
    else:
        factors = []
        rank = ones
    return list(_normalize_torsion(factors)), rank


# ---------------------------------------------------------------------------
# Subquotients of integer lattices and homology of two-step complexes.
# ---------------------------------------------------------------------------

def subquotient(gens_big, gens_small, nrows, want_generators=False):
    """The group (span gens_big) / (span gens_small), gens_small inside.

    Vectors are dicts row -> int in an ambient Z^nrows.  When
    want_generators is set, also returns a list (d_i, vector) with one
    representative per invariant factor d_i != 1 (d_i = 0 means a free
    generator).
    """
    ech = lattice_echelon(gens_big, nrows)
    basis = ech.basis()
    r = len(basis)
    idx = {row: k for k, row in enumerate(sorted(ech.pivots))}
    expr_cols = []
    for g in gens_small:
        coords, rem = ech.reduce(g)
        if rem:
            raise ValueError("subquotient: second lattice not inside the first")
        expr_cols.append({idx[row]: q for row, q in coords.items() if q})
    if not want_generators:
        factors, rank = invariant_factors_sparse(expr_cols, r)
        return HomologyGroup.from_factors(r - rank, factors), None
    dense = [[0] * len(expr_cols) for _ in range(r)]
    for j, col in enumerate(expr_cols):
        for i, v in col.items():
            dense[i][j] = v
    _, s, _, uinv = dense_snf(dense, want_uinv=True)
    diag = [s[i][i] for i in range(min(r, len(expr_cols)))]
    diag += [0] * (r - len(diag))
    factors = [d for d in diag if d not in (0, 1)]
    rank = sum(1 for d in diag if d)
    gens = []
    basis_list = basis
    for i, d in enumerate(diag):
        if d == 1:
            continue
        vec = {}
        for k in range(r):
            c = uinv[k][i]
            if c:
                for row, val in basis_list[k].items():
                    nv = vec.get(row, 0) + c * val
                    if nv:
                        vec[row] = nv
                    else:
                        vec.pop(row, None)
        gens.append((d, vec))
    return HomologyGroup.from_factors(r - rank, factors), gens


def homology_from_presentation(d_in_cols, d_out_cols, mid_dim, out_dim,
                               rel_mid=(), rel_out=(), want_generators=False):
    """Homology of span{x : d_out(x) in <rel_out>} / (im d_in + <rel_mid>).

    All data is over Z; rel_mid / rel_out are extra relation vectors
    (e.g. m * e_i when working over Z/m).  This is the one engine behind
    every homology computation in the package.
    """
    if not rel_out:
        cycles = kernel_basis(d_out_cols, out_dim)
        cycle_gens = [{i: v for i, v in enumerate(vec) if v} for vec in cycles]
    else:
        aug = list(d_out_cols) + [dict(r) for r in rel_out]
        kb = kernel_basis(aug, out_dim)
        n = len(d_out_cols)
        cycle_gens = []
        for vec in kb:
            g = {i: v for i, v in enumerate(vec[:n]) if v}
            if g:
                cycle_gens.append(g)
    bound_gens = [dict(c) for c in d_in_cols if c] + [dict(r) for r in rel_mid]
    return subquotient(cycle_gens, bound_gens, mid_dim,
                       want_generators=want_generators)


def homology_at(d_in, d_out, ring):
    """Isomorphism class of ker(d_out)/im(d_in) over the ground ring.

    d_in: C_{n+1} -> C_n and d_out: C_n -> C_{n-1} as SparseMatrix.
    Raises CompositionNonzero unless d_out * d_in = 0 over the ring.
    """
    if d_in.rows != d_out.cols:
        raise ValueError("middle dimensions disagree")
    if not (d_out * d_in).is_zero():
        raise CompositionNonzero(
            f"d_out . d_in != 0 on a {d_in.rows}-dimensional slice")
    n = d_in.rows
    if ring.kind == "Zmod":
        m = ring.modulus
        rel_mid = [{i: m} for i in range(n)]
        rel_out = [{i: m} for i in range(d_out.rows)]
        group, _ = homology_from_presentation(
            _int_columns(d_in), _int_columns(d_out), n, d_out.rows,
            rel_mid=rel_mid, rel_out=rel_out)
        return group
    # Each integer copy is built when it is needed and dropped after, so
    # the two are never alive together.
    if ring.kind == "Z":
        # torsion of ker/im equals torsion of Z^n/im since the quotient
        # by the kernel is free
        factors, r_in = invariant_factors_sparse(_int_columns(d_in), n)
    else:
        factors, r_in = (), integer_rank(_int_columns(d_in), n)
    free = n - r_in - integer_rank(_int_columns(d_out), d_out.rows)
    return HomologyGroup.from_factors(free, factors)


def preimage(matrix, b, ring):
    """Some x with M x = b over the ring, or None if b is not in the image.

    b is a dense list of scalars; the returned x is a dense list.
    """
    n = matrix.cols
    if ring.kind == "Q":
        scale = 1
        vals = list(matrix.entries.values()) + [ring.normalize(x) for x in b]
        for v in vals:
            v = Fraction(v)
            scale = scale * v.denominator // xgcd(scale, v.denominator)[0]
        cols = [dict() for _ in range(n)]
        for (i, j), v in matrix.entries.items():
            cols[j][i] = int(Fraction(v) * scale)
        target = {i: int(Fraction(v) * scale) for i, v in enumerate(b)
                  if ring.normalize(v) != 0}
        sol = _solve_rational(cols, target, matrix.rows)
        return sol
    cols = _int_columns(matrix)
    target = {i: int(v) for i, v in enumerate(b) if int(v)}
    if ring.kind == "Zmod":
        m = ring.modulus
        cols = cols + [{i: m} for i in range(matrix.rows)]
        sol = _solve_integer(cols, target, matrix.rows)
        if sol is None:
            return None
        return [ring.normalize(x) for x in sol[:n]]
    return _solve_integer(cols, target, matrix.rows)


def _solve_integer(columns, target, nrows):
    ech = ColumnEchelon(nrows)
    n = len(columns)
    for j, col in enumerate(columns):
        aug = dict(col)
        aug[nrows + j] = 1
        ech.add(aug)
    _, rem = ech.reduce(dict(target))
    if any(r < nrows for r in rem):
        return None
    # target = sum q*piv, and each pivot's witness part records its
    # expression in the original columns, so x = -(witness remainder)
    x = [0] * n
    for row, val in rem.items():
        x[row - nrows] = -val
    return x


def _solve_rational(columns, target, nrows):
    """Solve M x = b over Q by fraction-free Gaussian elimination."""
    rows = sorted({r for c in columns for r in c} | set(target))
    ridx = {r: i for i, r in enumerate(rows)}
    m = len(rows)
    n = len(columns)
    a = [[Fraction(0)] * (n + 1) for _ in range(m)]
    for j, col in enumerate(columns):
        for r, v in col.items():
            a[ridx[r]][j] = Fraction(v)
    for r, v in target.items():
        a[ridx[r]][n] = Fraction(v)
    piv_cols = []
    ri = 0
    for j in range(n):
        p = next((i for i in range(ri, m) if a[i][j]), None)
        if p is None:
            continue
        a[ri], a[p] = a[p], a[ri]
        pv = a[ri][j]
        a[ri] = [x / pv for x in a[ri]]
        for i in range(m):
            if i != ri and a[i][j]:
                f = a[i][j]
                a[i] = [x - f * y for x, y in zip(a[i], a[ri])]
        piv_cols.append(j)
        ri += 1
        if ri == m:
            break
    # rows past the last pivot are all-zero in the coefficient block
    if any(a[i][n] for i in range(ri, m)):
        return None
    x = [Fraction(0)] * n
    for i, j in enumerate(piv_cols):
        x[j] = a[i][n]
    return x
