"""Mixed complexes and their homology.

A mixed complex (C, b, B) (Kassel 1987; Loday, *Cyclic Homology*, 1992)
is a graded family of finite free modules with two square-zero maps
that anticommute: b lowers the degree by one, B raises it by one.  Here
each degree is split into weight slices C_{n,w}; b keeps the weight and
B either raises it by one (the Gamma-forms complex, b = delta, B = d) or
keeps it (the normalized bar complex, whose slices all have weight 0).

Hochschild homology is the homology of b, weight by weight.  Cyclic
homology totalizes the shifted complex whose degree-n term is the sum of
copies i >= 0 of C_{n-2i}, with b acting inside each copy and B feeding
copy i into copy i - 1 (and falling off the i = 0 copy).

Hodge layers of cyclic homology are read off the column filtration of
that totalization: the (n, p) layer is a graded piece of HC_n, computed
as an exact subquotient of integer lattices.
"""

from dataclasses import dataclass, field
from functools import cached_property

from .errors import WindowTooSmall
# homology_at stays bound here because perfbench's tracer test reads
# mixed.homology_at; chain_homology calls it in linalg
from .linalg import (
    HomologyGroup, SparseMatrix, _int_columns, chain_homology, homology_at,
    kernel_basis, lattice_echelon, subquotient,
)


@dataclass
class MixedComplex:
    """Finite window of a mixed complex.

    slices maps (n, w), the degree and the weight, to a tuple of opaque
    basis labels; missing keys are zero slices.  Every slice with
    n <= window_total is present or genuinely zero.  b and B map a pair
    (source slice, target slice) to the block between them; b blocks go
    from (n, w) to (n - 1, w), B blocks from (n, w) to a slice of degree
    n + 1.  Missing blocks are zero.

    Hochschild homology reads only b, so B is built on first read:
    build_B is the producer's zero-argument builder of the B table, and
    its result is kept for every later read.
    """

    ring: object
    slices: dict
    b: dict = field(default_factory=dict)
    build_B: object = dict
    window_total: int = 0

    @cached_property
    def B(self):
        return self.build_B()

    def dim(self, n, w):
        s = self.slices.get((n, w))
        return len(s) if s else 0

    def require_window(self, n_max):
        if n_max + 1 > self.window_total:
            raise WindowTooSmall(
                f"window covers totals <= {self.window_total}, need {n_max + 1}")


@dataclass
class ValidationResult:
    ok: bool
    identity: str = None
    slice: tuple = None

    def __bool__(self):
        return self.ok


def _leaving(table):
    """source slice -> [(target slice, block)] of a block table."""
    out = {}
    for (s, t), mat in table.items():
        out.setdefault(s, []).append((t, mat))
    return out


def _composite(s, paths):
    """The sum over (first, second) in paths of second . first on slice s,
    one block per target slice."""
    out = {}
    for first, second in paths:
        for t, m1 in first.get(s, ()):
            for u, m2 in second.get(t, ()):
                prod = m2 * m1
                out[u] = out[u] + prod if u in out else prod
    return out


def validate(M):
    """Check b^2 = 0, B^2 = 0 and bB + Bb = 0 on the window interior.

    Each composite is formed from one source slice and dropped after its
    check.  A failed result names the first failing identity and slice.
    """
    W = M.window_total
    b, B = _leaving(M.b), _leaving(M.B)
    keys = sorted(k for k in M.slices if M.dim(*k))
    checks = (
        ("b^2", ((b, b),), 0),
        ("B^2", ((B, B),), 2),
        ("bB + Bb", ((B, b), (b, B)), 1),
    )
    for name, paths, slack in checks:
        for s in keys:
            if s[0] > W - slack:
                continue
            if not all(m.is_zero() for m in _composite(s, paths).values()):
                return ValidationResult(False, name, s)
    return ValidationResult(True)


def _degree_slices(M, n):
    """The nonzero slices of degree n, by decreasing weight."""
    return sorted((k for k in M.slices if k[0] == n and M.dim(*k)), reverse=True)


def _total_matrix(M, n, w):
    """The b block from slice (n, w) to slice (n - 1, w)."""
    mat = M.b.get(((n, w), (n - 1, w)))
    if mat is None:
        mat = SparseMatrix(M.dim(n - 1, w), M.dim(n, w), M.ring)
    return mat


@dataclass
class FilteredGroups:
    """Total groups per degree plus Hodge layers per (degree, weight)."""

    total: dict
    layers: dict

    def layer(self, n, p):
        return self.layers.get((n, p), HomologyGroup(0, ()))

    def to_json(self):
        return {
            "total": {str(n): g.to_json() for n, g in sorted(self.total.items())},
            "layers": {f"{n},{p}": g.to_json()
                       for (n, p), g in sorted(self.layers.items())},
        }


def hochschild_layers(M, n_max):
    """HH_n(M) for 0 <= n <= n_max and its weight-w layers: b keeps the
    weight, so H_n is the direct sum of the homology of each weight block,
    and each weight is one chain swept once."""
    M.require_window(n_max)
    by_weight = {}
    for w in {w for (n, w) in M.slices if n <= n_max and M.dim(n, w)}:
        ds = [_total_matrix(M, n, w) for n in range(n_max + 2)]
        by_weight[w] = chain_homology(ds, M.ring)
    totals = {}
    layers = {}
    for n in range(n_max + 1):
        parts = []
        for (_, w) in _degree_slices(M, n):
            h = by_weight[w][n]
            if not h.is_trivial():
                layers[(n, w)] = h
            parts.append(h)
        totals[n] = HomologyGroup(0, ()).direct_sum(*parts)
    return FilteredGroups(totals, layers)


def hochschild_total(M, n_max):
    """HH_n(M) for 0 <= n <= n_max."""
    total = hochschild_layers(M, n_max).total
    return [total[n] for n in range(n_max + 1)]


def _cyclic_summands(M, n):
    """Summands (i, slice) of degree n of the shifted complex: copy i of
    each slice of degree n - 2i."""
    return [(i, s) for i in range(n // 2 + 1) for s in _degree_slices(M, n - 2 * i)]


def _shifted_matrix(M, src, tgt):
    """The map b + B from the sum of the summands src to the sum of the
    summands tgt: b inside copy i, B from copy i into copy i - 1."""
    soff, sdim = _offsets(M, src)
    toff, tdim = _offsets(M, tgt)
    copies = {}
    for (j, t) in tgt:
        copies.setdefault(j, []).append(t)
    out = SparseMatrix(tdim, sdim, M.ring)
    # the blocks' entries are normalized and nonzero, and a block of the
    # shape of its two slices stays inside them, so once that shape is
    # checked its entries are copied without the per-entry setter
    entries = out.entries
    for (i, s) in src:
        below = (s[0] - 1, s[1])
        blocks = [((i, below), M.b.get((s, below)))]
        blocks += [((i - 1, t), M.B.get((s, t))) for t in copies.get(i - 1, ())]
        c0 = soff[(i, s)]
        for key, mat in blocks:
            if mat is not None and key in toff:
                if (mat.rows, mat.cols) != (M.dim(*key[1]), M.dim(*s)):
                    raise ValueError(
                        f"block {s} -> {key[1]} is {mat.rows}x{mat.cols}, "
                        f"not {M.dim(*key[1])}x{M.dim(*s)}")
                r0 = toff[key]
                for (r, c), v in mat.entries.items():
                    entries[r0 + r, c0 + c] = v
    return out


def _offsets(M, summands):
    offs = {}
    total = 0
    for key in summands:
        offs[key] = total
        total += M.dim(*key[1])
    return offs, total


def _cyclic_matrix(M, n):
    """Boundary of degree n of the cyclic totalization."""
    return _shifted_matrix(M, _cyclic_summands(M, n), _cyclic_summands(M, n - 1))


def cyclic_total(M, n_max, boundaries=None):
    """HC_n(M) for 0 <= n <= n_max.

    boundaries, when given, are the _cyclic_matrix(M, n) for
    0 <= n <= n_max + 1, already built by the caller.
    """
    M.require_window(n_max)
    d = boundaries
    if d is None:
        d = [_cyclic_matrix(M, n) for n in range(n_max + 2)]
    return chain_homology(d, M.ring)


def cyclic_layers(M, n_max):
    """HC_n(M) for 0 <= n <= n_max and its Hodge layers.

    Copy i of slice (m, w) has weight w + i in the shifted complex; the
    column filtration by n minus that weight gives the (n, weight) layers
    as the graded pieces of HC_n.
    """
    M.require_window(n_max)
    d = [_cyclic_matrix(M, n) for n in range(n_max + 2)]
    totals = cyclic_total(M, n_max, d)
    layers = {}
    for n in range(n_max + 1):
        columns = [n - w - i for (i, (m, w)) in _cyclic_summands(M, n)
                   for _ in range(M.dim(m, w))]
        pieces = _column_graded_pieces(d[n + 1], d[n], columns, M.ring)
        for c, g in pieces.items():
            if not g.is_trivial():
                layers[(n, n - c)] = g
    return FilteredGroups(dict(enumerate(totals)), layers)


def cyclic_e2(M, n_max):
    """Row homology of the shifted complex.

    Returns a dict (a, c) -> group: the homology at column a of row c,
    whose summands are the copies i of the slices (a + c - 2i, c - i),
    under the boundary b + B.  On the Gamma-forms complex this is the
    second page of the cyclic column-filtration spectral sequence.
    """
    def row(a, c):
        return [(i, (a + c - 2 * i, c - i)) for i in range(min(a, c) + 1)
                if M.dim(a + c - 2 * i, c - i)]

    out = {}
    for c in range(n_max + 1):
        ds = [_shifted_matrix(M, row(a, c), row(a - 1, c))
              for a in range(n_max + 2 - c)]
        for a, h in enumerate(chain_homology(ds, M.ring)):
            out[(a, c)] = h
    return out


def _column_graded_pieces(d_in, d_out, cols_mid, ring):
    """Graded pieces of H = ker(d_out)/im(d_in) for the filtration by
    column value (values >= 0): piece c = (Z n F_c) / (Z n F_{c-1} + B n F_c).

    One kernel and one echelon serve every c.  The kernel is taken on the
    target relations followed by the middle columns by increasing value:
    after the first k columns, the null witnesses of a ColumnEchelon are a
    basis of the kernel of those k columns, and every later witness is
    independent of them.  So Z n F_c is spanned by the cycles whose
    largest value is at most c.  The boundaries are echeloned with the
    middle rows by decreasing value: an echelon column has no entry above
    its pivot row, so B n F_c is spanned by the pivot columns whose pivot
    row has value at most c.
    """
    n = len(cols_mid)
    if n == 0:
        return {}
    out_cols = _int_columns(d_out)
    rels = out_cols[n:]
    r = len(rels)
    up = sorted(range(n), key=cols_mid.__getitem__)
    cycles = []
    for vec in kernel_basis(rels + [out_cols[j] for j in up], d_out.rows):
        top = max(vec)  # the vector's last column, of the largest value
        if top >= r:
            g = {up[k - r]: v for k, v in vec.items() if k >= r}
            cycles.append((cols_mid[up[top - r]], g))
    down = up[::-1]
    pos = {j: p for p, j in enumerate(down)}
    ech = lattice_echelon([{pos[j]: v for j, v in g.items()}
                           for g in _int_columns(d_in)], n)
    bnd = [(cols_mid[down[row]], {down[k]: v for k, v in col.items()})
           for row, col in ech.pivots.items()]
    # p_c keeps the columns of value c, numbered within that value.  On
    # Z n F_c its kernel is Z n F_{c-1}, and a boundary pivot column of
    # value below c has no entry of value c, so piece c is the subquotient
    # of the p_c images of the cycles and boundaries of value exactly c.
    slot, width = [], {}
    for c in cols_mid:
        slot.append(width.get(c, 0))
        width[c] = slot[-1] + 1
    z, b = {}, {}
    for at, vectors in ((z, cycles), (b, bnd)):
        for c, g in vectors:
            at.setdefault(c, []).append(
                {slot[j]: v for j, v in g.items() if cols_mid[j] == c})
    pieces = {}
    for c in sorted(z):
        group, _ = subquotient(z[c], b.get(c, []), width[c], ring)
        if not group.is_trivial():
            pieces[c] = group
    return pieces
