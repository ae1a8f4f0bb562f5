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

When b keeps the weight and B raises it by one, copy i of slice (m, w)
has shifted weight w + i, and b and B both keep it.  The totalization is
then a direct sum of blocks, one per shifted weight, and the Hodge layer
(n, p) of HC_n is the homology of block p at degree n.

The three identities b^2 = 0, B^2 = 0 and bB + Bb = 0 are checked once
per source slice: its paths of two blocks are grouped by target slice,
and linalg.composite_is_zero sums each group's products column by
column without forming a product matrix (bB and Bb land in one
accumulator).  MixedComplex.verified records, per identity, the highest
degree checked so far, so the homology sweeps re-check no slice that
validate or an earlier sweep has checked.  The slices they need are
exactly those the boundary products of the sweep would cover.  HH_n for
n <= N checks b^2 through degree N + 1.  On the cyclic totalization,
D = b + B applied twice to copy i of slice s gives three pieces: b^2 x
in copy i, (bB + Bb) x in copy i - 1 (present only when i >= 1) and
B^2 x in copy i - 2 (only when i >= 2).  They land in different
summands, so D^2 = 0 out of total degree n + 1 <= N + 1 is
b^2 = 0 through degree N + 1, bB + Bb = 0 through N - 1 and B^2 = 0
through N - 3, each slice once rather than once per copy.
"""

from dataclasses import dataclass, field
from functools import cached_property

from .errors import CompositionNonzero, HypothesisViolated, WindowTooSmall
# homology_at stays bound here because perfbench's tracer test reads
# mixed.homology_at; chain_homology calls it in linalg
from .linalg import (
    HomologyGroup, SparseMatrix, _int_columns, chain_homology,
    composite_is_zero, homology_at, kernel_basis, subquotient,
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

    verified maps each identity ("b^2", "B^2", "bB + Bb") to the highest
    source degree on which it has been checked; the sweeps check only the
    slices above it.  A caller who changes a block afterwards calls
    validate again, which clears the record.
    """

    ring: object
    slices: dict
    b: dict = field(default_factory=dict)
    build_B: object = dict
    window_total: int = 0
    verified: dict = field(default_factory=dict, compare=False, repr=False)

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


# the (first, second) block tables whose composites sum to each identity
_IDENTITIES = {
    "b^2": (("b", "b"),),
    "B^2": (("B", "B"),),
    "bB + Bb": (("B", "b"), ("b", "B")),
}


def _first_failure(M, name, top):
    """Check identity name on the nonzero slices of degree at most top
    that M.verified does not cover yet, one source slice at a time: the
    (first, second) blocks of its paths are grouped by target slice, and
    each group's sum of products goes to composite_is_zero.

    Returns the first failing slice, or None once the identity holds
    through degree top, which M.verified then records.  Only the tables
    the identity reads are touched, so b^2 never builds B.
    """
    done = M.verified.get(name)
    if done is not None and top <= done:
        return None
    pairs = _IDENTITIES[name]
    tables = {t: _leaving(getattr(M, t)) for t in {t for pair in pairs for t in pair}}
    paths = [(tables[first], tables[second]) for first, second in pairs]
    for s in sorted(k for k in M.slices if M.dim(*k)):
        if (done is None or s[0] > done) and s[0] <= top:
            legs = {}
            for first, second in paths:
                for t, m1 in first.get(s, ()):
                    for u, m2 in second.get(t, ()):
                        legs.setdefault(u, []).append((m1, m2))
            if not all(composite_is_zero(group, M.ring) for group in legs.values()):
                return s
    M.verified[name] = top
    return None


def _require(M, name, top):
    """Raise CompositionNonzero unless identity name holds through degree top."""
    s = _first_failure(M, name, top)
    if s is not None:
        raise CompositionNonzero(f"{name} != 0 on slice {s}")


def validate(M):
    """Check b^2 = 0, B^2 = 0 and bB + Bb = 0 on the window interior.

    The record of what was checked is cleared first, so a complex whose
    blocks changed is checked again in full.  Each source slice is
    checked on its own, and no product matrix is formed.  A failed result
    names the first failing identity and slice.
    """
    M.verified.clear()
    for name, slack in (("b^2", 0), ("B^2", 2), ("bB + Bb", 1)):
        s = _first_failure(M, name, M.window_total - slack)
        if s is not None:
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
    _require(M, "b^2", n_max + 1)
    by_weight = {}
    for w in {w for (n, w) in M.slices if n <= n_max and M.dim(n, w)}:
        ds = [_total_matrix(M, n, w) for n in range(n_max + 2)]
        by_weight[w] = chain_homology(ds, M.ring, checked=True)
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
    for name, top in (("b^2", n_max + 1), ("B^2", n_max - 3), ("bB + Bb", n_max - 1)):
        _require(M, name, top)
    return chain_homology(d, M.ring, checked=True)


def cyclic_layers(M, n_max):
    """HC_n(M) for 0 <= n <= n_max and its Hodge layers.

    Copy i of slice (m, w) has shifted weight p = w + i, which b and B
    keep when B raises the weight by one, so the (n, p) layer is the
    homology of block p at degree n.  A complex that does not split so
    (the bar complex, whose B keeps the weight) raises HypothesisViolated.
    """
    if (any(s[1] != t[1] for s, t in M.b)
            or any(s[1] + 1 != t[1] for s, t in M.B)):
        raise HypothesisViolated(
            "Hodge layers need b to keep the weight and B to raise it by one")
    M.require_window(n_max)
    d = [_cyclic_matrix(M, n) for n in range(n_max + 2)]
    totals = cyclic_total(M, n_max, d)
    layers = {}
    for n in range(n_max + 1):
        weights = [w + i for (i, (m, w)) in _cyclic_summands(M, n)
                   for _ in range(M.dim(m, w))]
        pieces = _column_graded_pieces(d[n + 1], d[n], weights, M.ring)
        layers.update(((n, p), g) for p, g in pieces.items())
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
    """Homology of ker(d_out)/im(d_in) at the middle columns of each value
    c, for a complex that splits by value: every column of d_out and of
    d_in reaches the rows of one block only.

    Each value takes one kernel, of the d_out columns of its block (over
    Z/m with the relations of the rows they reach), and one subquotient
    by the d_in columns that land in it.
    """
    n = len(cols_mid)
    out_cols = _int_columns(d_out)
    rels = out_cols[n:]
    blocks, slot = {}, []
    for j, c in enumerate(cols_mid):
        block = blocks.setdefault(c, [])
        slot.append(len(block))
        block.append(j)
    bnd = {}
    for col in _int_columns(d_in):
        if col:
            bnd.setdefault(cols_mid[next(iter(col))], []).append(
                {slot[j]: v for j, v in col.items()})
    pieces = {}
    for c, mid in sorted(blocks.items()):
        cols = [out_cols[j] for j in mid]
        if rels:
            cols += [rels[i] for i in sorted({i for col in cols for i in col})]
        cycles = [{k: v for k, v in vec.items() if k < len(mid)}
                  for vec in kernel_basis(cols, d_out.rows)]
        group, _ = subquotient(cycles, bnd.get(c, []), len(mid), ring)
        if not group.is_trivial():
            pieces[c] = group
    return pieces
