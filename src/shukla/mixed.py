"""Double mixed complexes and their homology.

A double mixed complex is a bigraded family of finite free slices
M_{p,q} with three pairwise anticommuting square-zero maps: D lowers q,
del lowers p, B raises q.  Hochschild homology totalizes (D, del);
cyclic homology totalizes the shifted double complex whose (P, Q) entry
is the sum of M_{P-i, Q-i}, with B feeding copy i into copy i-1 (and
falling off the i = 0 copy).

Hodge-filtration layers are read off the column filtration of the total
complex directly: the (n, p) layer is the p-th graded piece of H_n,
computed as an exact subquotient of integer lattices.
"""

from dataclasses import dataclass, field

from .errors import WindowTooSmall
from .linalg import (
    HomologyGroup, SparseMatrix, _int_columns, homology_at, kernel_basis, subquotient,
)


@dataclass
class DoubleMixedComplex:
    """Finite window of a double mixed complex.

    slices maps (p, q) to a tuple of opaque basis labels; missing keys
    are zero slices.  Every slice with p + q <= window_total is present
    or genuinely zero.  maps_d, maps_del, maps_b map (p, q) to the
    matrix leaving that slice; missing maps are zero.
    """

    ring: object
    slices: dict
    maps_d: dict = field(default_factory=dict)
    maps_del: dict = field(default_factory=dict)
    maps_b: dict = field(default_factory=dict)
    window_total: int = 0

    def dim(self, p, q):
        if p < 0 or q < 0:
            return 0
        s = self.slices.get((p, q))
        return len(s) if s else 0

    def _map(self, table, p, q, tp, tq):
        m = table.get((p, q))
        if m is not None:
            return m
        return SparseMatrix(self.dim(tp, tq), self.dim(p, q), self.ring)

    def map_d(self, p, q):
        return self._map(self.maps_d, p, q, p, q - 1)

    def map_del(self, p, q):
        return self._map(self.maps_del, p, q, p - 1, q)

    def map_b(self, p, q):
        return self._map(self.maps_b, p, q, p, q + 1)

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


def validate(M):
    """Check all seven identities on the window interior.

    D^2 = del^2 = B^2 = 0, the three anticommutators vanish, and the
    assembled total boundary squares to zero.  A failed result names
    the first failing identity and slice.
    """
    W = M.window_total
    keys = sorted(k for k in M.slices if M.dim(*k))
    checks = (
        ("D^2", lambda p, q: M.map_d(p, q - 1) * M.map_d(p, q), 0),
        ("del^2", lambda p, q: M.map_del(p - 1, q) * M.map_del(p, q), 0),
        ("B^2", lambda p, q: M.map_b(p, q + 1) * M.map_b(p, q), 2),
        ("D*del + del*D",
         lambda p, q: M.map_d(p - 1, q) * M.map_del(p, q)
         + M.map_del(p, q - 1) * M.map_d(p, q), 0),
        ("B*del + del*B",
         lambda p, q: M.map_b(p - 1, q) * M.map_del(p, q)
         + M.map_del(p, q + 1) * M.map_b(p, q), 1),
        ("D*B + B*D",
         lambda p, q: M.map_d(p, q + 1) * M.map_b(p, q)
         + M.map_b(p, q - 1) * M.map_d(p, q), 1),
    )
    for name, comp, slack in checks:
        for (p, q) in keys:
            if p + q > W - slack:
                continue
            if not comp(p, q).is_zero():
                return ValidationResult(False, name, (p, q))
    d = {n: _total_matrix(M, n) for n in range(1, W)}
    for n in range(1, W - 1):
        if not (d[n] * d[n + 1]).is_zero():
            return ValidationResult(False, "total boundary squared", (n + 1,))
    return ValidationResult(True)


def _total_summands(M, n):
    return [(p, n - p) for p in range(n + 1) if M.dim(p, n - p)]


def _offsets(summands, dims):
    offs = {}
    total = 0
    for s, d in zip(summands, dims):
        offs[s] = total
        total += d
    return offs, total


def _total_matrix(M, n):
    """Boundary Tot_n -> Tot_{n-1} of the (D, del) double complex."""
    src = _total_summands(M, n)
    tgt = _total_summands(M, n - 1)
    soff, sdim = _offsets(src, [M.dim(*s) for s in src])
    toff, tdim = _offsets(tgt, [M.dim(*t) for t in tgt])
    out = SparseMatrix(tdim, sdim, M.ring)
    for (p, q) in src:
        for mat, (tp, tq) in ((M.map_d(p, q), (p, q - 1)),
                              (M.map_del(p, q), (p - 1, q))):
            if (tp, tq) in toff and mat.entries:
                r0 = toff[(tp, tq)]
                c0 = soff[(p, q)]
                for (i, j), v in mat.entries.items():
                    out.add_at(r0 + i, c0 + j, v)
    return out


def _homology_series(d, ring):
    """ker d[n] / im d[n + 1] for every n below the last boundary."""
    return [homology_at(d[n + 1], d[n], ring) for n in range(len(d) - 1)]


def hochschild_total(M, n_max, boundaries=None):
    """HH_n(M) for 0 <= n <= n_max via the (D, del) totalization.

    boundaries, when given, are the _total_matrix(M, n) for
    0 <= n <= n_max + 1, already built by the caller.
    """
    M.require_window(n_max)
    d = boundaries
    if d is None:
        d = [_total_matrix(M, n) for n in range(n_max + 2)]
    return _homology_series(d, M.ring)


def _cyclic_summands(M, n):
    """Summands (i, p, q) of Tot_n of the shifted double complex."""
    out = []
    i = 0
    while n - 2 * i >= 0:
        t = n - 2 * i
        for p in range(t + 1):
            q = t - p
            if M.dim(p, q):
                out.append((i, p, q))
        i += 1
    return out


def _cyclic_matrix(M, n):
    src = _cyclic_summands(M, n)
    tgt = _cyclic_summands(M, n - 1)
    soff, sdim = _offsets(src, [M.dim(p, q) for _, p, q in src])
    toff, tdim = _offsets(tgt, [M.dim(p, q) for _, p, q in tgt])
    out = SparseMatrix(tdim, sdim, M.ring)
    for (i, p, q) in src:
        blocks = [(M.map_d(p, q), (i, p, q - 1)),
                  (M.map_del(p, q), (i, p - 1, q))]
        if i >= 1:
            blocks.append((M.map_b(p, q), (i - 1, p, q + 1)))
        for mat, t in blocks:
            if t in toff and mat.entries:
                r0 = toff[t]
                c0 = soff[(i, p, q)]
                for (r, c), v in mat.entries.items():
                    out.add_at(r0 + r, c0 + c, v)
    return out


def cyclic_total(M, n_max, boundaries=None):
    """HC_n(M) for 0 <= n <= n_max.

    boundaries, when given, are the _cyclic_matrix(M, n) for
    0 <= n <= n_max + 1, already built by the caller.
    """
    M.require_window(n_max)
    d = boundaries
    if d is None:
        d = [_cyclic_matrix(M, n) for n in range(n_max + 2)]
    return _homology_series(d, M.ring)


@dataclass
class E1Term:
    """Slice homology of the D-direction, plus the complex itself when D = 0."""

    groups: dict
    complex: DoubleMixedComplex = None


def e1_term(M):
    """Column homology H_q(M_{p,*}, D) as a new page.

    When D = 0 the page is the complex itself (with its del and B); in
    general only the slice groups are returned, which is all the
    pipelines downstream consume.
    """
    groups = {}
    for (p, q) in sorted(M.slices):
        if not M.dim(p, q):
            continue
        groups[(p, q)] = homology_at(M.map_d(p, q + 1), M.map_d(p, q), M.ring)
    if all(m.is_zero() for m in M.maps_d.values()):
        return E1Term(groups, M)
    return E1Term(groups, None)


def cyclic_e2(M, n_max):
    """Row homology of the shifted double complex (requires D = 0).

    Returns a dict (p, q) -> group: the homology at column p of row q
    under the boundary B + del.  On a complex with D = 0 this is the
    second page of the cyclic column-filtration spectral sequence.
    """
    if not all(m.is_zero() for m in M.maps_d.values()):
        raise ValueError("cyclic_e2 needs a complex with zero D")

    def row_matrix(a, b):
        # column a of row b maps to column a-1
        src = [(i, a - i, b - i) for i in range(b + 1)
               if a - i >= 0 and M.dim(a - i, b - i)]
        tgt = [(i, a - 1 - i, b - i) for i in range(b + 1)
               if a - 1 - i >= 0 and M.dim(a - 1 - i, b - i)]
        soff, sdim = _offsets(src, [M.dim(p, q) for _, p, q in src])
        toff, tdim = _offsets(tgt, [M.dim(p, q) for _, p, q in tgt])
        out = SparseMatrix(tdim, sdim, M.ring)
        for (i, p, q) in src:
            blocks = [(M.map_del(p, q), (i, p - 1, q))]
            if i >= 1:
                blocks.append((M.map_b(p, q), (i - 1, p, q + 1)))
            for mat, t in blocks:
                if t in toff and mat.entries:
                    r0, c0 = toff[t], soff[(i, p, q)]
                    for (r, c), v in mat.entries.items():
                        out.add_at(r0 + r, c0 + c, v)
        return out

    out = {}
    for b in range(n_max + 1):
        for a in range(n_max + 1 - b):
            d_in = row_matrix(a + 1, b)
            d_out = row_matrix(a, b)
            out[(a, b)] = homology_at(d_in, d_out, M.ring)
    return out


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


def filtration_layers(M, n_max, mode):
    """Hodge layers from the column filtration of the total complex.

    mode "hh" filters Tot(D, del); mode "hc" filters the shifted cyclic
    totalization.  The (n, p) layer is the graded piece of H_n whose
    column index is n - p, i.e. whose complementary (weight) index is p.
    """
    if mode not in ("hh", "hc"):
        raise ValueError("mode must be 'hh' or 'hc'")
    M.require_window(n_max)
    ring = M.ring
    if mode == "hh" and all(m.is_zero() for m in M.maps_d.values()):
        return _layers_split_by_weight(M, n_max)
    if mode == "hh":
        d = [_total_matrix(M, n) for n in range(n_max + 2)]
        totals = hochschild_total(M, n_max, d)
        columns = [[p for (p, q) in _total_summands(M, n) for _ in range(M.dim(p, q))]
                   for n in range(n_max + 1)]
    else:
        d = [_cyclic_matrix(M, n) for n in range(n_max + 2)]
        totals = cyclic_total(M, n_max, d)
        columns = [[p + i for (i, p, q) in _cyclic_summands(M, n)
                    for _ in range(M.dim(p, q))] for n in range(n_max + 1)]
    layers = {}
    for n in range(n_max + 1):
        pieces = _column_graded_pieces(d[n + 1], d[n], columns[n], ring)
        for c, g in pieces.items():
            if not g.is_trivial():
                layers[(n, n - c)] = g
    return FilteredGroups({n: g for n, g in enumerate(totals)}, layers)


def _layers_split_by_weight(M, n_max):
    """With D = 0 and del preserving q, the filtration splits by q."""
    totals = {}
    layers = {}
    for n in range(n_max + 1):
        parts = []
        for q in range(n + 1):
            p = n - q
            h = homology_at(M.map_del(p + 1, q), M.map_del(p, q), M.ring)
            if not h.is_trivial():
                layers[(n, q)] = h
            parts.append(h)
        totals[n] = HomologyGroup(0, ()).direct_sum(*parts)
    return FilteredGroups(totals, layers)


def _column_graded_pieces(d_in, d_out, cols_mid, ring):
    """Graded pieces of H = ker(d_out)/im(d_in) for the filtration by
    column value: piece c = (Z n F_c) / (Z n F_{c-1} + B n F_c)."""
    n = len(cols_mid)
    if n == 0:
        return {}
    out_cols = _int_columns(d_out)
    target_rels = out_cols[n:]
    gens_in = [g for g in _int_columns(d_in) if g]
    pieces = {}
    prev_cycles = []
    for c in range(max(cols_mid) + 1):
        keep = [j for j, cv in enumerate(cols_mid) if cv <= c]
        if not keep:
            continue
        # cycles supported in F_c: kernel of d_out restricted to F_c columns
        kb = kernel_basis([out_cols[j] for j in keep] + target_rels, d_out.rows)
        cycles = []
        for vec in kb:
            g = {keep[jj]: v for jj, v in vec.items() if jj < len(keep)}
            if g:
                cycles.append(g)
        # boundaries landing in F_c: combinations of gens_in whose image
        # avoids the complement of F_c
        outside = {j for j, cv in enumerate(cols_mid) if cv > c}
        if outside:
            proj = [{r: v for r, v in g.items() if r in outside} for g in gens_in]
            bnd = []
            for vec in kernel_basis(proj, n):
                img = {}
                for jj, v in vec.items():
                    for r, w in gens_in[jj].items():
                        nv = img.get(r, 0) + v * w
                        if nv:
                            img[r] = nv
                        else:
                            img.pop(r, None)
                if img:
                    bnd.append(img)
        else:
            bnd = gens_in
        group, _ = subquotient(cycles, prev_cycles + bnd, n, ring)
        if not group.is_trivial():
            pieces[c] = group
        prev_cycles = cycles
    return pieces
