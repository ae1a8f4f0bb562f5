"""Divided-power envelopes of quasi-monic complete intersections and the
filtered de Rham complexes built from them.

The envelope of R = k[x_1..x_n] along relations f_1..f_r is presented
on formal words gamma^Q(f) x^alpha with alpha reduced.  Words are
(alpha, Q, S): reduced variable exponents, one gamma exponent per
relation, and a sorted tuple of form indices (the dx factors); the
weight of a word is sum(Q).  Multiplying an unreduced coefficient back
in rewrites x_i^{m_i} into (lower terms plus a weight bump), using
f_i^s gamma_q(f_i) = ((q+s)!/q!) gamma_{q+s}(f_i); the rules and the
rewrite loop are the Presentation's (`models.rewrite`).  Constant
relations c contribute honest module relations
c * w = (q_t + 1) * w^{+t} instead of rewrites.

The gamma-filtration is by total weight |Q|.  From its graded pieces
and truncated quotients we build, for each Hodge index p, two chain
complexes over k:

  level complex   position i holds  F_i Omega^{p-i} / F_{i+1}   (graded)
  prime complex   position i holds  Omega^{p-i} / F_{i+1}       (truncated)

with the induced derivation lowering the position.  Homology of the
level complex at position n - p gives the weight-p Hodge layer of
Hochschild homology in degree n; the prime complex plays the same role
on the cyclic side (exactly, for at most two variables).  Every
function here takes a quasi-monic `Presentation`.
"""

from dataclasses import dataclass
from itertools import combinations, product

from .errors import TooManyVariables
from .linalg import HomologyGroup, SparseMatrix, _int_columns, homology_from_presentation
from .mixed import FilteredGroups
from .models import Presentation, rewrite


def dbar(pres, element, weight_cap=None):
    """The gamma-derivation extending de Rham d on envelope forms.

    element: dict word -> integer coefficient.  Terms whose weight
    exceeds weight_cap are dropped (the quotient by that filtration
    level); without a cap the result is exact.
    """
    variables = pres.variables
    relations = pres.relations
    out = {}

    def add(word, c):
        if c:
            out[word] = out.get(word, 0) + c
            if out[word] == 0:
                del out[word]

    for (alpha, Q, S), coeff in element.items():
        # de Rham part on the reduced coefficient
        if weight_cap is None or sum(Q) <= weight_cap:
            for j, a in enumerate(alpha):
                if a == 0 or j in S:
                    continue
                sign = (-1) ** sum(1 for s in S if s < j)
                na = tuple(v - (1 if i == j else 0) for i, v in enumerate(alpha))
                ns = tuple(sorted(S + (j,)))
                add((na, Q, ns), coeff * a * sign)
        # gamma part: gamma_q(f_t) -> gamma_{q-1}(f_t) df_t
        for t, q in enumerate(Q):
            if q == 0:
                continue
            rel = relations[t]
            Qm = tuple(v - (1 if i == t else 0) for i, v in enumerate(Q))
            for j in range(len(variables)):
                if j in S:
                    continue
                dpart = {}
                for exps, c in rel.items():
                    if exps[j]:
                        ne = tuple(v - (1 if i == j else 0)
                                   for i, v in enumerate(exps))
                        dpart[ne] = dpart.get(ne, 0) + c * exps[j]
                if not dpart:
                    continue
                shifted = {tuple(a + b for a, b in zip(alpha, e)): c
                           for e, c in dpart.items()}
                sign = (-1) ** sum(1 for s in S if s < j)
                ns = tuple(sorted(S + (j,)))
                for (na, nq), c in rewrite(pres, shifted, Qm).items():
                    if weight_cap is not None and sum(nq) > weight_cap:
                        continue
                    add((na, nq, ns), coeff * c * sign)
    return out


def _weights_upto(r, wmax):
    """Every weight vector of length r with sum at most wmax, by (sum, q)."""
    return sorted((q for q in product(range(wmax + 1), repeat=r) if sum(q) <= wmax),
                  key=lambda q: (sum(q), q))


def _form_words(pres, form_degree, weights):
    """Words with the given dx-degree and gamma weight in `weights`."""
    nvars = len(pres.variables)
    if form_degree > nvars or form_degree < 0:
        return []
    words = []
    ss = list(combinations(range(nvars), form_degree))
    for alpha in pres.reduced_monomials():
        for Q in weights:
            for S in ss:
                words.append((alpha, Q, tuple(S)))
    words.sort(key=lambda w: (sum(w[1]), w[1], w[0], w[2]))
    return words


def _weights_exact(pres, w):
    return [q for q in _weights_upto(len(pres.relations), w) if sum(q) == w]


def _relation_vectors(pres, words, index, weight_cap):
    """Module relations on the span of `words` beyond the ring's own: the
    constant-relation bumps c*w = (q_t+1)*w^{+t} (bump dropped beyond
    the cap, i.e. in the quotient by that filtration level)."""
    rels = []
    for t, c in pres.consts:
        for w in words:
            alpha, Q, S = w
            vec = {index[w]: int(c)}
            bumped = tuple(q + (1 if i == t else 0) for i, q in enumerate(Q))
            if weight_cap is None or sum(bumped) <= weight_cap:
                w2 = (alpha, bumped, S)
                j = index.get(w2)
                if j is None:
                    raise AssertionError("bump target missing from word list")
                vec[j] = vec.get(j, 0) - (Q[t] + 1)
            if vec:
                rels.append(vec)
    return rels


@dataclass
class FilteredComplex:
    """A chain complex of presented k-modules, positions 0..p, with the
    differential lowering the position by one."""

    pres: Presentation
    hodge: int
    positions: list      # list of (words, index, relation vectors)
    mats: dict           # j -> SparseMatrix, position j -> j-1

    def homology(self, j):
        if j < 0 or j > self.hodge:
            return HomologyGroup(0, ())
        words, _, rels = self.positions[j]
        n = len(words)
        if n == 0:
            return HomologyGroup(0, ())
        ring = self.pres.ring
        # a missing map is zero: positions run 0..hodge
        d_in = self.mats.get(j + 1, SparseMatrix(n, 0, ring))
        d_out = self.mats.get(j, SparseMatrix(0, n, ring))
        out_rels = self.positions[j - 1][2] if j >= 1 else []
        group, _ = homology_from_presentation(
            _int_columns(d_in) + rels, _int_columns(d_out) + out_rels,
            n, d_out.rows, ring)
        return group


def _build_filtered(pres, p, graded):
    """Shared builder: graded=True gives the level complex (weight
    exactly i at position i), graded=False the prime complex (weight
    at most i, quotient by F_{i+1})."""
    positions = []
    for i in range(p + 1):
        weights = (_weights_exact(pres, i) if graded
                   else _weights_upto(len(pres.relations), i))
        words = _form_words(pres, p - i, weights)
        index = {w: j for j, w in enumerate(words)}
        rels = _relation_vectors(pres, words, index, i)
        positions.append((words, index, rels))
    mats = {}
    ring = pres.ring
    for j in range(1, p + 1):
        src_words, _, _ = positions[j]
        tgt_words, tgt_index, _ = positions[j - 1]
        mat = SparseMatrix(len(tgt_words), len(src_words), ring)
        for col, w in enumerate(src_words):
            img = dbar(pres, {w: 1}, weight_cap=j - 1)
            for w2, c in img.items():
                if graded and sum(w2[1]) != j - 1:
                    raise AssertionError("derivation dropped weight by more than one")
                row = tgt_index.get(w2)
                if row is None:
                    raise AssertionError(f"image word {w2} missing at position {j - 1}")
                mat.add_at(row, col, c)
        mats[j] = mat
    return FilteredComplex(pres, p, positions, mats)


def L_complex(pres, p):
    """The level complex of Hodge index p: position i carries the weight-i
    graded piece of the p-i forms."""
    return _build_filtered(pres, p, graded=True)


def Lprime_complex(pres, p):
    """The truncated complex of Hodge index p: position i carries the
    p-i forms modulo filtration weight i+1."""
    return _build_filtered(pres, p, graded=False)


def _layer_table(pres, n_max, make_complex):
    """Totals and layers whose (n, p) entry is the homology of the
    complex make_complex(pres, p) at position n - p."""
    layers = {}
    totals = {}
    complexes = {}
    for n in range(n_max + 1):
        parts = []
        for p in range(n + 1):
            j = n - p
            if j > p:
                continue  # positions run 0..p
            if p not in complexes:
                complexes[p] = make_complex(pres, p)
            g = complexes[p].homology(j)
            if not g.is_trivial():
                layers[(n, p)] = g
            parts.append(g)
        totals[n] = HomologyGroup(0, ()).direct_sum(*parts)
    return FilteredGroups(totals, layers)


def hodge_hh(pres, n_max):
    """Hochschild homology with its Hodge decomposition: the (n, p) layer
    is the homology of the level complex L^p at position n - p."""
    return _layer_table(pres, n_max, L_complex)


def hc_layers_small(pres, n_max):
    """Cyclic homology layers via the truncated complexes, valid for
    presentations in at most two variables."""
    if len(pres.variables) > 2:
        raise TooManyVariables(
            "the truncated-complex layer formula holds for <= 2 variables; "
            "use the forms-complex cyclic assembly instead")
    return _layer_table(pres, n_max, Lprime_complex)
