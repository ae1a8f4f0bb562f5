"""Divided-power envelopes of quasi-monic complete intersections and the
filtered de Rham complexes built from them.

The envelope of R = k[x_1..x_n] along relations f_1..f_r is presented
on the forms algebra of the Koszul model (`gammaforms._forms_derivations`
of `koszul_model(pres)`): a word is one of its s-free monomials
x^alpha dx_S gamma^Q(ds), an exponent vector like every monomial of the
package, with alpha reduced.  The weight of a word is |Q|, its exponents
on the ds letters.  On these words the de Rham differential is d - delta:
d(x_i) = dx_i, and -delta(gamma_q(ds_t)) = gamma_{q-1}(ds_t) df_t, one
derivation applied by `dpalgebra._leibniz`.  An image term with an
unreduced x-part is then rewritten by the Presentation's rules
(`models.rewrite`), x_i^{m_i} into lower terms plus a weight bump from
f_t^s gamma_q(ds_t) = ((q+s)!/q!) gamma_{q+s}(ds_t).  Constant relations
c contribute honest module relations c * w = (q_t + 1) * w^{+t} instead
of rewrites.

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

from .dpalgebra import GammaDerivation, _leibniz, _leibniz_table
from .errors import TooManyVariables
from .gammaforms import _forms_derivations
from .linalg import HomologyGroup, SparseMatrix, _int_columns, homology_from_presentation
from .mixed import FilteredGroups
from .models import Presentation, koszul_model, rewrite


@dataclass
class EnvelopeForms:
    """The de Rham differential on words: d - delta on the forms algebra
    of koszul_model(pres), with its table for _leibniz.  A word holds its
    x exponents in slots [0, n) and its gamma exponents from slot q0 on
    (the generators are x, s, dx, ds in that order)."""

    pres: Presentation
    deriv: GammaDerivation
    table: tuple
    n: int
    q0: int


def envelope_forms(pres):
    """The EnvelopeForms that dbar reads."""
    alg, d, delta = _forms_derivations(koszul_model(pres))
    deriv = GammaDerivation(alg, +1, {
        g.name: d.value_of(g.name) + delta.value_of(g.name).scale(-1)
        for g in alg.generators})
    return EnvelopeForms(pres, deriv, _leibniz_table(deriv), len(pres.variables),
                         len(alg.generators) - len(pres.relations))


def dbar(forms, element, weight_cap=None):
    """The gamma-derivation extending de Rham d on envelope forms.

    element: dict word -> coefficient.  Each image term of d - delta is
    rewritten into reduced words; terms whose weight exceeds weight_cap
    are dropped (the quotient by that filtration level), and without a
    cap the result is exact.  Coefficients are not reduced in the ring.
    """
    n, q0, pres = forms.n, forms.q0, forms.pres
    bounds = [(i, m) for i, (_, m, _) in pres.rules.items()]
    out = {}
    for word, coeff in element.items():
        # an image term whose x part is below every rule's bound is a
        # word already; the others go to rewrite, one call per non-x part
        parts = {}
        for img, c in _leibniz(forms.deriv, forms.table, word).items():
            for i, m in bounds:
                if img[i] >= m:
                    parts.setdefault(img[n:], {})[img[:n]] = c
                    break
            else:
                if weight_cap is None or sum(img[q0:]) <= weight_cap:
                    out[img] = out.get(img, 0) + coeff * c
        for rest, terms in parts.items():
            mid = rest[:q0 - n]
            for (alpha, Q), c2 in rewrite(pres, terms, rest[q0 - n:]).items():
                if weight_cap is None or sum(Q) <= weight_cap:
                    key = alpha + mid + Q
                    out[key] = out.get(key, 0) + coeff * c2
    return {w: c for w, c in out.items() if c}


def _weights_upto(r, wmax):
    """Every weight vector of length r with sum at most wmax, by (sum, q)."""
    return sorted((q for q in product(range(wmax + 1), repeat=r) if sum(q) <= wmax),
                  key=lambda q: (sum(q), q))


def _form_words(pres, form_degree, weights):
    """The words x^alpha dx_S gamma^Q(ds) with |S| = form_degree and Q in
    `weights`, ordered by Q as listed, then alpha, then S."""
    n = len(pres.variables)
    s_free = (0,) * len(pres.relations)
    dxs = [tuple(int(i in S) for i in range(n))
           for S in combinations(range(n), form_degree)]
    alphas = sorted(pres.reduced_monomials())
    return [alpha + s_free + dx + Q for Q in weights for alpha in alphas for dx in dxs]


def _weights_exact(pres, w):
    return [q for q in _weights_upto(len(pres.relations), w) if sum(q) == w]


def _relation_vectors(pres, q0, words, index, weight_cap):
    """Module relations on the span of `words` beyond the ring's own: the
    constant-relation bumps c*w = (q_t+1)*w^{+t}, where slot q0 + t holds
    q_t (bump dropped beyond the cap, i.e. in the quotient by that
    filtration level)."""
    rels = []
    for t, c in pres.consts:
        k = q0 + t
        for w in words:
            vec = {index[w]: int(c)}
            if sum(w[q0:]) < weight_cap:
                j = index.get(w[:k] + (w[k] + 1,) + w[k + 1:])
                if j is None:
                    raise AssertionError("bump target missing from word list")
                vec[j] = -(w[k] + 1)
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
        return homology_from_presentation(
            _int_columns(d_in) + rels, _int_columns(d_out) + out_rels,
            n, d_out.rows, ring)


def _build_filtered(forms, p, graded):
    """Shared builder: graded=True gives the level complex (weight
    exactly i at position i), graded=False the prime complex (weight
    at most i, quotient by F_{i+1})."""
    pres, q0 = forms.pres, forms.q0
    positions = []
    for i in range(p + 1):
        weights = (_weights_exact(pres, i) if graded
                   else _weights_upto(len(pres.relations), i))
        words = _form_words(pres, p - i, weights)
        index = {w: j for j, w in enumerate(words)}
        rels = _relation_vectors(pres, q0, words, index, i)
        positions.append((words, index, rels))
    mats = {}
    ring = pres.ring
    for j in range(1, p + 1):
        src_words, _, _ = positions[j]
        tgt_words, tgt_index, _ = positions[j - 1]
        sums = {}
        for col, w in enumerate(src_words):
            for w2, c in dbar(forms, {w: 1}, weight_cap=j - 1).items():
                if graded and sum(w2[q0:]) != j - 1:
                    raise AssertionError("derivation dropped weight by more than one")
                row = tgt_index.get(w2)
                if row is None:
                    raise AssertionError(f"image word {w2} missing at position {j - 1}")
                sums[row, col] = c
        mats[j] = SparseMatrix.from_sums(len(tgt_words), len(src_words), ring, sums)
    return FilteredComplex(pres, p, positions, mats)


def L_complex(pres, p):
    """The level complex of Hodge index p: position i carries the weight-i
    graded piece of the p-i forms."""
    return _build_filtered(envelope_forms(pres), p, graded=True)


def Lprime_complex(pres, p):
    """The truncated complex of Hodge index p: position i carries the
    p-i forms modulo filtration weight i+1."""
    return _build_filtered(envelope_forms(pres), p, graded=False)


def _layer_table(pres, n_max, graded):
    """Totals and layers whose (n, p) entry is the homology of the level
    (graded) or prime complex of Hodge index p at position n - p, all
    built on one EnvelopeForms."""
    forms = envelope_forms(pres)
    layers = {}
    for p in range(n_max + 1):
        cplx = _build_filtered(forms, p, graded)
        # positions run 0..p
        for n in range(p, min(2 * p, n_max) + 1):
            layers[(n, p)] = cplx.homology(n - p)
    return FilteredGroups.of_layers(layers, n_max)


def hodge_hh(pres, n_max):
    """Hochschild homology with its Hodge decomposition: the (n, p) layer
    is the homology of the level complex L^p at position n - p."""
    return _layer_table(pres, n_max, graded=True)


def hc_layers_small(pres, n_max):
    """Cyclic homology layers via the truncated complexes, valid for
    presentations in at most two variables."""
    if len(pres.variables) > 2:
        raise TooManyVariables(
            "the truncated-complex layer formula holds for <= 2 variables; "
            "use the forms-complex cyclic assembly instead")
    return _layer_table(pres, n_max, graded=False)
