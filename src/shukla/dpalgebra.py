"""The free strictly graded-commutative algebra with divided powers.

Generators come in three kinds: polynomial (even degree, unrestricted
powers), exterior (odd degree, square zero) and divided-power (even
degree, powers only through gamma^q).  A monomial is its exponent
vector, a tuple with one int per generator in table order (the divided
power gamma^e of a letter has exponent e); elements are sparse linear
combinations of monomials with exact coefficients.

Sign convention, fixed once for the whole package: operators act on the
left, and moving an odd operator or letter past an odd letter costs a
factor of -1.  Derivations of odd parity therefore satisfy
D(ab) = D(a) b + (-1)^|a| a D(b), and on a divided power
D(gamma_q(v)) = gamma_{q-1}(v) D(v).
"""

from dataclasses import dataclass
from itertools import count
from math import comb
from operator import add

from .errors import TruncationOverflow, UndefinedGenerator
from .linalg import SparseMatrix

POLYNOMIAL = "poly"
EXTERIOR = "ext"
DIVIDED_POWER = "dp"


@dataclass(frozen=True)
class Generator:
    """One free generator.

    weight marks the divided-power weight grading (1 on d-generators,
    0 elsewhere); poly_weight is the generator's contribution to the
    polynomial truncation degree used to cut infinite slices down to
    finite windows.
    """

    name: str
    hdeg: int
    kind: str
    weight: int = 0
    poly_weight: int = 0


class GradedAlgebra:
    """A finite generator table with multiplication rules attached."""

    def __init__(self, ring, generators):
        self.ring = ring
        self.generators = tuple(generators)
        self.index = {}
        for i, g in enumerate(self.generators):
            if g.name in self.index:
                raise ValueError(f"duplicate generator {g.name!r}")
            if g.kind == EXTERIOR and g.hdeg % 2 == 0:
                raise ValueError(f"exterior generator {g.name!r} must have odd degree")
            if g.kind in (POLYNOMIAL, DIVIDED_POWER) and g.hdeg % 2:
                raise ValueError(f"{g.kind} generator {g.name!r} must have even degree")
            if g.kind == DIVIDED_POWER and g.hdeg == 0:
                raise ValueError("divided-power generators need positive degree")
            self.index[g.name] = i

    def gen(self, name):
        return self.generators[self.index[name]]

    def monomial(self, letters):
        """The exponent vector of a product of (name, exp) letters, exps >= 0."""
        vec = [0] * len(self.generators)
        for name, exp in letters:
            i = self.index.get(name)
            if i is None:
                raise ValueError(f"unknown generator {name!r}")
            if exp < 0:
                raise ValueError("negative exponent")
            vec[i] += exp
        for g, e in zip(self.generators, vec):
            if g.kind == EXTERIOR and e > 1:
                raise ValueError("exterior square is zero; build via mul instead")
        return tuple(vec)

    def element(self, terms):
        """Element from {monomial-or-letter-list: coefficient}.

        Keys may be exponent vectors or letter lists ((name, exp)
        pairs), which are turned into vectors first.
        """
        e = Element(self)
        for mono, c in terms.items():
            if not mono or not isinstance(mono[0], int):
                mono = self.monomial(mono)
            elif len(mono) != len(self.generators):
                raise ValueError(f"exponent vector {mono} has the wrong length")
            e._add_term(mono, c)
        return e

    def embed(self, element):
        """An element of an algebra whose generator table begins this
        one's, as an element of this algebra: its exponent vectors are
        padded with zeros."""
        gens = element.algebra.generators
        if self.generators[:len(gens)] != gens:
            raise ValueError("the element's generators do not begin this algebra's")
        pad = (0,) * (len(self.generators) - len(gens))
        return Element(self, {m + pad: c for m, c in element.terms.items()})

    def one(self):
        return self.element({(): 1})

    def gen_element(self, name, exp=1):
        return self.element({self.monomial([(name, exp)]): 1})

    def mono_hdeg(self, mono):
        return sum(g.hdeg * e for g, e in zip(self.generators, mono))

    def mono_poly_weight(self, mono):
        return sum(g.poly_weight * e for g, e in zip(self.generators, mono))

    def mono_mul(self, m1, m2):
        """Product of monomials: (integer coefficient, monomial or None).

        The sign counts the pairs of odd letters, one of m1 above one of
        m2, that the product moves past each other.
        """
        coeff = 1
        odd2 = 0  # odd letters of m2 below the current index
        out = []
        for g, a, b in zip(self.generators, m1, m2):
            if g.kind == EXTERIOR:
                if a and b:
                    return 0, None
                if a and odd2 & 1:
                    coeff = -coeff
                odd2 += b
            elif a and b and g.kind == DIVIDED_POWER:
                coeff *= comb(a + b, a)
            out.append(a + b)
        return coeff, tuple(out)

    def mono_str(self, mono):
        parts = []
        for g, e in zip(self.generators, mono):
            if not e:
                continue
            if g.kind == DIVIDED_POWER and e > 1:
                parts.append(f"g{e}({g.name})")
            elif e > 1:
                parts.append(f"{g.name}^{e}")
            else:
                parts.append(g.name)
        return "*".join(parts) if parts else "1"


class Element:
    """Sparse linear combination of monomials with exact coefficients."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms=None):
        self.algebra = algebra
        self.terms = dict(terms) if terms else {}

    def _add_term(self, mono, coeff):
        ring = self.algebra.ring
        c = ring.add(self.terms.get(mono, 0), coeff)
        if ring.is_zero(c):
            self.terms.pop(mono, None)
        else:
            self.terms[mono] = c

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = Element(self.algebra, self.terms)
        for m, c in other.terms.items():
            out._add_term(m, c)
        return out

    def scale(self, c):
        ring = self.algebra.ring
        c = ring.normalize(c)
        out = Element(self.algebra)
        if c == 0:
            return out
        for m, v in self.terms.items():
            out._add_term(m, ring.mul(v, c))
        return out

    def __mul__(self, other):
        alg = self.algebra
        ring = alg.ring
        out = Element(alg)
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                k, m = alg.mono_mul(m1, m2)
                if m is None or k == 0:
                    continue
                out._add_term(m, ring.mul(ring.mul(c1, c2), k))
        return out

    def __eq__(self, other):
        return isinstance(other, Element) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms):
            c = self.terms[m]
            bits.append(f"{c}*{self.algebra.mono_str(m)}")
        return " + ".join(bits)


class GammaDerivation:
    """A derivation of odd parity compatible with divided powers."""

    def __init__(self, algebra, parity, values):
        if parity not in (1, -1):
            raise ValueError("parity must be +1 or -1")
        self.algebra = algebra
        self.parity = parity
        self.values = dict(values)

    def value_of(self, name):
        try:
            return self.values[name]
        except KeyError:
            raise UndefinedGenerator(f"no value for generator {name!r}") from None


def _leibniz_table(deriv):
    """The derivation read once for _leibniz: per generator whether it is
    exterior (the odd letters) and whether divided-power, and its value
    as a list of (letters, coefficient, odd letters), or None when the
    derivation gives it no value.  The letters of a value term are its
    nonzero (index, exponent) entries."""
    gens = deriv.algebra.generators
    values = []
    for g in gens:
        val = deriv.values.get(g.name)
        if val is None:
            values.append(None)
            continue
        terms = []
        for m, c in val.terms.items():
            letters = tuple((j, b) for j, b in enumerate(m) if b)
            terms.append((letters, c,
                          tuple(j for j, _ in letters if gens[j].kind == EXTERIOR)))
        values.append(terms)
    return ([g.kind == EXTERIOR for g in gens],
            [g.kind == DIVIDED_POWER for g in gens],
            values)


def _leibniz(deriv, table, mono):
    """A gamma-derivation on one monomial: {monomial: coefficient}.

    Letter by letter, D(prefix * g^e * suffix) contributes
    (-1)^|prefix| prefix * g^(e-1) * D(g) * suffix, times e for a
    polynomial letter.  A value term v lands on mono - e_g + v.  Sorting
    v's odd letters into place crosses the odd letters of the rest that
    lie strictly between them and g (prefix ones above them, suffix ones
    below them); a divided-power letter already present with exponent a
    gains comb(a + b, a), and an exterior letter already present gives
    0.  Coefficients are not reduced in the ring, and an image may carry
    a zero sum.  table is _leibniz_table(deriv).
    """
    ext, dp, values = table
    out = {}
    odd_below = 0
    # odd_cum[k]: the odd letters of mono below index k, built on first use
    odd_cum = None
    for i, e in enumerate(mono):
        if not e:
            continue
        terms = values[i]
        if terms is None:
            # raises UndefinedGenerator
            deriv.value_of(deriv.algebra.generators[i].name)
        if terms:
            base = list(mono)
            base[i] = e - 1
            # e for a polynomial letter, and an exterior one has e = 1
            factor = 1 if dp[i] else e
            if odd_below & 1:
                factor = -factor
            for letters, c, odd in terms:
                img = base[:]
                k = factor * c
                for j, b in letters:
                    a = img[j]
                    if a:
                        if ext[j]:
                            break
                        if dp[j]:
                            k *= comb(a + b, a)
                    img[j] = a + b
                else:
                    if odd:
                        if odd_cum is None:
                            odd_cum = [0]
                            for x, f in zip(mono, ext):
                                odd_cum.append(odd_cum[-1] + (1 if x and f else 0))
                        crossed = 0
                        for j in odd:
                            if j > i:
                                crossed += odd_cum[j] - odd_cum[i + 1]
                            elif j < i:
                                crossed += odd_cum[i] - odd_cum[j + 1]
                        if crossed & 1:
                            k = -k
                    key = tuple(img)
                    out[key] = out.get(key, 0) + k
        if ext[i]:
            odd_below += 1
    return out


def derive(deriv, e):
    """Apply a gamma-derivation to an element by the graded Leibniz rule."""
    ring = e.algebra.ring
    table = _leibniz_table(deriv)
    out = Element(e.algebra)
    for mono, coeff in e.terms.items():
        for m, c in _leibniz(deriv, table, mono).items():
            out._add_term(m, ring.mul(c, coeff))
    return out


@dataclass
class Slice:
    """An ordered finite basis of one (hdeg, weight) piece of the algebra."""

    algebra: GradedAlgebra
    hdeg: int
    weight: int
    poly_bound: object
    monomials: tuple

    @property
    def dim(self):
        return len(self.monomials)

    def vector_of(self, element):
        """Coordinates of an element supported on this slice."""
        index = {m: j for j, m in enumerate(self.monomials)}
        vec = [0] * self.dim
        for m, c in element.terms.items():
            vec[index[m]] = c
        return vec

    def element_of(self, vec):
        e = Element(self.algebra)
        for j, c in enumerate(vec):
            if not self.algebra.ring.is_zero(c):
                e._add_term(self.monomials[j], c)
        return e


def _least_budgets(gens, hdeg, weight):
    """The need table of a slice: need[i] maps each (h, w) with
    h <= hdeg and w <= weight that some exponent vector over gens[i:]
    reaches to the least truncation degree of such a vector.

    need[len(gens)] holds only (0, 0) at 0, and need[i] adds the
    exponents of generator i to the entries of need[i + 1].  Grades are
    non-negative, so the exponents stop where (h, w) passes the caps; a
    generator of degree and weight 0 reaches nothing new at a lower
    truncation degree, so its level shares the table of the next one.
    """
    cur = {(0, 0): 0} if hdeg >= 0 and weight >= 0 else {}
    need = [cur]
    for g in reversed(gens):
        if g.hdeg or g.weight:
            prev, cur = cur, dict(cur)
            for (h, w), b in prev.items():
                for e in (1,) if g.kind == EXTERIOR else count(1):
                    nh = h + e * g.hdeg
                    nw = w + e * g.weight
                    if nh > hdeg or nw > weight:
                        break
                    nb = b + e * g.poly_weight
                    if cur.get((nh, nw), nb + 1) > nb:
                        cur[nh, nw] = nb
        need.append(cur)
    need.reverse()
    return need


def _tails(gens, need, memo, i, h, w, budget):
    """The exponent vectors over gens[i:] of degree h, weight w and
    truncation degree at most budget (None: no bound), sorted.

    Generator i's exponent ascends, each followed by its suffixes in
    order, so the vectors come out sorted.  need is _least_budgets of the
    slice: an exponent whose remainder (h', w') is missing from
    need[i + 1], or needs more than the budget left, is skipped, so a
    call is made only where some vector exists and no list comes back
    empty.  memo holds the lists already made, keyed (i, h, w, budget).
    """
    key = (i, h, w, budget)
    out = memo.get(key)
    if out is not None:
        return out
    if i == len(gens):
        out = [()]
    else:
        g = gens[i]
        reach = need[i + 1]
        out = []
        for e in range(2) if g.kind == EXTERIOR else count():
            nh = h - e * g.hdeg
            nw = w - e * g.weight
            nb = budget - e * g.poly_weight if budget is not None else None
            if nh < 0 or nw < 0 or (nb is not None and nb < 0):
                break
            least = reach.get((nh, nw))
            if least is None or (nb is not None and least > nb):
                continue
            out += [(e,) + t for t in _tails(gens, need, memo, i + 1, nh, nw, nb)]
    memo[key] = out
    return out


def basis_slice(algebra, hdeg, weight, poly_bound=None):
    """All monomials of the given degree and weight, in a fixed order.

    poly_bound caps the polynomial truncation degree (the sum of
    exponents weighted by each generator's poly_weight); it is required
    whenever the slice would otherwise be infinite.  Monomials come out
    sorted as exponent vectors.

    The call first builds the need table (_least_budgets): for each
    generator i and each (h, w) up to (hdeg, weight), the least
    truncation degree of a vector over the generators from i on with
    degree h and weight w.  The enumeration descends only into
    remainders that table says can still be met within the budget left.
    The suffixes are memoized within the call: the exponent vectors over
    the generators from i on with degree h, weight w and truncation
    degree at most budget are listed once per (i, h, w, budget), and
    every prefix that leaves that remainder reuses them.  Table and memo
    are freed when the call returns.
    """
    gens = algebra.generators
    for g in gens:
        if (g.kind == POLYNOMIAL and g.hdeg == 0 and g.weight == 0
                and (poly_bound is None or g.poly_weight == 0)):
            raise ValueError(f"slice on {g.name!r} is infinite without a poly bound")
    need = _least_budgets(gens, hdeg, weight)
    least = need[0].get((hdeg, weight))
    if least is None or (poly_bound is not None and least > poly_bound):
        return Slice(algebra, hdeg, weight, poly_bound, ())
    return Slice(algebra, hdeg, weight, poly_bound,
                 tuple(_tails(gens, need, {}, 0, hdeg, weight, poly_bound)))


def _r_parts(deriv, table, lead_values, p, r):
    """The images a monomial x^a * r shares with every other a, for
    derivation_matrix: (own, lead, merge).

    own is D(r), its coefficients reduced in the ring and its zero terms
    dropped; lead[i] is D(x_i) r, from the terms lead_values[i] of
    D(x_i), and lead is None when every D(x_i) r is 0.  Each holds
    (x, rest, coefficient) triples, where x is the image's first p
    exponents (None when all are 0) and rest the others.  merge says
    whether two of these terms can land on one monomial of a column (the
    same rest, and the same x offset from a: x for own, x - e_i for
    lead[i]), so that the column has to sum them.
    """
    alg = deriv.algebra
    zeros = (0,) * p
    mono = zeros + r
    own = []
    offsets = []
    for m, c in _leibniz(deriv, table, mono).items():
        c = alg.ring.normalize(c)
        if c != 0:
            xs = m[:p]
            own.append((xs if any(xs) else None, m[p:], c))
            offsets.append((xs, m[p:]))
    lead = []
    for i, vals in enumerate(lead_values):
        terms = []
        for v, c in vals:
            k, prod = alg.mono_mul(v, mono)
            if prod is not None:
                xs = prod[:p]
                terms.append((xs if any(xs) else None, prod[p:], k * c))
                offsets.append((tuple(x - (t == i) for t, x in enumerate(xs)), prod[p:]))
        lead.append(terms)
    if not any(lead):
        lead = None
    return own, lead, len(set(offsets)) < len(offsets)


def derivation_matrix(deriv, source, target):
    """Matrix of a derivation between two slices, columns = source basis.

    Let x_1..x_p be the polynomial generators that lead the generator
    table, and write a source monomial as x^a * r with r free of x.  Each
    x_i is even and has no binomial, so
        D(x^a r) = x^a D(r) + sum_i a_i x^(a - e_i) (D(x_i) r).
    D(r) (by _leibniz) and each D(x_i) r (by mono_mul) are computed once
    per distinct r in the call (_r_parts), and a column adds a or
    a - e_i to their x exponents.  The memo is freed when the call
    returns; without such a prefix every monomial is its own r and
    nothing is memoized.  The entries of a column come in the order of
    _leibniz on the monomial: the x_i terms first, then D(r).

    Raises TruncationOverflow when an image monomial falls outside the
    target slice because its polynomial degree exceeds the bound, and
    UndefinedGenerator when a column holds a letter D has no value for.
    """
    alg = source.algebra
    ring = alg.ring
    gens = alg.generators
    p = 0
    while p < len(gens) and gens[p].kind == POLYNOMIAL:
        p += 1
    table = _leibniz_table(deriv)
    # the terms of each D(x_i), none where D gives x_i no value; those x_i
    # raise UndefinedGenerator in the first column that holds them
    lead_values = [list(deriv.values[gens[i].name].terms.items())
                   if table[2][i] is not None else [] for i in range(p)]
    undefined = [i for i in range(p) if table[2][i] is None]
    memo = {}
    rows = {mono: r for r, mono in enumerate(target.monomials)}
    normalize = ring.normalize
    m = SparseMatrix(target.dim, source.dim, ring)
    # every row comes from rows and every column from the source, so the
    # entries are in range and need no check
    for column, mono in zip(m.columns, source.monomials):
        a, r = mono[:p], mono[p:]
        for i in undefined:
            if a[i]:
                deriv.value_of(gens[i].name)  # raises UndefinedGenerator
        parts = memo.get(r) if p else None
        if parts is None:
            # raises UndefinedGenerator on a letter of r without a value
            parts = _r_parts(deriv, table, lead_values, p, r)
            if p:
                memo[r] = parts
        own, lead, merge = parts
        col = []
        for i, ai in enumerate(a) if lead else ():
            terms = lead[i]
            if ai and terms:
                shift = list(a)
                shift[i] -= 1
                shift = tuple(shift)
                col += [((tuple(map(add, shift, xs)) if xs else shift) + rest,
                         normalize(ai * c)) for xs, rest, c in terms]
        col += [((tuple(map(add, a, xs)) if xs else a) + rest, c)
                for xs, rest, c in own]
        if merge:
            sums = {}
            for im, c in col:
                sums[im] = sums.get(im, 0) + c
            col = [(im, normalize(c)) for im, c in sums.items()]
        for im, c in col:
            if c == 0:
                continue
            row = rows.get(im)
            if row is None:
                pw = alg.mono_poly_weight(im)
                if target.poly_bound is not None and pw > target.poly_bound:
                    raise TruncationOverflow(
                        f"image of {alg.mono_str(mono)} has truncation degree "
                        f"{pw} > bound {target.poly_bound}")
                raise AssertionError(
                    f"image {alg.mono_str(im)} missing from slice "
                    f"({target.hdeg},{target.weight})")
            column[row] = c
    return m


# ---------------------------------------------------------------------------
# The contraction homotopy on LambdaV (x) LambdaW (x) Gamma(dW).
# ---------------------------------------------------------------------------

@dataclass
class ContractionData:
    """The algebra K together with its marked, well-ordered W-block data."""

    algebra: GradedAlgebra
    w_names: tuple
    dw_of: dict
    boundary: GammaDerivation  # the derivation with D(dw) = w


def contraction_complex(ring, v_gens, w_gens):
    """Build K = LambdaV (x) LambdaW (x) Gamma(dW) with its boundary.

    v_gens and w_gens are lists of (name, hdeg).  The generator table
    is ordered with all of V first, then each w immediately followed by
    its dw; this is the well-ordering used by the homotopy.
    """
    gens = []
    for name, h in v_gens:
        gens.append(Generator(name, h, EXTERIOR if h % 2 else POLYNOMIAL))
    w_names = []
    dw_of = {}
    for name, h in w_gens:
        gens.append(Generator(name, h, EXTERIOR if h % 2 else POLYNOMIAL))
        dname = "d" + name
        gens.append(Generator(dname, h + 1,
                              EXTERIOR if (h + 1) % 2 else DIVIDED_POWER,
                              weight=1))
        w_names.append(name)
        dw_of[name] = dname
    alg = GradedAlgebra(ring, gens)
    values = {name: Element(alg) for name, _ in v_gens}
    for name, _ in w_gens:
        values[name] = Element(alg)
        values[dw_of[name]] = alg.gen_element(name)
    boundary = GammaDerivation(alg, -1, values)
    return ContractionData(alg, tuple(w_names), dw_of, boundary)


def homotopy_h(data, e):
    """The contraction homotopy: h(w) = dw, hD + Dh = Id on the ideal.

    Acts on the last W-block of each monomial, with the usual sign for
    the letters passed over.  Pure LambdaV terms are sent to zero.
    """
    alg = e.algebra
    ring = alg.ring
    # (w, dw) index pairs by increasing w; each dw follows its w, so the
    # letters before w are mono[:wi]
    blocks = sorted((alg.index[w], alg.index[data.dw_of[w]]) for w in data.w_names)
    out = Element(alg)
    for mono, coeff in e.terms.items():
        for wi, dwi in reversed(blocks):
            if mono[wi] or mono[dwi]:
                break
        else:
            continue
        a, b = mono[wi], mono[dwi]
        new_mono = list(mono)
        if alg.generators[wi].hdeg % 2 == 0:
            # block w^a (dw)^b with dw exterior: h(w^{a+1}) = w^a dw
            if b or a == 0:
                continue
            new_mono[wi] = a - 1
            new_mono[dwi] = 1
        else:
            # block w^a gamma_b(dw) with dw divided-power: h(w gamma_b) = gamma_{b+1}
            if a == 0:
                continue
            new_mono[wi] = 0
            new_mono[dwi] = b + 1
        c = ring.neg(coeff) if alg.mono_hdeg(mono[:wi]) % 2 else coeff
        out._add_term(tuple(new_mono), c)
    return out
