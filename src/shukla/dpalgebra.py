"""The free strictly graded-commutative algebra with divided powers.

Generators come in three kinds: polynomial (even degree, unrestricted
powers), exterior (odd degree, square zero) and divided-power (even
degree, powers only through gamma^q).  Monomials are products of
generator powers in table order; elements are sparse linear
combinations with exact coefficients.

Sign convention, fixed once for the whole package: operators act on the
left, and moving an odd operator or letter past an odd letter costs a
factor of -1.  Derivations of odd parity therefore satisfy
D(ab) = D(a) b + (-1)^|a| a D(b), and on a divided power
D(gamma_q(v)) = gamma_{q-1}(v) D(v).
"""

from dataclasses import dataclass, field
from itertools import count
from math import comb

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
        """Canonical monomial from (name, exp) pairs; exps must be >= 1."""
        acc = {}
        for name, exp in letters:
            if exp < 0:
                raise ValueError("negative exponent")
            if exp:
                i = self.index[name]
                acc[i] = acc.get(i, 0) + exp
        for i, e in acc.items():
            if self.generators[i].kind == EXTERIOR and e > 1:
                raise ValueError("exterior square is zero; build via mul instead")
        return tuple(sorted(acc.items()))

    def element(self, terms):
        """Element from {monomial-or-letter-list: coefficient}.

        Keys may be canonical monomials ((index, exp) pairs) or letter
        lists ((name, exp) pairs), which are normalized first.
        """
        e = Element(self)
        for mono, c in terms.items():
            if mono:
                head = mono[0]
                if isinstance(head, str):
                    mono = self.monomial([mono])
                elif isinstance(head, tuple) and isinstance(head[0], str):
                    mono = self.monomial(mono)
            e._add_term(mono, c)
        return e

    def one(self):
        return self.element({(): 1})

    def gen_element(self, name, exp=1):
        return self.element({self.monomial([(name, exp)]): 1})

    def mono_hdeg(self, mono):
        return sum(self.generators[i].hdeg * e for i, e in mono)

    def mono_poly_weight(self, mono):
        return sum(self.generators[i].poly_weight * e for i, e in mono)

    def mono_mul(self, m1, m2):
        """Product of monomials: (integer coefficient, monomial or None)."""
        odd2 = [i for i, e in m2 if self.generators[i].hdeg % 2]
        sign_exp = 0
        if odd2:
            odd1 = [i for i, e in m1 if self.generators[i].hdeg % 2]
            for j in odd2:
                sign_exp += sum(1 for i in odd1 if i > j)
        coeff = -1 if sign_exp % 2 else 1
        acc = dict(m1)
        for i, e in m2:
            acc[i] = acc.get(i, 0) + e
        out = []
        for i, e in sorted(acc.items()):
            g = self.generators[i]
            if g.kind == EXTERIOR and e > 1:
                return 0, None
            if g.kind == DIVIDED_POWER:
                a = dict(m1).get(i, 0)
                b = dict(m2).get(i, 0)
                if a and b:
                    coeff *= comb(a + b, a)
            out.append((i, e))
        return coeff, tuple(out)

    def mono_str(self, mono):
        parts = []
        for i, e in mono:
            g = self.generators[i]
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


def _exponents(mono, n):
    """The dense exponent vector of a monomial over n generators."""
    vec = [0] * n
    for i, e in mono:
        vec[i] = e
    return vec


def _monomial(vec):
    """The monomial of a dense exponent vector."""
    return tuple((i, e) for i, e in enumerate(vec) if e)


def _leibniz_table(deriv):
    """The derivation read once for _leibniz: per generator whether it is
    exterior (the odd letters) and whether divided-power, and its value
    as a list of (letters, coefficient, odd letters), or None when the
    derivation gives it no value."""
    gens = deriv.algebra.generators
    values = []
    for g in gens:
        val = deriv.values.get(g.name)
        values.append(None if val is None else [
            (m, c, tuple(j for j, _ in m if gens[j].kind == EXTERIOR))
            for m, c in val.terms.items()])
    return ([g.kind == EXTERIOR for g in gens],
            [g.kind == DIVIDED_POWER for g in gens],
            values)


def _leibniz(deriv, table, exps):
    """A gamma-derivation on one exponent vector: {exponent tuple: coefficient}.

    Letter by letter, D(prefix * g^e * suffix) contributes
    (-1)^|prefix| prefix * g^(e-1) * D(g) * suffix, times e for a
    polynomial letter.  A value term v lands on exps - e_g + v.  Sorting
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
    # odd_cum[k]: the odd letters of exps below index k, built on first use
    odd_cum = None
    for i, e in enumerate(exps):
        if not e:
            continue
        terms = values[i]
        if terms is None:
            # raises UndefinedGenerator
            deriv.value_of(deriv.algebra.generators[i].name)
        if terms:
            base = list(exps)
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
                            for x, f in zip(exps, ext):
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
    n = len(e.algebra.generators)
    table = _leibniz_table(deriv)
    out = Element(e.algebra)
    for mono, coeff in e.terms.items():
        for vec, c in _leibniz(deriv, table, _exponents(mono, n)).items():
            out._add_term(_monomial(vec), ring.mul(c, coeff))
    return out


@dataclass
class Slice:
    """An ordered finite basis of one (hdeg, weight) piece of the algebra."""

    algebra: GradedAlgebra
    hdeg: int
    weight: int
    poly_bound: object
    monomials: tuple
    index: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.index:
            self.index = {m: j for j, m in enumerate(self.monomials)}

    @property
    def dim(self):
        return len(self.monomials)

    def vector_of(self, element):
        """Coordinates of an element supported on this slice."""
        vec = [0] * self.dim
        for m, c in element.terms.items():
            vec[self.index[m]] = c
        return vec

    def element_of(self, vec):
        e = Element(self.algebra)
        for j, c in enumerate(vec):
            if not self.algebra.ring.is_zero(c):
                e._add_term(self.monomials[j], c)
        return e


def basis_slice(algebra, hdeg, weight, poly_bound=None):
    """All monomials of the given degree and weight, in a fixed order.

    poly_bound caps the polynomial truncation degree (the sum of
    exponents weighted by each generator's poly_weight); it is required
    whenever the slice would otherwise be infinite.  Monomials come out
    sorted by their exponent vector in generator table order.

    The suffixes are memoized within the call: the monomials in the
    generators from i on with degree h, weight w and truncation degree
    at most budget are listed once per (i, h, w, budget), and every
    prefix that leaves that remainder reuses them.
    """
    gens = algebra.generators
    n = len(gens)
    for g in gens:
        if (g.kind == POLYNOMIAL and g.hdeg == 0 and g.weight == 0
                and (poly_bound is None or g.poly_weight == 0)):
            raise ValueError(f"slice on {g.name!r} is infinite without a poly bound")
    memo = {}

    # generator i's exponent ascending, each followed by its suffixes in
    # order: the monomials come out sorted by exponent vector
    def tails(i, h, w, budget):
        key = (i, h, w, budget)
        if key in memo:
            return memo[key]
        if i == n:
            out = [()] if h == 0 and w == 0 else []
        else:
            g = gens[i]
            out = []
            for e in range(2) if g.kind == EXTERIOR else count():
                nh = h - e * g.hdeg
                nw = w - e * g.weight
                nb = budget - e * g.poly_weight if budget is not None else None
                if nh < 0 or nw < 0 or (nb is not None and nb < 0):
                    break
                rest = tails(i + 1, nh, nw, nb)
                if e:
                    letter = ((i, e),)
                    out += [letter + t for t in rest]
                else:
                    out += rest
        memo[key] = out
        return out

    return Slice(algebra, hdeg, weight, poly_bound, tuple(tails(0, hdeg, weight, poly_bound)))


def derivation_matrix(deriv, source, target):
    """Matrix of a derivation between two slices, columns = source basis.

    Raises TruncationOverflow when an image monomial falls outside the
    target slice because its polynomial degree exceeds the bound.
    """
    alg = source.algebra
    ring = alg.ring
    n = len(alg.generators)
    table = _leibniz_table(deriv)
    rows = {tuple(_exponents(mono, n)): r for r, mono in enumerate(target.monomials)}
    normalize = ring.normalize
    m = SparseMatrix(target.dim, source.dim, ring)
    # every row comes from rows and every column from the source, so the
    # entries are in range and need no check
    entries = m.entries
    for j, mono in enumerate(source.monomials):
        for vec, c in _leibniz(deriv, table, _exponents(mono, n)).items():
            c = normalize(c)
            if c == 0:
                continue
            row = rows.get(vec)
            if row is None:
                im = _monomial(vec)
                pw = alg.mono_poly_weight(im)
                if target.poly_bound is not None and pw > target.poly_bound:
                    raise TruncationOverflow(
                        f"image of {alg.mono_str(mono)} has truncation degree "
                        f"{pw} > bound {target.poly_bound}")
                raise AssertionError(
                    f"image {alg.mono_str(im)} missing from slice "
                    f"({target.hdeg},{target.weight})")
            entries[row, j] = c
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
    widx = {alg.index[w]: w for w in data.w_names}
    dwidx = {alg.index[data.dw_of[w]]: w for w in data.w_names}
    out = Element(alg)
    for mono, coeff in e.terms.items():
        last_w = None
        for i, _ in mono:
            w = widx.get(i, dwidx.get(i))
            if w is not None and (last_w is None
                                  or alg.index[w] > alg.index[last_w]):
                last_w = w
        if last_w is None:
            continue
        wi = alg.index[last_w]
        dwi = alg.index[data.dw_of[last_w]]
        rest = []
        a = b = 0
        prefix_deg = 0
        for i, exp in mono:
            if i == wi:
                a = exp
            elif i == dwi:
                b = exp
            else:
                rest.append((i, exp))
                if i < wi:
                    prefix_deg += exp * alg.generators[i].hdeg
        wgen = alg.generators[wi]
        if wgen.hdeg % 2 == 0:
            # block w^a (dw)^b with dw exterior: h(w^{a+1}) = w^a dw
            if b or a == 0:
                continue
            block = [(wi, a - 1)] if a > 1 else []
            block.append((dwi, 1))
        else:
            # block w^a gamma_b(dw) with dw divided-power: h(w gamma_b) = gamma_{b+1}
            if a == 0:
                continue
            block = [(dwi, b + 1)]
        new_mono = tuple(sorted(rest + block))
        c = ring.neg(coeff) if prefix_deg % 2 else coeff
        out._add_term(new_mono, c)
    return out
