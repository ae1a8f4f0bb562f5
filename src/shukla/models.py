"""Presentations and free DG models.

A presentation is a ground ring, a list of degree-0 variables and a
list of relation polynomials.  `Presentation` holds the rewriting of the
quotient algebra A: a quasi-monic relation with unit leading term x_i^m
becomes the rule x_i^m = f_t + lower, and a nonzero constant relation is
kept as a constant.  `rewrite` is the one loop that applies the rules;
the crystalline pipeline reads it in the divided-power envelope, and
`quasi_monic_reduce` gives normal forms on the finite free basis the
bar oracle multiplies in.  `Presentation.factors` splits the relations
into components that share no variable, whose tensor product over k is
A, and `Presentation.factor_key` tells two factors that differ only in
the names of their variables.

Models: the Koszul model of a presentation adjoins one exterior
degree-1 generator per relation, and `slice_homology` reads the
homology of a model itself in one degree, on its weight-0 slices.
"""

from dataclasses import dataclass, field

from .dpalgebra import (
    EXTERIOR, POLYNOMIAL, Element, GammaDerivation, Generator, GradedAlgebra,
    basis_slice, derivation_matrix, derive,
)
from .errors import NotQuasiMonic
from .linalg import GroundRing, SparseMatrix, homology_at

# Polynomials are dicts {exponent tuple: coefficient}, exponents aligned
# with the presentation's variable list.


def _grlex_key(exps):
    return (sum(exps), exps)


def leading_term(p):
    """Graded-lexicographic leading (exponents, coefficient)."""
    e = max(p, key=_grlex_key)
    return e, p[e]


@dataclass
class Presentation:
    """ring, variables and relations, with the rewrite rules of A.

    rules maps a variable index i to (t, m, lower), in index order:
    relation t is x_i^m - lower, scaled so its leading coefficient is 1,
    and it is the first such relation for x_i.  consts holds (t, c) for
    each constant relation c kept as a module relation: |c| >= 2 over Z,
    any nonzero c over Z/m.  Every other relation (a non-unit or mixed
    leading term, a second pure power of a variable, a unit constant
    over Z, any constant over Q) leaves the presentation not quasi-monic.
    """

    ring: GroundRing
    variables: tuple
    relations: tuple
    rules: dict = field(default_factory=dict)
    consts: tuple = ()

    @staticmethod
    def make(ring, variables, relations):
        """Raises ValueError on a zero relation, or on an exponent tuple
        whose length is not the number of variables."""
        variables = tuple(variables)
        normalized = []
        rules = {}
        consts = []
        for t, rel in enumerate(relations):
            if any(len(e) != len(variables) for e in rel):
                raise ValueError(f"relation {t} has an exponent tuple whose length "
                                 f"is not {len(variables)}, the number of variables")
            rel = {tuple(e): ring.normalize(c) for e, c in rel.items()
                   if not ring.is_zero(c)}
            if not rel:
                raise ValueError("zero relation")
            lead_e, lead_c = leading_term(rel)
            nz = [i for i, e in enumerate(lead_e) if e]
            if not nz:
                if ring.kind == "Zmod" or (ring.kind == "Z" and abs(lead_c) >= 2):
                    consts.append((t, abs(lead_c)))
            elif len(nz) == 1 and ring.is_unit(lead_c):
                inv = ring.inv(lead_c)
                rel = {e: ring.mul(c, inv) for e, c in rel.items()}
                if nz[0] not in rules:
                    lower = {e: ring.neg(c) for e, c in rel.items() if e != lead_e}
                    rules[nz[0]] = (t, lead_e[nz[0]], lower)
            normalized.append(rel)
        return Presentation(ring, variables, tuple(normalized),
                            dict(sorted(rules.items())), tuple(consts))

    @property
    def is_quasi_monic(self):
        return len(self.rules) + len(self.consts) == len(self.relations)

    @property
    def is_zero_algebra(self):
        """Some relation is a unit of k[x], so 1 = 0 in A: its constant
        term is a unit of k and every other coefficient is nilpotent.

        Over Z and Q only 0 is nilpotent, so only constants are units.
        Over Z/m, c is nilpotent when c^e = 0 for e = m.bit_length(),
        which exceeds every exponent of a prime in m.
        """
        ring = self.ring
        m = ring.modulus
        const = (0,) * len(self.variables)
        return any(ring.is_unit(rel.get(const, 0))
                   and all(e == const or (m and pow(c, m.bit_length(), m) == 0)
                           for e, c in rel.items())
                   for rel in self.relations)

    def require_quasi_monic(self):
        if not self.is_quasi_monic:
            raise NotQuasiMonic("presentation has a relation without a "
                                "unit pure-power leading term")

    def variable_bounds(self):
        """Exponent bound per variable, or NotQuasiMonic if one is unbounded."""
        self.require_quasi_monic()
        missing = [v for i, v in enumerate(self.variables) if i not in self.rules]
        if missing:
            raise NotQuasiMonic(f"variables {missing} carry no quasi-monic relation")
        return [m for _, m, _ in self.rules.values()]

    def factors(self):
        """Presentations whose tensor product over k is A, one per
        component: two relations are linked when they share a variable in
        any term, a constant relation is a factor by itself, and so is a
        variable in no relation.  Each factor keeps its relations and
        variables in input order; with one component, self is returned.
        """
        comps = []    # (variable indices, relation indices), by first relation
        for t, rel in enumerate(self.relations):
            vs = {i for e in rel for i, a in enumerate(e) if a}
            ts = [t]
            for c in [c for c in comps if c[0] & vs]:
                comps.remove(c)
                vs |= c[0]
                ts += c[1]
            comps.append((vs, sorted(ts)))
        comps.sort(key=lambda c: c[1][0])
        free = set(range(len(self.variables))).difference(*(vs for vs, _ in comps))
        comps += [({i}, []) for i in sorted(free)]
        if len(comps) <= 1:
            return (self,)
        out = []
        for vs, ts in comps:
            vs = sorted(vs)
            rels = [{tuple(e[i] for i in vs): c for e, c in self.relations[t].items()}
                    for t in ts]
            out.append(Presentation.make(self.ring, [self.variables[i] for i in vs], rels))
        return tuple(out)

    def factor_key(self):
        """The ring, the number of variables and the relations as
        exponent dicts, in order: two presentations with one key differ
        only in the names of their variables, so their Koszul models and
        forms complexes, and every group of them, are the same."""
        return (self.ring, len(self.variables),
                tuple(tuple(sorted(rel.items())) for rel in self.relations))

    def reduced_monomials(self):
        """The monomial basis {x^a : a_i < m_i} of the quotient, sorted."""
        bounds = self.variable_bounds()
        exps = [()]
        for b in bounds:
            exps = [e + (k,) for e in exps for k in range(b)]
        return sorted(exps, key=_grlex_key)


def rewrite(pres, terms, Q):
    """Rewrite terms {exps: c} times gamma^Q into {(exps, Q'): c}, with
    every exponent below its rule's bound.

    Rule t is x_i^m = f_t + lower, and f_t gamma^Q = (Q_t + 1)
    gamma^(Q + e_t) in the divided-power envelope, so each rewrite also
    spawns a term one weight up.  The first variable, by index, that
    meets its bound is rewritten; a variable without a rule is left as
    it is.  Coefficients stay integers (or Fractions), unreduced.
    """
    out = {}
    work = [(e, c, Q) for e, c in terms.items()]
    while work:
        e, c, Q = work.pop()
        if c == 0:
            continue
        for i, (t, m, lower) in pres.rules.items():
            if e[i] >= m:
                break
        else:
            key = (e, Q)
            c += out.get(key, 0)
            if c:
                out[key] = c
            else:
                del out[key]
            continue
        rest = tuple(v - (m if j == i else 0) for j, v in enumerate(e))
        bumped = tuple(q + (1 if s == t else 0) for s, q in enumerate(Q))
        work.append((rest, c * (Q[t] + 1), bumped))
        for le, lc in lower.items():
            work.append((tuple(a + b for a, b in zip(rest, le)), c * lc, Q))
    return out


def quasi_monic_reduce(pres, poly):
    """Normal form of a polynomial modulo the quasi-monic relations.

    The weight-0 part of `rewrite` (f_t = 0 in A), normalized in the
    ring.  The rules have pairwise coprime leading terms x_i^{m_i}, so
    they form a Groebner basis and the normal form does not depend on
    the order in which they are applied.  Domain: presentations without
    constant relations (`from_presentation` refuses those first); a
    constant relation's reduction of coefficients is not applied.
    """
    pres.require_quasi_monic()
    zero = (0,) * len(pres.relations)
    out = {}
    for (e, Q), c in rewrite(pres, poly, zero).items():
        c = pres.ring.normalize(c)
        if Q == zero and c:
            out[e] = c
    return out


# ---------------------------------------------------------------------------
# Free DG models.
# ---------------------------------------------------------------------------

@dataclass
class FreeDGA:
    """A free chain algebra with a boundary derivation on its generators."""

    algebra: GradedAlgebra
    boundary: GammaDerivation

    @property
    def ring(self):
        return self.algebra.ring

    def has_degree_zero_generators(self):
        return any(g.hdeg == 0 for g in self.algebra.generators)


def poly_to_element(algebra, variables, poly):
    e = Element(algebra)
    for exps, c in poly.items():
        mono = algebra.monomial([(variables[i], k) for i, k in enumerate(exps) if k])
        e._add_term(mono, c)
    return e


def koszul_model(pres):
    """The Koszul model: variables in degree 0, one exterior degree-1
    generator per relation with boundary the relation itself."""
    ring = pres.ring
    gens = [Generator(v, 0, POLYNOMIAL, poly_weight=1) for v in pres.variables]
    rel_names = []
    for j, rel in enumerate(pres.relations):
        name = f"s{j + 1}"
        while name in pres.variables:
            name = "_" + name
        pw = max((sum(e) for e in rel), default=0)
        gens.append(Generator(name, 1, EXTERIOR, poly_weight=pw))
        rel_names.append(name)
    alg = GradedAlgebra(ring, gens)
    values = {v: Element(alg) for v in pres.variables}
    for name, rel in zip(rel_names, pres.relations):
        values[name] = poly_to_element(alg, pres.variables, rel)
    return FreeDGA(alg, GammaDerivation(alg, -1, values))


def check_boundary_square(model):
    """True iff the boundary squares to zero on every generator."""
    for g in model.algebra.generators:
        img = model.boundary.value_of(g.name)
        if not derive(model.boundary, img).is_zero():
            return False
    return True


def _weight0_boundaries(model, hdeg, poly_bound=None):
    """The weight-0 slice in degree hdeg with the boundaries into and out
    of it, as (mid_slice, d_in, d_out); d_out has no rows at hdeg 0."""
    alg = model.algebra
    mid = basis_slice(alg, hdeg, 0, poly_bound)
    hi = basis_slice(alg, hdeg + 1, 0, poly_bound)
    d_in = derivation_matrix(model.boundary, hi, mid)
    if hdeg == 0:
        return mid, d_in, SparseMatrix(0, mid.dim, model.ring)
    lo = basis_slice(alg, hdeg - 1, 0, poly_bound)
    return mid, d_in, derivation_matrix(model.boundary, mid, lo)


def slice_homology(model, hdeg, poly_bound=None):
    """Homology of the model itself in one degree (weight-0 slices)."""
    _, d_in, d_out = _weight0_boundaries(model, hdeg, poly_bound)
    return homology_at(d_in, d_out, model.ring)
