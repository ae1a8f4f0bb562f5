"""Presentations and free DG models.

A presentation is a ground ring, a list of degree-0 variables and a
list of relation polynomials.  `Presentation` holds the rewriting of the
quotient algebra A: a quasi-monic relation with unit leading term x_i^m
becomes the rule x_i^m = f_t + lower, and a nonzero constant relation is
kept as a constant.  `rewrite` is the one loop that applies the rules;
the crystalline pipeline reads it in the divided-power envelope, and
`quasi_monic_reduce` gives normal forms on the finite free basis the
bar oracle multiplies in.

Models: the Koszul model of a presentation adjoins one exterior
degree-1 generator per relation.  `tate_extend` extends a model with no
degree-0 generators by killing homology classes one degree at a time.
"""

from dataclasses import dataclass, field

from .dpalgebra import (
    EXTERIOR, POLYNOMIAL, Element, GammaDerivation, Generator, GradedAlgebra,
    basis_slice, derivation_matrix, derive,
)
from .errors import NotQuasiMonic, UnsupportedV0
from .linalg import (
    GroundRing, SparseMatrix, _int_columns, homology_at, homology_from_presentation,
)

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
        normalized = []
        rules = {}
        consts = []
        for t, rel in enumerate(relations):
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
        return Presentation(ring, tuple(variables), tuple(normalized),
                            dict(sorted(rules.items())), tuple(consts))

    @property
    def is_quasi_monic(self):
        return len(self.rules) + len(self.consts) == len(self.relations)

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


def _model_with_generators(model, new_gens, new_values):
    """Rebuild a model with generators appended; indices are preserved."""
    alg = GradedAlgebra(model.ring, list(model.algebra.generators) + new_gens)
    values = {g.name: alg.embed(model.boundary.value_of(g.name))
              for g in model.algebra.generators}
    for g, val in zip(new_gens, new_values):
        values[g.name] = alg.embed(val)
    return FreeDGA(alg, GammaDerivation(alg, -1, values))


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


def tate_extend(model, target_degree):
    """Kill homology below target_degree by adjoining generators; returns
    the extended model.

    Requires a model with no degree-0 generators (each degree slice is
    then a finite-rank free module).  For each m < target_degree with
    H_m nonzero, one generator of degree m+1 is adjoined per invariant
    factor of H_m, with boundary a cycle representative chosen in Smith
    normal form order.
    """
    if model.has_degree_zero_generators():
        raise UnsupportedV0("tate_extend needs all generators in degree >= 1")
    counter = 0
    for m in range(1, target_degree):
        s_mid, d_in, d_out = _weight0_boundaries(model, m)
        _, gens = homology_from_presentation(
            _int_columns(d_in), _int_columns(d_out), d_in.rows, d_out.rows,
            model.ring, want_generators=True)
        if not gens:
            continue
        kind = EXTERIOR if (m + 1) % 2 else POLYNOMIAL
        added = []
        vals = []
        for _, vec in gens:
            counter += 1
            cycle = Element(model.algebra)
            for row, c in vec.items():
                cycle._add_term(s_mid.monomials[row], c)
            added.append(Generator(f"w{counter}", m + 1, kind))
            vals.append(cycle)
        model = _model_with_generators(model, added, vals)
    return model


def slice_homology(model, hdeg, poly_bound=None):
    """Homology of the model itself in one degree (weight-0 slices)."""
    _, d_in, d_out = _weight0_boundaries(model, hdeg, poly_bound)
    return homology_at(d_in, d_out, model.ring)
