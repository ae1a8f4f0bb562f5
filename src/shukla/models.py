"""Presentations and free DG models.

A presentation is a ground ring, a list of degree-0 variables and a
list of relation polynomials.  Quasi-monic relations (unit leading term
x_i^m, or a nonzero constant) give the quotient algebra a finite free
coefficient basis by rewriting; that structure also drives the
crystalline module and the bar oracle.

Models: the Koszul model of a presentation adjoins one exterior
degree-1 generator per relation.  Tate towers extend a model with no
degree-0 generators by killing homology classes one degree at a time.
"""

from dataclasses import dataclass, field

from .dpalgebra import (
    EXTERIOR, POLYNOMIAL, Element, GammaDerivation, Generator, GradedAlgebra,
    basis_slice, derivation_matrix, derive,
)
from .errors import NotQuasiMonic, UnsupportedV0
from .linalg import GroundRing, SparseMatrix, _int_columns, homology_from_presentation

# Polynomials are dicts {exponent tuple: coefficient}, exponents aligned
# with the presentation's variable list.


def poly_is_zero(p):
    return not p


def poly_scale(p, c, ring):
    out = {}
    for e, v in p.items():
        w = ring.mul(v, c)
        if not ring.is_zero(w):
            out[e] = w
    return out


def _grlex_key(exps):
    return (sum(exps), exps)


def leading_term(p):
    """Graded-lexicographic leading (exponents, coefficient)."""
    e = max(p, key=_grlex_key)
    return e, p[e]


@dataclass
class Presentation:
    """ring, variables and relations, with quasi-monic data when it exists.

    quasi_monic holds one entry per relation: ("var", i, m, lower) for a
    relation x_i^m - lower with unit leading coefficient (normalized so
    the leading coefficient is 1), ("const", c) for a nonzero constant
    relation, or None when the relation fits neither pattern.
    """

    ring: GroundRing
    variables: tuple
    relations: tuple
    quasi_monic: tuple = ()

    @staticmethod
    def make(ring, variables, relations):
        variables = tuple(variables)
        normalized = []
        data = []
        used_vars = set()
        for rel in relations:
            rel = {tuple(e): ring.normalize(c) for e, c in rel.items()
                   if not ring.is_zero(ring.normalize(c))}
            if poly_is_zero(rel):
                raise ValueError("zero relation")
            lead_e, lead_c = leading_term(rel)
            if sum(lead_e) == 0:
                # constant relation
                c = lead_c
                normalized.append(rel)
                if ring.kind == "Z" and abs(int(c)) >= 2:
                    data.append(("const", abs(int(c))))
                elif ring.kind == "Zmod":
                    data.append(("const", int(c)))
                else:
                    data.append(None)
                continue
            nz = [i for i, e in enumerate(lead_e) if e]
            if len(nz) == 1 and ring.is_unit(lead_c):
                i = nz[0]
                m = lead_e[i]
                inv = ring.inv(lead_c)
                rel = poly_scale(rel, inv, ring)
                lower = dict(rel)
                lower.pop(lead_e)
                lower = poly_scale(lower, -1, ring)
                if i in used_vars:
                    data.append(None)
                    normalized.append(rel)
                else:
                    used_vars.add(i)
                    data.append(("var", i, m, lower))
                    normalized.append(rel)
            else:
                normalized.append(rel)
                data.append(None)
        return Presentation(ring, variables, tuple(normalized), tuple(data))

    @property
    def is_quasi_monic(self):
        return all(d is not None for d in self.quasi_monic)

    def require_quasi_monic(self):
        if not self.is_quasi_monic:
            raise NotQuasiMonic("presentation has a relation without a "
                                "unit pure-power leading term")

    @property
    def const_relations(self):
        return [d[1] for d in self.quasi_monic if d and d[0] == "const"]

    def variable_bounds(self):
        """Exponent bound per variable, or NotQuasiMonic if one is unbounded."""
        self.require_quasi_monic()
        bounds = [None] * len(self.variables)
        for d in self.quasi_monic:
            if d[0] == "var":
                bounds[d[1]] = d[2]
        missing = [self.variables[i] for i, b in enumerate(bounds) if b is None]
        if missing:
            raise NotQuasiMonic(f"variables {missing} carry no quasi-monic relation")
        return bounds

    def coefficient_modulus(self):
        """Effective modulus on coefficients of the quotient algebra."""
        from math import gcd
        m = self.ring.modulus or 0
        for c in self.const_relations:
            m = gcd(m, int(c))
        return m

    def reduced_monomials(self):
        """The monomial basis {x^a : a_i < m_i} of the quotient, sorted."""
        bounds = self.variable_bounds()
        exps = [()]
        for b in bounds:
            exps = [e + (k,) for e in exps for k in range(b)]
        return sorted(exps, key=_grlex_key)


def quasi_monic_reduce(pres, poly):
    """Normal form of a polynomial modulo the quasi-monic relations.

    Rewrites x_i^{m_i} -> lower terms until every exponent is reduced,
    then reduces coefficients modulo the effective modulus.  The result
    is supported on the finite reduced monomial basis.
    """
    pres.require_quasi_monic()
    ring = pres.ring
    rules = {d[1]: (d[2], d[3]) for d in pres.quasi_monic if d[0] == "var"}
    work = [(e, c) for e, c in poly.items()]
    out = {}
    while work:
        e, c = work.pop()
        if ring.is_zero(c):
            continue
        for i, (m, lower) in rules.items():
            if e[i] >= m:
                rest = tuple(v - (m if j == i else 0) for j, v in enumerate(e))
                for le, lc in lower.items():
                    ne = tuple(a + b for a, b in zip(rest, le))
                    work.append((ne, ring.mul(c, lc)))
                break
        else:
            v = ring.add(out.get(e, 0), c)
            if ring.is_zero(v):
                out.pop(e, None)
            else:
                out[e] = v
    modulus = pres.coefficient_modulus()
    if modulus:
        out = {e: c % modulus for e, c in out.items() if c % modulus}
    return out


# ---------------------------------------------------------------------------
# Free DG models.
# ---------------------------------------------------------------------------

@dataclass
class FreeDGA:
    """A free chain algebra with a boundary derivation on its generators."""

    algebra: GradedAlgebra
    boundary: GammaDerivation
    presentation: Presentation = None

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
    return FreeDGA(alg, GammaDerivation(alg, -1, values), pres)


def trivial_model(ring):
    """The zero-generator model of the ground ring itself."""
    alg = GradedAlgebra(ring, [])
    return FreeDGA(alg, GammaDerivation(alg, -1, {}))


def check_boundary_square(model):
    """True iff the boundary squares to zero on every generator."""
    for g in model.algebra.generators:
        img = model.boundary.value_of(g.name)
        if not derive(model.boundary, img).is_zero():
            return False
    return True


@dataclass
class TateStage:
    degree: int
    added: tuple
    homology_found: object


@dataclass
class TateTower:
    model: FreeDGA
    stages: list = field(default_factory=list)


def _model_with_generators(model, new_gens, new_values):
    """Rebuild a model with generators appended; indices are preserved."""
    alg = GradedAlgebra(model.ring, list(model.algebra.generators) + new_gens)
    values = {}
    for g in model.algebra.generators:
        values[g.name] = Element(alg, model.boundary.value_of(g.name).terms)
    for g, val in zip(new_gens, new_values):
        values[g.name] = Element(alg, val.terms)
    return FreeDGA(alg, GammaDerivation(alg, -1, values), model.presentation)


def tate_extend(model, target_degree):
    """Kill homology below target_degree by adjoining generators.

    Requires a model with no degree-0 generators (each degree slice is
    then a finite-rank free module).  For each m < target_degree with
    H_m nonzero, one generator of degree m+1 is adjoined per invariant
    factor of H_m, with boundary a cycle representative chosen in Smith
    normal form order.
    """
    if model.has_degree_zero_generators():
        raise UnsupportedV0("tate_extend needs all generators in degree >= 1")
    ring = model.ring
    stages = []
    counter = 0
    for m in range(1, target_degree):
        alg = model.algebra
        s_low = basis_slice(alg, m - 1, 0)
        s_mid = basis_slice(alg, m, 0)
        s_high = basis_slice(alg, m + 1, 0)
        d_out = derivation_matrix(model.boundary, s_mid, s_low)
        d_in = derivation_matrix(model.boundary, s_high, s_mid)
        group, gens = homology_from_presentation(
            _int_columns(d_in), _int_columns(d_out), d_in.rows, d_out.rows,
            ring, want_generators=True)
        added = []
        vals = []
        if gens:
            for _, vec in gens:
                counter += 1
                name = f"w{counter}"
                hdeg = m + 1
                kind = EXTERIOR if hdeg % 2 else POLYNOMIAL
                cycle = Element(alg)
                for row, c in vec.items():
                    cycle._add_term(s_mid.monomials[row], c)
                added.append(Generator(name, hdeg, kind))
                vals.append(cycle)
            model = _model_with_generators(model, added, vals)
        stages.append(TateStage(m, tuple(g.name for g in added), group))
    return TateTower(model, stages)


def slice_homology(model, hdeg, ring=None, poly_bound=None):
    """Homology of the model itself in one degree (weight-0 slices)."""
    from .linalg import homology_at
    alg = model.algebra
    ring = ring or model.ring
    lo = basis_slice(alg, hdeg - 1, 0, poly_bound) if hdeg >= 1 else None
    mid = basis_slice(alg, hdeg, 0, poly_bound)
    hi = basis_slice(alg, hdeg + 1, 0, poly_bound)
    d_out = (derivation_matrix(model.boundary, mid, lo)
             if lo is not None else SparseMatrix(0, mid.dim, ring))
    d_in = derivation_matrix(model.boundary, hi, mid)
    return homology_at(d_in, d_out, ring)
