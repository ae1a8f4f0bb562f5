"""The mixed complex of divided-power differential forms of a model.

Given a free DG model, adjoin one d-generator per model generator (one
degree higher, exterior when the new degree is odd, divided-power when
even, weight 1) and equip the enlarged algebra with two derivations:
the degree-raising d with d(v) = dv, d(dv) = 0, and the degree-lowering
delta with delta(v) = boundary(v), delta(dv) = -d(boundary(v)).  The
result is a mixed complex with b = delta and B = d, sliced by homological
degree and weight (the number of d-letters): delta keeps the weight and
d raises it by one.  Its weight-graded delta homology, cyclic
totalization and Hodge layers are the engine's main output.

Slices are truncated by a weighted polynomial degree in which a
variable and its dx count 1 and a relation generator and its d-image
count the relation's degree.  Neither derivation ever raises that
degree, so every truncated window is an honest subcomplex; for
homogeneous relations it is even a direct summand, making the reported
groups exact wherever the window covers them.
"""

from dataclasses import dataclass

from .dpalgebra import (
    DIVIDED_POWER, EXTERIOR, POLYNOMIAL, Element, GammaDerivation, Generator,
    GradedAlgebra, basis_slice, derivation_matrix, derive,
)
from .errors import CompositionNonzero, HypothesisViolated
from .linalg import preimage
from .mixed import MixedComplex, cyclic_layers, hochschild_layers, hochschild_total
from .models import FreeDGA, check_boundary_square, tate_extend


@dataclass
class GammaFormsComplex:
    """A model, its extended algebra with d-generators, the derivation
    delta, the slice windows and the assembled mixed complex."""

    model: FreeDGA
    algebra: GradedAlgebra
    delta: GammaDerivation
    slices: dict          # (hdeg, weight) -> Slice
    complex: MixedComplex
    poly_bound: object


def default_poly_bound(model, n_max):
    """Weighted-degree cap covering every class the window can report.

    Classes of small homological degree live in small weighted degree;
    the factor leaves room for the boundaries that kill the rest.
    """
    cmax = max((g.poly_weight for g in model.algebra.generators), default=0)
    return max(4, cmax * (n_max + 2))


def _forms_derivations(model):
    """The model's algebra enlarged with one d-generator per generator,
    with the derivations d and delta, as (alg, d, delta).

    The d-generator of g is named "d" + g.name, with "_" prefixed until
    the name is not already taken.
    """
    if not check_boundary_square(model):
        raise CompositionNonzero("model boundary does not square to zero")
    base = model.algebra
    taken = {g.name for g in base.generators}
    d_names = {}
    gens = list(base.generators)
    for g in base.generators:
        name = "d" + g.name
        while name in taken:
            name = "_" + name
        taken.add(name)
        d_names[g.name] = name
        hdeg = g.hdeg + 1
        kind = EXTERIOR if hdeg % 2 else DIVIDED_POWER
        gens.append(Generator(name, hdeg, kind, weight=1, poly_weight=g.poly_weight))
    alg = GradedAlgebra(base.ring, gens)
    d_values = {}
    delta_values = {}
    for name, dname in d_names.items():
        d_values[name] = alg.gen_element(dname)
        d_values[dname] = Element(alg)
    d = GammaDerivation(alg, +1, d_values)
    for name, dname in d_names.items():
        bval = alg.embed(model.boundary.value_of(name))
        delta_values[name] = bval
        delta_values[dname] = derive(d, bval).scale(-1)
    return alg, d, GammaDerivation(alg, -1, delta_values)


def _blocks(deriv, slices, step):
    """The nonzero blocks of deriv from each slice (h, q) to the slice
    (h + parity, q + step), keyed (source, target)."""
    table = {}
    for (h, q), s in slices.items():
        key = (h + deriv.parity, q + step)
        tgt = slices.get(key)
        if s.dim and tgt is not None:
            mat = derivation_matrix(deriv, s, tgt)
            if mat.entries:
                table[((h, q), key)] = mat
    return table


def build_gamma_forms(model, n_max, poly_bound=None):
    """Assemble the divided-power de Rham mixed complex of a model.

    The delta blocks (b) are built here; the d blocks (B) are built from
    the same slices when the complex's B is first read, which HH never
    does.
    """
    alg, d, delta = _forms_derivations(model)
    if model.has_degree_zero_generators():
        if poly_bound is None:
            poly_bound = default_poly_bound(model, n_max)
    else:
        poly_bound = None
    htop = n_max + 1
    slices = {}
    for h in range(htop + 1):
        for q in range(h + 1):
            slices[(h, q)] = basis_slice(alg, h, q, poly_bound)
    cplx = MixedComplex(model.ring, {k: s.monomials for k, s in slices.items() if s.dim},
                        b=_blocks(delta, slices, 0),
                        build_B=lambda: _blocks(d, slices, 1), window_total=htop)
    return GammaFormsComplex(model, alg, delta, slices, cplx, poly_bound)


def hh_assemble(G, n_max):
    """Hochschild homology HH_0..HH_n_max through degeneracy: the direct
    sum over weights of the delta homology of the forms complex, read off
    its b blocks alone, so the d blocks are never built.

    The shortcut is valid for models with generators in degrees 0 and 1
    only; any other model raises HypothesisViolated.
    """
    if any(g.hdeg >= 2 for g in G.model.algebra.generators):
        raise HypothesisViolated(
            "degeneracy shortcut needs all model generators in degree <= 1; "
            "hochschild_total(G.complex, n) gives the delta homology of the "
            "complex itself")
    return hochschild_total(G.complex, n_max)


def hc_assemble(G, n_max):
    """Cyclic homology totals and Hodge layers of the forms complex."""
    return cyclic_layers(G.complex, n_max)


def hh_layers(G, n_max):
    """Hochschild totals and Hodge layers of the forms complex."""
    return hochschild_layers(G.complex, n_max)


@dataclass
class WitnessReport:
    """The three executable facts behind the non-degeneracy witness."""

    p: int
    cycle: bool
    boundary: bool
    beta_identity: bool
    preimage_element: object = None

    def to_json(self):
        return {"cycle": self.cycle, "boundary": self.boundary,
                "delta_beta_is_minus_p_gamma": self.beta_identity}


def witness_model(ring, top_degree):
    """The model of k with an exterior y in degree 1, a polynomial z in
    degree 2, boundary z -> y, Tate-extended through top_degree."""
    alg = GradedAlgebra(ring, [
        Generator("y", 1, EXTERIOR),
        Generator("z", 2, POLYNOMIAL),
    ])
    boundary = GammaDerivation(alg, -1, {
        "y": Element(alg),
        "z": alg.gen_element("y"),
    })
    return tate_extend(FreeDGA(alg, boundary), top_degree)


def witness_nondegeneracy(ring, p):
    """Check the non-degeneracy facts for gamma^p(dy) over the ring.

    Reports whether gamma^p(dy) is a delta-cycle, whether it bounds on
    the weight-p slice, and whether delta(gamma^{p-1}(dy) dz) equals
    -p gamma^p(dy).  For a non-unit p the class is a cycle and not a
    boundary, exhibiting homology the ground ring's own trivial model
    does not have; for a unit p it bounds.  Only the one delta block
    from slice (2p+1, p) to slice (2p, p) is built.
    """
    if not isinstance(p, int) or p < 2:
        raise ValueError("p must be an integer >= 2")
    alg, _, delta = _forms_derivations(witness_model(ring, 2 * p + 2))
    gamma = alg.element({(("dy", p),): 1})
    cycle = derive(delta, gamma).is_zero()
    beta = alg.element({(("dy", p - 1),): 1}) * alg.gen_element("dz")
    beta_identity = derive(delta, beta) == gamma.scale(-p)
    src = basis_slice(alg, 2 * p + 1, p)
    tgt = basis_slice(alg, 2 * p, p)
    mat = derivation_matrix(delta, src, tgt)
    sol = preimage(mat, tgt.vector_of(gamma), ring)
    pre_elem = src.element_of(sol) if sol is not None else None
    return WitnessReport(p, cycle, sol is not None, beta_identity, pre_elem)
