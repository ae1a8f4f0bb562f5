"""The mixed complex of divided-power differential forms of a model.

Given a free DG model, adjoin one d-generator per model generator (one
degree higher, exterior when the new degree is odd, divided-power when
even, weight 1) and equip the enlarged algebra with two derivations:
the degree-raising d with d(v) = dv, d(dv) = 0, and the degree-lowering
delta with delta(v) = boundary(v), delta(dv) = -d(boundary(v)).  The
result is a double mixed complex with zero D, delta as the p-lowering
map and d as the q-raising map; its strand homology, totalizations and
Hodge layers are the engine's main output.

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
from .errors import CompositionNonzero, HypothesisViolated, UnitP, WindowTooSmall
from .linalg import preimage
from .mixed import DoubleMixedComplex, filtration_layers
from .models import FreeDGA, check_boundary_square, tate_extend


@dataclass
class GammaFormsComplex:
    """A model, its extended algebra with d-generators, both derivations,
    the slice windows and the assembled double mixed complex."""

    model: FreeDGA
    algebra: GradedAlgebra
    d_name: dict
    delta: GammaDerivation
    d: GammaDerivation
    slices: dict          # (hdeg, weight) -> Slice
    complex: DoubleMixedComplex
    n_max: int
    poly_bound: object

    def slice(self, hdeg, weight):
        return self.slices.get((hdeg, weight))


def default_poly_bound(model, n_max):
    """Weighted-degree cap covering every class the window can report.

    Classes of small homological degree live in small weighted degree;
    the factor leaves room for the boundaries that kill the rest.
    """
    cmax = max((g.poly_weight for g in model.algebra.generators), default=0)
    return max(4, cmax * (n_max + 2))


def build_gamma_forms(model, n_max, poly_bound=None):
    """Assemble the divided-power de Rham mixed complex of a model."""
    if not check_boundary_square(model):
        raise CompositionNonzero("model boundary does not square to zero")
    base = model.algebra
    gens = list(base.generators)
    d_name = {}
    for g in base.generators:
        dname = "d" + g.name
        hdeg = g.hdeg + 1
        kind = EXTERIOR if hdeg % 2 else DIVIDED_POWER
        gens.append(Generator(dname, hdeg, kind, weight=1,
                              poly_weight=g.poly_weight))
        d_name[g.name] = dname
    alg = GradedAlgebra(base.ring, gens)
    d_values = {}
    for g in base.generators:
        d_values[g.name] = alg.gen_element(d_name[g.name])
        d_values[d_name[g.name]] = Element(alg)
    d = GammaDerivation(alg, +1, d_values)
    delta_values = {}
    for g in base.generators:
        bval = Element(alg, model.boundary.value_of(g.name).terms)
        delta_values[g.name] = bval
        delta_values[d_name[g.name]] = derive(d, bval).scale(-1)
    delta = GammaDerivation(alg, -1, delta_values)

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
    cplx_slices = {}
    maps_del = {}
    maps_b = {}
    for (h, q), s in slices.items():
        if s.dim == 0:
            continue
        p = h - q
        cplx_slices[(p, q)] = s.monomials
    for (h, q), s in slices.items():
        if s.dim == 0:
            continue
        p = h - q
        tgt = slices.get((h - 1, q))
        if tgt is not None:
            mat = derivation_matrix(delta, s, tgt)
            if mat.entries:
                maps_del[(p, q)] = mat
        tgt_b = slices.get((h + 1, q + 1))
        if tgt_b is not None:
            mat = derivation_matrix(d, s, tgt_b)
            if mat.entries:
                maps_b[(p, q)] = mat
    cplx = DoubleMixedComplex(base.ring, cplx_slices, maps_del=maps_del,
                              maps_b=maps_b, window_total=htop)
    return GammaFormsComplex(model, alg, d_name, delta, d, slices, cplx,
                             n_max, poly_bound)


def hh_assemble(G, n_max):
    """Hochschild homology HH_0..HH_n_max through degeneracy: the direct
    sum over weights of the delta-strand homology, i.e. the totals of
    hh_layers(G, n_max), read off the delta matrices build_gamma_forms
    stored.

    The shortcut is valid for models with generators in degrees 0 and 1
    only; any other model raises HypothesisViolated.
    """
    if any(g.hdeg >= 2 for g in G.model.algebra.generators):
        raise HypothesisViolated(
            "degeneracy shortcut needs all model generators in degree <= 1; "
            "use filtration_layers on the complex instead")
    total = hh_layers(G, n_max).total
    return [total[n] for n in range(n_max + 1)]


def hc_assemble(G, n_max):
    """Cyclic homology totals and Hodge layers of the forms complex."""
    if n_max > G.n_max:
        raise WindowTooSmall(f"complex built for n_max = {G.n_max}")
    return filtration_layers(G.complex, n_max, "hc")


def hh_layers(G, n_max):
    """Hochschild totals and Hodge layers of the forms complex."""
    if n_max > G.n_max:
        raise WindowTooSmall(f"complex built for n_max = {G.n_max}")
    return filtration_layers(G.complex, n_max, "hh")


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
    start = FreeDGA(alg, boundary)
    return tate_extend(start, top_degree).model


def witness_nondegeneracy(ring, p, allow_unit=False):
    """Check the non-degeneracy facts for gamma^p(dy) over the ring.

    Reports whether gamma^p(dy) is a delta-cycle, whether it bounds on
    the weight-p slice, and whether delta(gamma^{p-1}(dy) dz) equals
    -p gamma^p(dy).  For a non-unit p the class is a cycle and not a
    boundary, exhibiting homology the ground ring's own trivial model
    does not have.
    """
    if not isinstance(p, int) or p < 2:
        raise ValueError("p must be an integer >= 2")
    if ring.is_unit(ring.normalize(p)) and not allow_unit:
        raise UnitP(f"{p} is invertible in {ring}; the witness must fail")
    model = witness_model(ring, 2 * p + 2)
    G = build_gamma_forms(model, 2 * p + 1)
    alg = G.algebra
    gamma = alg.element({(("dy", p),): ring.one})
    cycle = derive(G.delta, gamma).is_zero()
    beta = alg.element({(("dy", p - 1),): ring.one}) * alg.gen_element("dz")
    beta_identity = derive(G.delta, beta) == gamma.scale(-p)
    src = G.slices[(2 * p + 1, p)]
    tgt = G.slices[(2 * p, p)]
    mat = derivation_matrix(G.delta, src, tgt)
    target_vec = tgt.vector_of(gamma)
    sol = preimage(mat, target_vec, ring)
    pre_elem = src.element_of(sol) if sol is not None else None
    return WitnessReport(p, cycle, sol is not None, beta_identity, pre_elem)
