import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from shukla.errors import NotQuasiMonic, UnsupportedV0
from shukla.dpalgebra import EXTERIOR, POLYNOMIAL, Element, GammaDerivation, Generator, GradedAlgebra
from shukla.linalg import GroundRing, HomologyGroup
from shukla.models import (
    FreeDGA, Presentation, _grlex_key, check_boundary_square, koszul_model,
    leading_term, quasi_monic_reduce, rewrite, slice_homology, tate_extend,
)

Z = GroundRing.Z()
Q = GroundRing.Q()


def pres(ring, variables, rels):
    return Presentation.make(ring, variables, rels)


def test_koszul_model_hypersurface():
    P = pres(Z, ["x"], [{(2,): 1}])
    M = koszul_model(P)
    names = [g.name for g in M.algebra.generators]
    assert names == ["x", "s1"]
    assert M.algebra.gen("s1").kind == EXTERIOR
    assert M.algebra.gen("s1").hdeg == 1
    assert M.boundary.value_of("x").is_zero()
    assert M.boundary.value_of("s1") == M.algebra.element({(("x", 2),): 1})
    assert check_boundary_square(M)


def test_koszul_model_constant_relation():
    P = pres(Z, [], [{(): 5}])
    M = koszul_model(P)
    assert [g.name for g in M.algebra.generators] == ["s1"]
    assert M.boundary.value_of("s1") == M.algebra.one().scale(5)
    assert check_boundary_square(M)


def test_koszul_model_two_variables():
    P = pres(Z, ["x1", "x2"], [{(2, 0): 1}, {(0, 3): 1}])
    M = koszul_model(P)
    v0 = [g for g in M.algebra.generators if g.hdeg == 0]
    v1 = [g for g in M.algebra.generators if g.hdeg == 1]
    assert len(v0) == 2 and len(v1) == 2
    assert M.boundary.value_of("s1") == M.algebra.element({(("x1", 2),): 1})
    assert M.boundary.value_of("s2") == M.algebra.element({(("x2", 3),): 1})


def test_quasi_monic_reduce_examples():
    P = pres(Z, ["x"], [{(2,): 1}])
    assert quasi_monic_reduce(P, {(3,): 1}) == {}
    P2 = pres(Z, ["x"], [{(2,): 1, (0,): -2}])
    assert quasi_monic_reduce(P2, {(2,): 1}) == {(0,): 2}
    assert P.reduced_monomials() == [(0,), (1,)]
    # idempotence and linearity on a sample
    g = {(5,): 3, (1,): 1}
    r = quasi_monic_reduce(P2, g)
    assert quasi_monic_reduce(P2, r) == r
    # normal-form set has cardinality prod m_i
    P3 = pres(Z, ["x", "y"], [{(2, 0): 1}, {(0, 3): 1}])
    assert len(P3.reduced_monomials()) == 6


def test_quasi_monic_detection():
    P = pres(Z, ["x"], [{(2,): 2}])  # leading coefficient 2 is not a unit
    assert not P.is_quasi_monic
    with pytest.raises(NotQuasiMonic):
        P.reduced_monomials()
    # over Q the same relation normalizes
    PQ = pres(Q, ["x"], [{(2,): 2}])
    assert PQ.is_quasi_monic
    # a variable without a relation has no finite basis
    P4 = pres(Z, ["x", "y"], [{(2, 0): 1}])
    assert P4.is_quasi_monic
    with pytest.raises(NotQuasiMonic):
        P4.reduced_monomials()


def test_make_rejects_exponent_tuples_of_the_wrong_length():
    # () over one variable would be stored as a constant that
    # is_zero_algebra, which looks constants up under (0,), never sees
    Z6 = GroundRing.Zmod(6)
    for rels in ([{(): 1}, {(2,): 1}], [{(2,): 1, (0, 0): 3}], [{(1, 2): 1}]):
        with pytest.raises(ValueError, match="number of variables"):
            Presentation.make(Z6, ["x"], rels)
    assert Presentation.make(Z6, ["x"], [{(0,): 1}, {(2,): 1}]).is_zero_algebra
    assert Presentation.make(Z6, [], [{(): 1}]).is_zero_algebra


def test_check_boundary_square_rejects_ill_formed():
    alg = GradedAlgebra(Z, [
        Generator("x", 0, POLYNOMIAL, poly_weight=1),
        Generator("y", 1, EXTERIOR),
        Generator("z", 2, POLYNOMIAL),
    ])
    bad = FreeDGA(alg, GammaDerivation(alg, -1, {
        "x": Element(alg),
        "y": alg.element({(("x", 2),): 1}),
        "z": alg.gen_element("y"),
    }))
    assert not check_boundary_square(bad)
    zero = FreeDGA(alg, GammaDerivation(alg, -1, {
        g.name: Element(alg) for g in alg.generators}))
    assert check_boundary_square(zero)


def witness_start(ring):
    alg = GradedAlgebra(ring, [
        Generator("y", 1, EXTERIOR),
        Generator("z", 2, POLYNOMIAL),
    ])
    boundary = GammaDerivation(alg, -1, {
        "y": Element(alg),
        "z": alg.gen_element("y"),
    })
    return FreeDGA(alg, boundary)


def test_tate_extend_start_is_exact_in_low_degrees():
    start = witness_start(Z)
    model = tate_extend(start, 3)
    # H_1 and H_2 of the start vanish, so nothing is adjoined
    assert model.algebra.generators == start.algebra.generators
    assert slice_homology(model, 1).is_trivial()
    assert slice_homology(model, 2).is_trivial()


def test_tate_extend_kills_degree_three_class():
    start = witness_start(Z)
    assert slice_homology(start, 3) == HomologyGroup(0, (2,))
    model = tate_extend(start, 4)
    added = model.algebra.generators[len(start.algebra.generators):]
    assert len(added) == 1
    g = added[0]
    assert g.hdeg == 4
    # boundary is the cycle y*z up to sign
    yz = model.algebra.element({(("y", 1), ("z", 1)): 1})
    val = model.boundary.value_of(g.name)
    assert val == yz or val == yz.scale(-1)
    assert slice_homology(model, 3).is_trivial()
    assert check_boundary_square(model)


def test_tate_extend_full_witness_window():
    for ring in (Z, GroundRing.Zmod(2), Q):
        model = tate_extend(witness_start(ring), 6)
        assert check_boundary_square(model)
        for m in range(1, 6):
            assert slice_homology(model, m).is_trivial(), (ring, m)
        assert slice_homology(model, 0) == (
            HomologyGroup(1, ()) if ring.kind != "Zmod"
            else HomologyGroup.from_factors(0, [2]))


def test_tate_extend_rejects_degree_zero():
    P = pres(Z, ["x"], [{(2,): 1}])
    with pytest.raises(UnsupportedV0):
        tate_extend(koszul_model(P), 3)


def test_tate_extend_choice_invariance():
    # listing the starting generators in the other order changes the
    # cycle representatives chosen, but not any homology downstream
    alg2 = GradedAlgebra(Z, [
        Generator("z", 2, POLYNOMIAL),
        Generator("y", 1, EXTERIOR),
    ])
    other = FreeDGA(alg2, GammaDerivation(alg2, -1, {
        "z": alg2.gen_element("y"),
        "y": Element(alg2),
    }))
    t1 = tate_extend(witness_start(Z), 6)
    t2 = tate_extend(other, 6)
    from shukla.gammaforms import build_gamma_forms
    from shukla.mixed import cyclic_total, hochschild_total
    G1 = build_gamma_forms(t1, 4)
    G2 = build_gamma_forms(t2, 4)
    assert hochschild_total(G1.complex, 4) == hochschild_total(G2.complex, 4)
    assert cyclic_total(G1.complex, 3) == cyclic_total(G2.complex, 3)


def test_trivial_model():
    # the empty presentation: the zero-generator model of the ground ring
    M = koszul_model(pres(Z, (), ()))
    assert M.algebra.generators == ()
    assert slice_homology(M, 0) == HomologyGroup(1, ())
    assert slice_homology(M, 1).is_trivial()


# ---------------------------------------------------------------------------
# References: the rewriting as it was decided before Presentation held the
# rules.  Each relation carried a tag, quasi_monic_reduce rebuilt a rule
# dict in relation order and reduced coefficients modulo the constant
# relations, and the crystalline pipeline ran its own loop.
# ---------------------------------------------------------------------------

RINGS = [Z, GroundRing.Zmod(4), GroundRing.Zmod(9), Q]


def _reference_classify(ring, relations):
    """Normalized relations, and per relation ("var", i, m, lower),
    ("const", c) or None."""
    def scale(p, c):
        out = {}
        for e, v in p.items():
            w = ring.mul(v, c)
            if not ring.is_zero(w):
                out[e] = w
        return out

    normalized, data, used = [], [], set()
    for rel in relations:
        rel = {tuple(e): ring.normalize(c) for e, c in rel.items()
               if not ring.is_zero(ring.normalize(c))}
        lead_e, lead_c = leading_term(rel)
        nz = [i for i, e in enumerate(lead_e) if e]
        if not nz:
            if ring.kind == "Z" and abs(int(lead_c)) >= 2:
                data.append(("const", abs(int(lead_c))))
            elif ring.kind == "Zmod":
                data.append(("const", int(lead_c)))
            else:
                data.append(None)
        elif len(nz) == 1 and ring.is_unit(lead_c):
            rel = scale(rel, ring.inv(lead_c))
            lower = dict(rel)
            lower.pop(lead_e)
            if nz[0] in used:
                data.append(None)
            else:
                used.add(nz[0])
                data.append(("var", nz[0], lead_e[nz[0]], scale(lower, -1)))
        else:
            data.append(None)
        normalized.append(rel)
    return tuple(normalized), tuple(data)


def _reference_quasi_monic_reduce(ring, data, poly):
    rules = {d[1]: (d[2], d[3]) for d in data if d[0] == "var"}
    work = list(poly.items())
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
    modulus = ring.modulus or 0
    for d in data:
        if d[0] == "const":
            modulus = gcd(modulus, d[1])
    if modulus:
        out = {e: c % modulus for e, c in out.items() if c % modulus}
    return out


def _reference_push_coefficient(data, nvars, terms, Q):
    bounds = [None] * nvars
    var_rules = {}
    for t, d in enumerate(data):
        if d[0] == "var":
            bounds[d[1]] = d[2]
            var_rules[d[1]] = (t, d[2], d[3])
    out = {}
    work = [(e, c, Q) for e, c in terms.items()]
    while work:
        e, c, Q = work.pop()
        if c == 0:
            continue
        hit = None
        for i, b in enumerate(bounds):
            if e[i] >= b:
                hit = i
                break
        if hit is None:
            key = (e, Q)
            out[key] = out.get(key, 0) + c
            if out[key] == 0:
                del out[key]
            continue
        t, m, lower = var_rules[hit]
        rest = tuple(v - (m if i == hit else 0) for i, v in enumerate(e))
        bumped = tuple(q + (1 if i == t else 0) for i, q in enumerate(Q))
        work.append((rest, c * (Q[t] + 1), bumped))
        for le, lc in lower.items():
            ne = tuple(a + b for a, b in zip(rest, le))
            work.append((ne, c * lc, Q))
    return out


def _random_coefficient(ring, rng):
    c = rng.choice([1, -1, 2, 3, -3, 6])  # non-units too
    if ring.kind == "Q" and rng.random() < 0.5:
        return Fraction(c, rng.randint(2, 5))
    return c


def _random_unit(ring, rng):
    if ring.kind == "Q":
        return Fraction(rng.choice([1, -1, 2, 3]), rng.randint(1, 3))
    return rng.choice([u for u in range(-3, 9) if ring.is_unit(u)])


def _random_presentation(ring, rng, with_const):
    """One or two variables, each bounded by a unit pure power x_i^m with
    lower terms below it in grlex, in shuffled relation order; with_const
    adds a constant relation."""
    nv = rng.randint(1, 2)
    rels = []
    for i in range(nv):
        m = rng.randint(1, 3)
        lead = tuple(m if j == i else 0 for j in range(nv))
        rel = {lead: _random_unit(ring, rng)}
        below = [e for e in product(range(m + 1), repeat=nv)
                 if _grlex_key(e) < _grlex_key(lead)]
        for e in rng.sample(below, min(len(below), rng.randint(0, 3))):
            rel[e] = _random_coefficient(ring, rng)
        rels.append(rel)
    if with_const:
        rels.append({(0,) * nv: rng.choice([2, 3, 6])})
    rng.shuffle(rels)
    return nv, rels


def _random_terms(P, rng):
    """A few terms with exponents up to twice each variable's bound."""
    tops = [2 * m for _, m, _ in P.rules.values()]
    return {tuple(rng.randint(0, top) for top in tops): _random_coefficient(P.ring, rng)
            for _ in range(rng.randint(1, 4))}


def _reference_of(P, rels):
    """The reference tags of the relations P was made from."""
    normalized, data = _reference_classify(P.ring, rels)
    assert normalized == P.relations
    return data


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_presentation_rules_match_reference_tags(ring):
    rng = random.Random(10)
    for case in range(120):
        nv, rels = _random_presentation(ring, rng, ring.kind != "Q" and case % 3 == 0)
        # spoil some: a second pure power, a non-unit or mixed leading
        # term, a unit constant
        spoil = case % 5
        if spoil == 1:
            i = rng.randrange(nv)
            rels.append({tuple(2 if j == i else 0 for j in range(nv)): _random_unit(ring, rng),
                         (0,) * nv: _random_coefficient(ring, rng)})
        elif spoil == 2:
            rels.append({(3,) + (0,) * (nv - 1): rng.choice([2, 3, 6])})
        elif spoil == 3 and nv == 2:
            rels.append({(1, 1): 1, (1, 0): 2})
        elif spoil == 4:
            rels.append({(0,) * nv: 1})
        P = pres(ring, ["x", "y"][:nv], rels)
        data = _reference_of(P, rels)
        assert P.rules == {d[1]: (t, d[2], d[3]) for t, d in enumerate(data)
                           if d and d[0] == "var"}
        assert P.consts == tuple((t, d[1]) for t, d in enumerate(data)
                                 if d and d[0] == "const")
        assert P.is_quasi_monic == all(d is not None for d in data)


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_rewrite_matches_reference_push(ring):
    rng = random.Random(11)
    for case in range(80):
        nv, rels = _random_presentation(ring, rng, ring.kind != "Q" and case % 3 == 0)
        P = pres(ring, ["x", "y"][:nv], rels)
        data = _reference_of(P, rels)
        for _ in range(4):
            terms = _random_terms(P, rng)
            Q = tuple(rng.randint(0, 2) for _ in P.relations)
            assert rewrite(P, terms, Q) == _reference_push_coefficient(data, nv, terms, Q)


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_quasi_monic_reduce_matches_reference(ring):
    rng = random.Random(12)
    for _ in range(80):
        nv, rels = _random_presentation(ring, rng, False)
        P = pres(ring, ["x", "y"][:nv], rels)
        data = _reference_of(P, rels)
        for _ in range(4):
            poly = _random_terms(P, rng)
            assert quasi_monic_reduce(P, poly) == _reference_quasi_monic_reduce(
                ring, data, poly)
