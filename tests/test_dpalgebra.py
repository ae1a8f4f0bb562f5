import gc
import random
from fractions import Fraction
from itertools import product

import pytest

from shukla.errors import TruncationOverflow, UndefinedGenerator
from shukla.dpalgebra import (
    DIVIDED_POWER, EXTERIOR, POLYNOMIAL, Element, GammaDerivation, Generator,
    GradedAlgebra, Slice, _least_budgets, _tails, basis_slice, contraction_complex,
    derivation_matrix, derive, homotopy_h,
)
from shukla import dpalgebra, gammaforms
from shukla.gammaforms import build_gamma_forms
from shukla.linalg import GroundRing
from shukla.models import Presentation, koszul_model
from witness import witness_top6

Z = GroundRing.Z()


def hypersurface_algebra():
    """Generators of the Gamma-forms of the model of Z[x]/(x^2)."""
    return GradedAlgebra(Z, [
        Generator("x", 0, POLYNOMIAL, poly_weight=1),
        Generator("y", 1, EXTERIOR, poly_weight=2),
        Generator("dx", 1, EXTERIOR, weight=1, poly_weight=1),
        Generator("dy", 2, DIVIDED_POWER, weight=1, poly_weight=2),
    ])


def test_basis_slice_exterior_square_vanishes():
    alg = GradedAlgebra(Z, [Generator("dx", 1, EXTERIOR, weight=1, poly_weight=1)])
    s = basis_slice(alg, 2, 2, poly_bound=10)
    assert s.monomials == ()


def test_basis_slice_divided_power_witness():
    alg = GradedAlgebra(Z, [Generator("dy", 2, DIVIDED_POWER, weight=1)])
    for p in (1, 2, 3):
        s = basis_slice(alg, 2 * p, p)
        assert s.monomials == ((p,),)


def test_basis_slice_polynomial_filtration():
    alg = GradedAlgebra(Z, [Generator("x", 0, POLYNOMIAL, poly_weight=1)])
    s = basis_slice(alg, 0, 0, poly_bound=2)
    assert s.monomials == ((0,), (1,), (2,))
    with pytest.raises(ValueError):
        basis_slice(alg, 0, 0)


def test_mul_divided_power_binomial():
    alg = hypersurface_algebra()
    dy = alg.gen_element("dy")
    g2 = dy * dy
    assert g2 == alg.element({(("dy", 2),): 2})
    g3 = g2 * dy
    assert g3 == alg.element({(("dy", 3),): 6})
    # gamma^p gamma^q = C(p+q, p) gamma^{p+q} for all p+q <= 8
    from math import comb
    for p in range(1, 8):
        for q in range(1, 9 - p):
            gp = alg.element({(("dy", p),): 1})
            gq = alg.element({(("dy", q),): 1})
            assert gp * gq == alg.element({(("dy", p + q),): comb(p + q, p)})


def test_mul_exterior_and_koszul_sign():
    alg = hypersurface_algebra()
    dx = alg.gen_element("dx")
    assert (dx * dx).is_zero()
    x = alg.gen_element("x")
    y = alg.gen_element("y")
    xdx = x * dx
    # y odd, x*dx odd: (x dx) y = - y (x dx)
    assert xdx * y == (y * xdx).scale(-1)
    # associativity on a mixed product
    assert (x * y) * dx == x * (y * dx)


def test_derive_gamma_rule():
    alg = hypersurface_algebra()
    d = GammaDerivation(alg, +1, {
        "x": alg.gen_element("dx"),
        "y": alg.gen_element("dy"),
        "dx": Element(alg),
        "dy": Element(alg),
    })
    for n in (1, 2, 3):
        gn = alg.element({(("dy", n),): 1})
        expected = (alg.element({(("dy", n - 1),): 1}) if n > 1 else alg.one())
        assert derive(d, gn).is_zero()  # d(dy) = 0 kills the gamma rule image
    # d(y * gamma_n(dy)) = dy * gamma_n(dy) = (n+1) gamma_{n+1}(dy)
    y = alg.gen_element("y")
    for n in (1, 2):
        gn = alg.element({(("dy", n),): 1})
        img = derive(d, y * gn)
        assert img == alg.element({(("dy", n + 1),): n + 1})


def test_derive_witness_identities():
    # model with boundary dz = y, dy = 0: delta(gamma^p(dy)) = 0 and
    # delta(gamma^{p-1}(dy) dz) = -p gamma^p(dy)
    alg = GradedAlgebra(Z, [
        Generator("y", 1, EXTERIOR),
        Generator("z", 2, POLYNOMIAL),
        Generator("dy", 2, DIVIDED_POWER, weight=1),
        Generator("dz", 3, EXTERIOR, weight=1),
    ])
    dmap = {"y": alg.gen_element("dy"), "z": alg.gen_element("dz"),
            "dy": Element(alg), "dz": Element(alg)}
    d = GammaDerivation(alg, +1, dmap)
    delta = GammaDerivation(alg, -1, {
        "y": Element(alg),               # boundary of y is 0
        "z": alg.gen_element("y"),       # boundary of z is y
        "dy": Element(alg),              # -d(0)
        "dz": alg.gen_element("dy").scale(-1),  # -d(y)
    })
    for p in (2, 3):
        gp = alg.element({(("dy", p),): 1})
        assert derive(delta, gp).is_zero()
        beta = alg.element({(("dy", p - 1),): 1}) * alg.gen_element("dz")
        assert derive(delta, beta) == gp.scale(-p)


def test_derive_leibniz_random():
    alg = hypersurface_algebra()
    delta = GammaDerivation(alg, -1, {
        "x": Element(alg),
        "y": alg.element({(("x", 2),): 1}),
        "dx": Element(alg),
        "dy": alg.element({(("x", 1), ("dx", 1)): -2}),
    })
    rng = random.Random(2)
    monos = [alg.monomial(m) for m in
             ([("x", 2)], [("y", 1)], [("dx", 1)], [("dy", 2)],
              [("x", 1), ("dx", 1)], [("y", 1), ("dy", 1)])]
    for _ in range(200):
        a = alg.element({rng.choice(monos): rng.randint(-3, 3)})
        b = alg.element({rng.choice(monos): rng.randint(-3, 3)})
        lhs = derive(delta, a * b)
        da = list(a.terms)
        par = alg.mono_hdeg(da[0]) % 2 if da else 0
        rhs = derive(delta, a) * b + (a * derive(delta, b)).scale(-1 if par else 1)
        assert lhs == rhs


def test_derive_undefined_generator():
    alg = hypersurface_algebra()
    d = GammaDerivation(alg, +1, {"x": alg.gen_element("dx")})
    with pytest.raises(UndefinedGenerator):
        derive(d, alg.gen_element("y"))


def test_derivation_matrix_examples():
    alg = hypersurface_algebra()
    zero = GammaDerivation(alg, -1, {g.name: Element(alg) for g in alg.generators})
    s2 = basis_slice(alg, 2, 1, poly_bound=4)
    s1 = basis_slice(alg, 1, 1, poly_bound=6)
    m = derivation_matrix(zero, s2, s1)
    assert m.is_zero()
    # delta(dy) = -2 x dx as a 1x1 matrix in the bases {dy} -> {x dx}
    delta = GammaDerivation(alg, -1, {
        "x": Element(alg),
        "y": alg.element({(("x", 2),): 1}),
        "dx": Element(alg),
        "dy": alg.element({(("x", 1), ("dx", 1)): -2}),
    })
    src = Slice(alg, 2, 1, None, (alg.monomial([("dy", 1)]),))
    tgt = Slice(alg, 1, 1, None, (alg.monomial([("x", 1), ("dx", 1)]),))
    m = derivation_matrix(delta, src, tgt)
    assert m.to_rows() == [[-2]]
    # d on span{y} -> span{dy} is (1)
    d = GammaDerivation(alg, +1, {
        "x": alg.gen_element("dx"), "y": alg.gen_element("dy"),
        "dx": Element(alg), "dy": Element(alg)})
    src = Slice(alg, 1, 0, None, (alg.monomial([("y", 1)]),))
    tgt = Slice(alg, 2, 1, None, (alg.monomial([("dy", 1)]),))
    assert derivation_matrix(d, src, tgt).to_rows() == [[1]]


def test_derivation_matrix_truncation_overflow():
    alg = hypersurface_algebra()
    delta = GammaDerivation(alg, -1, {
        "x": Element(alg),
        "y": alg.element({(("x", 2),): 1}),
        "dx": Element(alg),
        "dy": alg.element({(("x", 1), ("dx", 1)): -2}),
    })
    src = basis_slice(alg, 1, 0, poly_bound=4)   # contains x^2 y
    tgt = basis_slice(alg, 0, 0, poly_bound=2)   # too small for x^4
    with pytest.raises(TruncationOverflow,
                       match=r"^image of x\*y has truncation degree 3 > bound 2$"):
        derivation_matrix(delta, src, tgt)
    # the message names the source monomial x^a * r, not its r
    tgt = basis_slice(alg, 0, 0, poly_bound=3)
    with pytest.raises(TruncationOverflow,
                       match=r"^image of x\^2\*y has truncation degree 4 > bound 3$"):
        derivation_matrix(delta, src, tgt)


def test_homotopy_block_rules():
    # even w: h(w^{n+1}) = w^n dw, h(w^n dw) = 0
    data = contraction_complex(Z, [], [("w", 2)])
    alg = data.algebra
    for n in range(0, 4):
        e = alg.element({(("w", n + 1),): 1})
        expected = alg.element({alg.monomial([("w", n), ("dw", 1)]): 1})
        assert homotopy_h(data, e) == expected
        wn_dw = alg.element({alg.monomial([("w", n), ("dw", 1)]): 1})
        assert homotopy_h(data, wn_dw).is_zero()
    # odd w: h(w gamma_p(dw)) = gamma_{p+1}(dw), h(gamma_p(dw)) = 0
    data = contraction_complex(Z, [], [("w", 1)])
    alg = data.algebra
    for p in range(0, 4):
        e = alg.element({alg.monomial([("w", 1), ("dw", p)] if p else [("w", 1)]): 1})
        got = homotopy_h(data, e)
        assert got == alg.element({alg.monomial([("dw", p + 1)]): 1})
        if p:
            gp = alg.element({alg.monomial([("dw", p)]): 1})
            assert homotopy_h(data, gp).is_zero()
    # h(1) = 0 in either case
    assert homotopy_h(data, alg.one()).is_zero()


def random_element(data, rng, max_terms=3):
    alg = data.algebra
    gens = alg.generators
    e = Element(alg)
    for _ in range(rng.randint(1, max_terms)):
        letters = []
        has_w = False
        for i, g in enumerate(gens):
            if g.kind == EXTERIOR:
                exp = rng.randint(0, 1)
            else:
                exp = rng.randint(0, 2)
            if exp:
                letters.append((g.name, exp))
                if g.name in data.w_names or g.name in data.dw_of.values():
                    has_w = True
        if not has_w:
            w = rng.choice(data.w_names)
            letters.append((w, 1))
        try:
            mono = alg.monomial(letters)
        except ValueError:
            continue
        e._add_term(mono, rng.randint(-4, 4))
    return e


def test_homotopy_identities_random():
    rng = random.Random(424242)
    for trial in range(25):
        nv = rng.randint(0, 2)
        nw = rng.randint(1, 3)
        v_gens = [(f"v{i}", rng.randint(1, 3)) for i in range(nv)]
        w_gens = [(f"w{i}", rng.randint(1, 3)) for i in range(nw)]
        data = contraction_complex(Z, v_gens, w_gens)
        D = data.boundary
        for _ in range(4):
            e = random_element(data, rng)
            if e.is_zero():
                continue
            # hD + Dh = Id on the ideal generated by W and dW
            lhs = homotopy_h(data, derive(D, e)) + derive(D, homotopy_h(data, e))
            assert lhs == e, (v_gens, w_gens, repr(e))
            # h^2 = 0
            assert homotopy_h(data, homotopy_h(data, e)).is_zero()
            # DhD = D
            assert derive(D, homotopy_h(data, derive(D, e))) == derive(D, e)


def test_homotopy_drops_w_adic_filtration():
    # h(I^r K) is inside I^{r-1} K, where I is generated by W
    rng = random.Random(7)
    data = contraction_complex(Z, [("v0", 2)], [("w0", 2), ("w1", 1)])
    alg = data.algebra
    w_indices = {alg.index[w] for w in data.w_names}

    def w_multiplicity(mono):
        return sum(mono[i] for i in w_indices)

    for _ in range(50):
        e = random_element(data, rng)
        if e.is_zero():
            continue
        r = min((w_multiplicity(m) for m in e.terms), default=0)
        h = homotopy_h(data, e)
        for m in h.terms:
            assert w_multiplicity(m) >= max(r - 1, 0)


def _reference_derive(deriv, e):
    """D by whole-Element products, (prefix * (stub * D(g))) * suffix per
    letter: the reference derive and derivation_matrix must match."""
    alg = e.algebra
    ring = alg.ring
    n = len(alg.generators)
    out = Element(alg)
    for mono, coeff in e.terms.items():
        prefix_deg = 0
        for gi, exp in enumerate(mono):
            if not exp:
                continue
            g = alg.generators[gi]
            val = deriv.value_of(g.name)
            if not val.is_zero():
                stub = Element(alg, {tuple(exp - 1 if j == gi else 0 for j in range(n)): 1})
                if g.kind == POLYNOMIAL:
                    letter = stub * val.scale(exp)
                elif g.kind == DIVIDED_POWER:
                    letter = stub * val
                else:
                    letter = val
                prefix = Element(alg, {mono[:gi] + (0,) * (n - gi): 1})
                suffix = Element(alg, {(0,) * (gi + 1) + mono[gi + 1:]: 1})
                term = (prefix * letter) * suffix
                sign = ring.neg(coeff) if prefix_deg % 2 else coeff
                for m, c in term.terms.items():
                    out._add_term(m, ring.mul(c, sign))
            prefix_deg += exp * g.hdeg
    return out


def _all_kinds_algebra(ring, rng, with_degree_zero=True):
    """Polynomial in degrees 0 and 2, exterior in 1 and 3, divided-power
    in 2 and 4, in a shuffled table order."""
    gens = [
        Generator("u", 2, POLYNOMIAL, poly_weight=1),
        Generator("y", 1, EXTERIOR, poly_weight=2),
        Generator("z", 3, EXTERIOR),
        Generator("g", 2, DIVIDED_POWER, weight=1),
        Generator("h", 4, DIVIDED_POWER, weight=1, poly_weight=1),
    ]
    if with_degree_zero:
        gens.append(Generator("x", 0, POLYNOMIAL, poly_weight=1))
    rng.shuffle(gens)
    return GradedAlgebra(ring, gens)


def _random_scalar(ring, rng):
    c = rng.randint(-6, 6)
    if ring.kind == "Q" and rng.random() < 0.5:
        return Fraction(c, rng.randint(1, 4))
    return c


def _random_element_of(alg, rng, terms):
    e = Element(alg)
    for _ in range(terms):
        letters = []
        for g in alg.generators:
            e_max = 1 if g.kind == EXTERIOR else 2
            if rng.random() < 0.4:
                letters.append((g.name, rng.randint(1, e_max)))
        e._add_term(alg.monomial(letters), _random_scalar(alg.ring, rng))
    return e


@pytest.mark.parametrize("ring", [GroundRing.Z(), GroundRing.Zmod(4),
                                  GroundRing.Zmod(9), GroundRing.Q()],
                         ids=repr)
def test_derive_and_matrix_match_element_products(ring):
    rng = random.Random(8)
    for _ in range(12):
        alg = _all_kinds_algebra(ring, rng)
        deriv = GammaDerivation(alg, -1, {
            g.name: _random_element_of(alg, rng, rng.randint(0, 3))
            for g in alg.generators})
        for _ in range(10):
            e = _random_element_of(alg, rng, 3)
            assert derive(deriv, e) == _reference_derive(deriv, e)
        # the matrix on each slice, into a target holding every image monomial
        for h in range(1, 5):
            for w in range(3):
                src = basis_slice(alg, h, w, poly_bound=2)
                images = [_reference_derive(deriv, Element(alg, {m: 1}))
                          for m in src.monomials]
                tgt = Slice(alg, h - 1, w, None,
                            tuple(sorted({m for im in images for m in im.terms})))
                row = {m: r for r, m in enumerate(tgt.monomials)}
                expected = {(row[m], j): c for j, im in enumerate(images)
                            for m, c in im.terms.items()}
                assert derivation_matrix(deriv, src, tgt).entries == expected


def _brute_force_grades(alg):
    """(exponent vector, hdeg, weight, poly weight) of every monomial with
    exponents up to 3, sorted by exponent vector."""
    gens = alg.generators
    out = []
    for vec in product(range(4), repeat=len(gens)):
        if all(e <= 1 for g, e in zip(gens, vec) if g.kind == EXTERIOR):
            out.append((vec, sum(g.hdeg * e for g, e in zip(gens, vec)),
                        sum(g.weight * e for g, e in zip(gens, vec)),
                        sum(g.poly_weight * e for g, e in zip(gens, vec))))
    return out


@pytest.mark.parametrize("with_degree_zero", [True, False])
def test_basis_slice_matches_brute_force_in_order(with_degree_zero):
    # exponents up to 3 cover every slice below: hdeg <= 5, bound <= 3
    rng = random.Random(5)
    for _ in range(4):
        alg = _all_kinds_algebra(Z, rng, with_degree_zero)
        grades = _brute_force_grades(alg)
        for bound in (0, 2, 3) if with_degree_zero else (None, 1, 3):
            for h in range(6):
                for w in range(3):
                    expected = tuple(
                        vec for vec, vh, vw, vp in grades
                        if vh == h and vw == w and (bound is None or vp <= bound))
                    assert basis_slice(alg, h, w, bound).monomials == expected


def _brute_force_slice(alg, h, w, bound):
    """basis_slice by enumeration: every exponent vector within the caps
    the grading forces on each generator, filtered by (hdeg, weight,
    truncation degree) and sorted by exponent vector."""
    gens = alg.generators
    ranges = []
    for g in gens:
        caps = [1] if g.kind == EXTERIOR else []
        if g.hdeg:
            caps.append(h // g.hdeg)
        if g.weight:
            caps.append(w // g.weight)
        if g.poly_weight and bound is not None:
            caps.append(bound // g.poly_weight)
        ranges.append(range(min(caps) + 1))
    vecs = sorted(
        vec for vec in product(*ranges)
        if sum(g.hdeg * e for g, e in zip(gens, vec)) == h
        and sum(g.weight * e for g, e in zip(gens, vec)) == w
        and (bound is None or sum(g.poly_weight * e for g, e in zip(gens, vec)) <= bound))
    return tuple(vecs)


# the forms algebras of the presentations of the benchmark corpus
corpus_forms_algebras = pytest.mark.parametrize("variables, rels, n_max", [
    (["x", "y"], [{(2, 0): 1}, {(0, 2): 1}], 3),
    (["x", "y", "z"], [{(2, 0, 0): 1}, {(0, 2, 0): 1}, {(0, 0, 2): 1}], 1),
    (["x", "y"], [{(2, 0): 1, (0, 3): -1}], 3),
    (["x", "y"], [{(0, 0): 4}, {(2, 0): 1}, {(0, 2): 1}], 2),
], ids=["x2_y2", "x2_y2_z2", "cusp", "4_x2_y2"])


@corpus_forms_algebras
def test_basis_slice_matches_brute_force_on_forms_algebras(variables, rels, n_max):
    P = Presentation.make(Z, variables, rels)
    G = build_gamma_forms(koszul_model(P), n_max)
    for (h, q), s in G.slices.items():
        assert s.monomials == _brute_force_slice(G.algebra, h, q, G.poly_bound), (h, q)


@corpus_forms_algebras
def test_tails_makes_no_empty_list_on_forms_algebras(variables, rels, n_max):
    # the need table keeps the enumeration out of every remainder that
    # cannot be met within the budget left, so each suffix list it makes
    # holds a vector
    P = Presentation.make(Z, variables, rels)
    G = build_gamma_forms(koszul_model(P), n_max)
    gens = G.algebra.generators
    made = 0
    for (h, q), s in G.slices.items():
        if not s.dim:
            continue
        memo = {}
        need = _least_budgets(gens, h, q)
        assert tuple(_tails(gens, need, memo, 0, h, q, G.poly_bound)) == s.monomials
        assert all(memo.values()), (h, q)
        made += len(memo)
    assert made


def test_least_budgets_match_brute_force():
    # exponents up to 3 reach every (h, w) <= (5, 2), and a degree-0
    # letter only raises the truncation degree
    rng = random.Random(6)
    for _ in range(4):
        alg = _all_kinds_algebra(Z, rng)
        gens = alg.generators
        grades = _brute_force_grades(alg)
        need = _least_budgets(gens, 5, 2)
        assert len(need) == len(gens) + 1
        for i in range(len(gens) + 1):
            expected = {}
            for vec, vh, vw, vp in grades:
                if vh <= 5 and vw <= 2 and not any(vec[:i]):
                    expected[vh, vw] = min(expected.get((vh, vw), vp), vp)
            assert need[i] == expected, i


def test_basis_slice_on_an_empty_generator_table():
    alg = GradedAlgebra(Z, [])
    for bound in (None, 0, 3):
        for h in range(-1, 3):
            for w in range(-1, 3):
                expected = ((),) if (h, w) == (0, 0) else ()
                assert basis_slice(alg, h, w, bound).monomials == expected, (h, w)


def test_basis_slice_matches_brute_force_without_bound():
    G = build_gamma_forms(witness_top6(Z), 5)
    assert G.poly_bound is None
    contraction = contraction_complex(Z, [("v", 2)], [("w0", 1), ("w1", 2)])
    for alg in (G.algebra, contraction.algebra):
        for h in range(7):
            for w in range(4):
                expected = _brute_force_slice(alg, h, w, None)
                assert basis_slice(alg, h, w).monomials == expected, (h, w)


def _reference_matrix(deriv, source, target):
    """derivation_matrix by Element products: column j is
    prefix * g^(e-1) * D(g) * suffix summed over the letters of source
    monomial j, multiplied out by Element.__mul__ (mono_mul)."""
    alg = source.algebra
    row = {m: r for r, m in enumerate(target.monomials)}
    entries = {}
    for j, mono in enumerate(source.monomials):
        for m, c in _reference_derive(deriv, Element(alg, {mono: 1})).terms.items():
            entries[row[m], j] = c
    return entries


def _koszul(ring, variables, rels):
    return lambda: koszul_model(Presentation.make(ring, variables, rels))


@pytest.mark.parametrize("make_model, n_max", [
    (_koszul(Z, ["x", "y"], [{(2, 0): 1}, {(0, 2): 1}]), 3),
    (_koszul(GroundRing.Q(), ["x", "y"], [{(2, 0): 1}, {(0, 2): 1}]), 3),
    (_koszul(Z, ["x", "y", "z"], [{(2, 0, 0): 1}, {(0, 2, 0): 1}, {(0, 0, 2): 1}]), 2),
    (_koszul(Z, ["x", "y"], [{(2, 0): 1, (0, 3): -1}]), 3),
    (_koszul(Z, ["x", "y"], [{(0, 0): 4}, {(2, 0): 1}, {(0, 2): 1}]), 3),
    (_koszul(GroundRing.Zmod(9), ["x", "y"], [{(2, 0): 1, (0, 1): 3}, {(0, 2): 1}]), 3),
    (lambda: witness_top6(Z), 5),
], ids=["Z_x2_y2", "Q_x2_y2", "Z_x2_y2_z2", "Z_cusp", "Z_4_x2_y2",
        "Z9_x2p3y_y2", "witness_top6"])
def test_derivation_matrix_matches_element_products(monkeypatch, make_model, n_max):
    # every delta (b) and d (B) block of a forms complex, against the
    # column-by-column Element products; the witness model's degree-2
    # polynomial and divided-power letters exercise the binomials and the
    # exterior collisions, the Koszul models the odd-crossing signs
    built = []

    def spy(deriv, source, target):
        mat = derivation_matrix(deriv, source, target)
        built.append((deriv, source, target, mat))
        return mat

    monkeypatch.setattr(gammaforms, "derivation_matrix", spy)
    G = build_gamma_forms(make_model(), n_max)
    assert G.complex.B  # the first read builds the d blocks
    assert {d.parity for d, *_ in built} == {1, -1}
    for deriv, source, target, mat in built:
        assert mat.entries == _reference_matrix(deriv, source, target), \
            (deriv.parity, source.hdeg, source.weight)


def _every_image_slice(deriv, monomials):
    """The source slice on the given monomials and a target slice holding
    every monomial of their reference images."""
    alg = deriv.algebra
    src = Slice(alg, 0, 0, None, tuple(monomials))
    images = {m for mono in src.monomials
              for m in _reference_derive(deriv, Element(alg, {mono: 1})).terms}
    return src, Slice(alg, 0, 0, None, tuple(sorted(images)))


def _prefix_algebra(ring):
    """Two polynomial letters x1, x2 ahead of odd and divided-power ones."""
    return GradedAlgebra(ring, [
        Generator("x1", 0, POLYNOMIAL, poly_weight=1),
        Generator("x2", 0, POLYNOMIAL, poly_weight=1),
        Generator("y", 1, EXTERIOR),
        Generator("z", 1, EXTERIOR),
        Generator("g", 2, DIVIDED_POWER, weight=1),
    ])


@pytest.mark.parametrize("ring", [GroundRing.Z(), GroundRing.Zmod(4), GroundRing.Q()],
                         ids=repr)
def test_derivation_matrix_prefix_terms_carry_x_and_odd_letters(ring):
    # D(x_i) holds x letters and odd letters, so the x^(a - e_i) D(x_i) r
    # terms meet x^a D(r): in the column of x1^a1 x2^a2 g the monomial
    # x1^a1 x2^(a2+1) g gets a1 from D(x1) = x1 x2 + ... and -2 from
    # D(g) = -2 x2 g + ..., which cancel at a1 = 2
    alg = _prefix_algebra(ring)
    e = alg.element
    deriv = GammaDerivation(alg, -1, {
        "x1": e({(("x1", 1), ("x2", 1)): 1, (("y", 1),): 2}),
        "x2": e({(("x1", 2), ("y", 1)): 1, (("g", 1),): -1, (("x2", 1), ("y", 1), ("z", 1)): 3}),
        "y": e({(("x2", 1),): 1, (("x1", 1), ("z", 1)): -1}),
        "z": e({(("x1", 1), ("y", 1)): 1}),
        "g": e({(("x2", 1), ("g", 1)): -2, (("x1", 1), ("y", 1), ("z", 1)): 1}),
    })
    src, tgt = _every_image_slice(
        deriv, product(range(3), range(3), range(2), range(2), range(3)))
    mat = derivation_matrix(deriv, src, tgt)
    assert mat.entries == _reference_matrix(deriv, src, tgt)
    col = src.monomials.index((2, 0, 0, 0, 1))
    assert (tgt.monomials.index((2, 1, 0, 0, 1)), col) not in mat.entries
    col = src.monomials.index((1, 0, 0, 0, 1))
    assert mat.entries[tgt.monomials.index((1, 1, 0, 0, 1)), col] == ring.normalize(-1)


def test_derivation_matrix_on_an_all_polynomial_algebra():
    # every monomial is x^a with r = (): one r serves every column
    alg = GradedAlgebra(Z, [Generator("x", 0, POLYNOMIAL, poly_weight=1),
                            Generator("u", 2, POLYNOMIAL, poly_weight=1)])
    deriv = GammaDerivation(alg, 1, {
        "x": alg.element({(("u", 2),): 1, (("x", 1), ("u", 1)): -3, (): 5}),
        "u": alg.element({(("x", 2),): 2}),
    })
    src, tgt = _every_image_slice(deriv, product(range(4), range(4)))
    assert derivation_matrix(deriv, src, tgt).entries == _reference_matrix(deriv, src, tgt)


def _count_r_parts(monkeypatch):
    calls = []
    real = dpalgebra._r_parts

    def counted(deriv, table, lead_values, p, r):
        calls.append(r)
        return real(deriv, table, lead_values, p, r)

    monkeypatch.setattr(dpalgebra, "_r_parts", counted)
    return calls


def test_derivation_matrix_shares_each_r_within_a_call(monkeypatch):
    calls = _count_r_parts(monkeypatch)
    alg = hypersurface_algebra()
    d = GammaDerivation(alg, +1, {"x": alg.gen_element("dx"), "y": alg.gen_element("dy"),
                                  "dx": Element(alg), "dy": Element(alg)})
    src = basis_slice(alg, 2, 1, poly_bound=8)
    tgt = basis_slice(alg, 3, 2, poly_bound=8)
    mat = derivation_matrix(d, src, tgt)
    assert mat.entries == _reference_matrix(d, src, tgt)
    assert sorted(calls) == sorted({mono[1:] for mono in src.monomials})
    assert len(calls) < src.dim


def test_derivation_matrix_without_a_polynomial_prefix(monkeypatch):
    # an exterior first generator: no prefix, so each monomial is its own
    # r and nothing is memoized or looked up twice
    calls = _count_r_parts(monkeypatch)
    alg = GradedAlgebra(Z, [
        Generator("y", 1, EXTERIOR, poly_weight=2),
        Generator("x", 0, POLYNOMIAL, poly_weight=1),
        Generator("dy", 2, DIVIDED_POWER, weight=1, poly_weight=2),
        Generator("dx", 1, EXTERIOR, weight=1, poly_weight=1),
    ])
    delta = GammaDerivation(alg, -1, {
        "y": alg.element({(("x", 2),): 1}),
        "x": Element(alg),
        "dy": alg.element({(("x", 1), ("dx", 1)): -2}),
        "dx": Element(alg),
    })
    src = basis_slice(alg, 3, 1, poly_bound=6)
    tgt = basis_slice(alg, 2, 1, poly_bound=6)
    assert derivation_matrix(delta, src, tgt).entries == _reference_matrix(delta, src, tgt)
    assert calls == list(src.monomials)


def test_derivation_matrix_raises_undefined_only_where_a_column_holds_it():
    alg = _prefix_algebra(Z)
    # no value for the prefix letter x2 nor for the odd letter z
    deriv = GammaDerivation(alg, -1, {
        "x1": alg.element({(("y", 1),): 1}),
        "y": alg.element({(("x1", 2),): 1}),
        "g": alg.element({(("x1", 1), ("y", 1)): 1}),
    })
    held = [mono for mono in product(range(3), range(3), range(2), range(2), range(3))
            if not mono[1] and not mono[3]]
    src, tgt = _every_image_slice(deriv, held)
    assert derivation_matrix(deriv, src, tgt).entries == _reference_matrix(deriv, src, tgt)
    for letter, mono in (("x2", (1, 1, 1, 0, 0)), ("z", (2, 0, 0, 1, 1)),
                         ("x2", (0, 2, 0, 1, 0))):
        src = Slice(alg, 0, 0, None, tuple(held) + (mono,))
        with pytest.raises(UndefinedGenerator, match=f"'{letter}'"):
            derivation_matrix(deriv, src, tgt)


def test_derivation_matrix_leaves_no_garbage_and_no_state(monkeypatch):
    # the memo of a call is freed by reference counting when the call
    # returns, and a second call computes every r again
    calls = _count_r_parts(monkeypatch)
    alg = hypersurface_algebra()
    delta = GammaDerivation(alg, -1, {
        "x": Element(alg),
        "y": alg.element({(("x", 2),): 1}),
        "dx": Element(alg),
        "dy": alg.element({(("x", 1), ("dx", 1)): -2}),
    })
    src = basis_slice(alg, 3, 1, poly_bound=6)
    tgt = basis_slice(alg, 2, 1, poly_bound=6)
    gc.collect()
    gc.disable()
    try:
        first = derivation_matrix(delta, src, tgt)
        assert gc.collect() == 0
        made = len(calls)
        second = derivation_matrix(delta, src, tgt)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert first.entries and first.entries == second.entries
    assert made and len(calls) == 2 * made


def test_basis_slice_leaves_no_garbage():
    # the suffix memo of a call is freed by reference counting when the
    # call returns; no cycle waits for the cyclic collector
    alg = hypersurface_algebra()
    gc.collect()
    gc.disable()
    try:
        s = basis_slice(alg, 3, 1, poly_bound=4)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert s.dim


def test_monomial_rejects_unknown_generator():
    alg = hypersurface_algebra()
    assert alg.monomial([("x", 2), ("dy", 0)]) == (2, 0, 0, 0)
    for exp in (0, 1):
        with pytest.raises(ValueError, match="'nope'"):
            alg.monomial([("nope", exp), ("x", 2)])
    with pytest.raises(ValueError):
        alg.element({(1, 0): 1})   # an exponent vector of the wrong length


def _padded(element, n):
    """The terms of an element with each exponent vector padded to n."""
    return {m + (0,) * (n - len(m)): c for m, c in element.terms.items()}


def test_grown_generator_tables_pad_old_values():
    # the model on the generators y, z, w1 is a prefix of the whole
    # witness model, and embedding keeps each old boundary, padded with
    # zeros
    big = witness_top6(Z)
    small = witness_top6(Z, count=3)
    gens = small.algebra.generators
    assert big.algebra.generators[:len(gens)] == gens
    n = len(big.algebra.generators)
    for g in gens:
        value = small.boundary.value_of(g.name)
        assert big.boundary.value_of(g.name).terms == _padded(value, n), g.name
        assert big.algebra.embed(value) == big.boundary.value_of(g.name), g.name
    # the forms algebra: delta of a model generator is its model boundary
    model = koszul_model(Presentation.make(Z, ["x", "y"], [{(2, 0): 1}, {(0, 2): 1}]))
    alg, _, delta = gammaforms._forms_derivations(model)
    n = len(alg.generators)
    for g in model.algebra.generators:
        assert delta.value_of(g.name).terms == _padded(model.boundary.value_of(g.name), n)
    # only an algebra whose table begins with the element's may embed it
    with pytest.raises(ValueError):
        model.algebra.embed(alg.gen_element("dx"))
    with pytest.raises(ValueError):
        hypersurface_algebra().embed(model.algebra.gen_element("x"))
