import random

import pytest

from shukla import crystalline
from shukla.crystalline import (
    L_complex, Lprime_complex, _form_words, _weights_upto, dbar, envelope_forms,
    hc_layers_small, hodge_hh,
)
from shukla.errors import TooManyVariables
from shukla.gammaforms import build_gamma_forms, hc_assemble, hh_assemble, hh_layers
from shukla.linalg import GroundRing, HomologyGroup
from shukla.mixed import cyclic_e2
from shukla.models import Presentation, koszul_model, rewrite

Z = GroundRing.Z()
Q = GroundRing.Q()

# Flat presentations beyond Z and unit leading terms: each pipeline's
# totals and layers must agree.  Z/4 with `rel 2` is not flat and stays out.
FLAT_FIXTURES = [
    pytest.param(Z, ["x"], [{(2,): 1}], id="Z-x2"),
    pytest.param(Z, ["x"], [{(3,): 1}], id="Z-x3"),
    pytest.param(Z, ["x", "y"], [{(2, 0): 1}, {(0, 2): 1}], id="Z-x2_y2"),
    pytest.param(GroundRing.Zmod(4), ["x"], [{(2,): 1, (0,): -2}], id="Z4-x2m2"),
    pytest.param(GroundRing.Zmod(6), ["x"], [{(2,): 1, (0,): 3}], id="Z6-x2p3"),
    pytest.param(GroundRing.Zmod(9), ["x", "y"], [{(2, 0): 1, (0, 1): 3}, {(0, 2): 1}],
                 id="Z9-x2p3y_y2"),
    pytest.param(Q, ["x"], [{(2,): 2, (0,): -1}], id="Q-2x2m1"),
    pytest.param(Z, ["x"], [{(0,): 2}, {(2,): 1}], id="Z-2_x2"),
    pytest.param(Z, ["x", "y"], [{(0, 0): 4}, {(2, 0): 1}, {(0, 2): 1}], id="Z-4_x2_y2"),
]


def pres(ring, variables, rels):
    return Presentation.make(ring, variables, rels)


def zero_forms(P, weight_max):
    """The 0-form words of gamma weight at most weight_max."""
    return _form_words(P, 0, _weights_upto(len(P.relations), weight_max))


def word(P, alpha, Q, S):
    """The forms monomial x^alpha dx_S gamma^Q(ds) of a presentation."""
    return (tuple(alpha) + (0,) * len(P.relations)
            + tuple(int(i in S) for i in range(len(P.variables))) + tuple(Q))


def weight(P, w):
    return sum(w[len(w) - len(P.relations):])


def test_dbar_examples():
    P = pres(Z, ["x"], [{(2,): 1}])
    F = envelope_forms(P)
    # dbar(gamma_2(x^2)) = gamma_1(x^2) * 2x dx
    assert dbar(F, {word(P, (0,), (2,), ()): 1}) == {word(P, (1,), (1,), (0,)): 2}
    # de Rham on reduced powers
    assert dbar(F, {word(P, (1,), (0,), ()): 1}) == {word(P, (0,), (0,), (0,)): 1}
    # dbar of dbar is zero on every window word
    for w in zero_forms(P, 3):
        img = dbar(F, {w: 1})
        assert dbar(F, img) == {}


def test_dbar_drops_weight_by_at_most_one():
    P = pres(Z, ["x", "y"], [{(2, 0): 1}, {(0, 2): 1}])
    F = envelope_forms(P)
    for w in zero_forms(P, 3):
        for w2 in dbar(F, {w: 1}):
            assert weight(P, w2) >= weight(P, w) - 1


def test_dbar_rewrites_once_per_unreduced_part(monkeypatch):
    # f = x^2 + xy: -delta(xy gamma_1(ds)) = xy df
    # = (2x^2y + xy^2) dx + x^2y dy.  Both dx terms meet a rule's bound
    # and share their non-x part, so they go to rewrite in one call, the
    # dy term in another; d(xy gamma_1(ds)) = (y dx + x dy) gamma_1(ds)
    # is reduced and goes to none.
    calls = []

    def spy(P, terms, Q):
        calls.append(dict(terms))
        return rewrite(P, terms, Q)

    monkeypatch.setattr(crystalline, "rewrite", spy)
    P = pres(Z, ["x", "y"], [{(2, 0): 1, (1, 1): 1}, {(0, 2): 1}])
    F = envelope_forms(P)
    for cap in (None, 0):
        calls.clear()
        got = dbar(F, {word(P, (1, 1), (1, 0), ()): 1}, cap)
        assert sorted(calls, key=len) == [{(2, 1): 1}, {(2, 1): 2, (1, 2): 1}]
        ref = _reference_dbar(P, {((1, 1), (1, 0), ()): 1}, cap)
        assert got == {word(P, *w): c for w, c in ref.items()}


def _reference_dbar(pres, element, weight_cap=None):
    """dbar on (alpha, Q, S) words by its own Leibniz rule: the de Rham
    part on the reduced coefficient, and gamma_q(f_t) -> gamma_{q-1}(f_t)
    df_t with each partial derivative of f_t formed term by term."""
    out = {}

    def add(w, c):
        out[w] = out.get(w, 0) + c

    for (alpha, Q, S), coeff in element.items():
        if weight_cap is None or sum(Q) <= weight_cap:
            for j, a in enumerate(alpha):
                if a and j not in S:
                    sign = (-1) ** sum(1 for s in S if s < j)
                    na = tuple(v - (i == j) for i, v in enumerate(alpha))
                    add((na, Q, tuple(sorted(S + (j,)))), coeff * a * sign)
        for t, q in enumerate(Q):
            if q == 0:
                continue
            Qm = tuple(v - (i == t) for i, v in enumerate(Q))
            for j in range(len(pres.variables)):
                if j in S:
                    continue
                shifted = {}
                for exps, c in pres.relations[t].items():
                    if exps[j]:
                        e = tuple(a + v - (i == j)
                                  for i, (a, v) in enumerate(zip(alpha, exps)))
                        shifted[e] = shifted.get(e, 0) + c * exps[j]
                sign = (-1) ** sum(1 for s in S if s < j)
                ns = tuple(sorted(S + (j,)))
                for (na, nq), c in rewrite(pres, shifted, Qm).items():
                    if weight_cap is None or sum(nq) <= weight_cap:
                        add((na, nq, ns), coeff * c * sign)
    return out


def _seeded_presentation(rnd, ring, with_const):
    nv = rnd.choice([1, 2])
    rels = []
    for i in range(nv):
        m = rnd.choice([2, 3])
        rel = {tuple(m if j == i else 0 for j in range(nv)): 1}
        for _ in range(2):
            e = tuple(rnd.randrange(m) if j == i else rnd.randrange(2) for j in range(nv))
            if sum(e) < m:
                rel[e] = rel.get(e, 0) + rnd.randint(-3, 3)
        rels.append(rel)
    if with_const:
        rels.insert(rnd.randrange(nv + 1), {(0,) * nv: 3 if ring.modulus == 9 else 2})
    return pres(ring, ["x", "y"][:nv], rels)


def _normalized(ring, element):
    out = {w: ring.normalize(c) for w, c in element.items()}
    return {w: c for w, c in out.items() if c}


# a constant relation over Q is a unit, which leaves no quasi-monic presentation
@pytest.mark.parametrize("ring,with_const", [
    (Z, False), (Z, True), (GroundRing.Zmod(4), False), (GroundRing.Zmod(4), True),
    (GroundRing.Zmod(9), False), (GroundRing.Zmod(9), True), (Q, False),
], ids=["Z", "Z-const", "Z4", "Z4-const", "Z9", "Z9-const", "Q"])
def test_dbar_matches_word_reference(ring, with_const):
    rnd = random.Random(f"{ring.kind}{ring.modulus}{with_const}")
    for _ in range(8):
        P = _seeded_presentation(rnd, ring, with_const)
        assert P.is_quasi_monic
        F = envelope_forms(P)
        n, r = len(P.variables), len(P.relations)
        words = [(w[:n], w[n + r + n:], tuple(i for i in range(n) if w[n + r + i]))
                 for f in range(n + 1)
                 for w in _form_words(P, f, _weights_upto(r, 3))]
        for _ in range(10):
            element = {w: rnd.randint(-4, 4) or 1 for w in rnd.sample(words, 3)}
            for cap in (None, 0, 1, 2):
                got = dbar(F, {word(P, *w): c for w, c in element.items()}, cap)
                ref = {word(P, *w): c
                       for w, c in _reference_dbar(P, element, cap).items()}
                assert _normalized(ring, got) == _normalized(ring, ref), (P, element, cap)


def test_L_complex_low_hodge():
    P = pres(Z, ["x"], [{(2,): 1}])
    L0 = L_complex(P, 0)
    assert L0.homology(0) == HomologyGroup(2, ())  # H = A
    L1 = L_complex(P, 1)
    assert L1.homology(0) == HomologyGroup.from_factors(1, [2])  # Kaehler forms
    assert L1.homology(1) == HomologyGroup(1, ())


def test_Lprime_low_hodge():
    P = pres(Z, ["x"], [{(2,): 1}])
    L0 = Lprime_complex(P, 0)
    assert L0.homology(0) == HomologyGroup(2, ())
    L1 = Lprime_complex(P, 1)
    assert L1.homology(0) == HomologyGroup.from_factors(0, [2])  # HC_1 spot


def test_Lprime_rational_matches_classical():
    P = pres(Q, ["x"], [{(2,): 1}])
    fg = hc_layers_small(P, 3)
    assert fg.total[0] == HomologyGroup(2, ())
    assert fg.total[1] == HomologyGroup(0, ())
    assert fg.total[2] == HomologyGroup(2, ())
    assert fg.total[3] == HomologyGroup(0, ())


@pytest.mark.parametrize("ring,vs,rels", FLAT_FIXTURES)
def test_hodge_hh_matches_forms_layerwise(ring, vs, rels):
    P = pres(ring, vs, rels)
    H = hodge_hh(P, 4)
    G = build_gamma_forms(koszul_model(P), 4)
    FL = hh_layers(G, 4)
    for n in range(5):
        assert H.total[n] == FL.total[n], n
    for k in set(H.layers) | set(FL.layers):
        assert H.layer(*k) == FL.layer(*k), k


def test_shukla_fixture_cross_pipeline():
    for p in (2, 3, 5):
        P = pres(Z, [], [{(): p}])
        H = hodge_hh(P, 8)
        G = build_gamma_forms(koszul_model(P), 8)
        hh = hh_assemble(G, 8)
        for n in range(9):
            assert H.total[n] == hh[n], (p, n)
            expected = (HomologyGroup.from_factors(0, [p]) if n % 2 == 0
                        else HomologyGroup(0, ()))
            assert hh[n] == expected


@pytest.mark.parametrize("ring,vs,rels", FLAT_FIXTURES)
def test_hc_layers_small_agreement(ring, vs, rels):
    P = pres(ring, vs, rels)
    HC = hc_layers_small(P, 3)
    G = build_gamma_forms(koszul_model(P), 3)
    fc = hc_assemble(G, 3)
    for n in range(4):
        assert HC.total[n].free_rank == fc.total[n].free_rank, n
        assert HC.total[n].torsion_order == fc.total[n].torsion_order, n


def test_hc_layers_small_variable_limit():
    P = pres(Z, ["x", "y", "z"],
             [{(2, 0, 0): 1}, {(0, 2, 0): 1}, {(0, 0, 2): 1}])
    with pytest.raises(TooManyVariables):
        hc_layers_small(P, 2)


def test_level_complex_boundaries_compose_to_zero():
    for vs, rels in ((["x"], [{(2,): 1}]),
                     (["x", "y"], [{(2, 0): 1}, {(0, 2): 1}]),
                     ([], [{(): 5}])):
        P = pres(Z, vs, rels)
        for p in range(4):
            for cplx in (L_complex(P, p), Lprime_complex(P, p)):
                for j in range(2, p + 1):
                    prod = cplx.mats[j - 1] * cplx.mats[j]
                    assert prod.is_zero(), (vs, p, j)


def test_second_page_identity():
    # the degenerate second page of the cyclic spectral sequence of the
    # forms complex equals the truncated-complex homology
    for vs, rels in ((["x"], [{(2,): 1}]), ([], [{(): 5}])):
        P = pres(Z, vs, rels)
        G = build_gamma_forms(koszul_model(P), 3)
        page = cyclic_e2(G.complex, 3)
        for (a, b), grp in page.items():
            assert grp == Lprime_complex(P, b).homology(a), (vs, a, b)
