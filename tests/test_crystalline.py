import pytest

from shukla.crystalline import (
    L_complex, Lprime_complex, _form_words, _weights_upto, dbar, hc_layers_small,
    hodge_hh,
)
from shukla.errors import TooManyVariables
from shukla.gammaforms import build_gamma_forms, hc_assemble, hh_assemble, hh_layers
from shukla.linalg import GroundRing, HomologyGroup
from shukla.mixed import cyclic_e2
from shukla.models import Presentation, koszul_model

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
]


def pres(ring, variables, rels):
    return Presentation.make(ring, variables, rels)


def zero_forms(P, weight_max):
    """The 0-form words of gamma weight at most weight_max."""
    return _form_words(P, 0, _weights_upto(len(P.relations), weight_max))


def test_dbar_examples():
    P = pres(Z, ["x"], [{(2,): 1}])
    # dbar(gamma_2(x^2)) = gamma_1(x^2) * 2x dx
    assert dbar(P, {((0,), (2,), ()): 1}) == {((1,), (1,), (0,)): 2}
    # de Rham on reduced powers
    assert dbar(P, {((1,), (0,), ()): 1}) == {((0,), (0,), (0,)): 1}
    # dbar of dbar is zero on every window word
    for w in zero_forms(P, 3):
        img = dbar(P, {w: 1})
        assert dbar(P, img) == {}


def test_dbar_drops_weight_by_at_most_one():
    P = pres(Z, ["x", "y"], [{(2, 0): 1}, {(0, 2): 1}])
    for w in zero_forms(P, 3):
        weight = sum(w[1])
        for w2 in dbar(P, {w: 1}):
            assert sum(w2[1]) >= weight - 1


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
