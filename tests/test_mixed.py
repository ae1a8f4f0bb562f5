import pytest

from shukla.dpalgebra import (
    DIVIDED_POWER, EXTERIOR, POLYNOMIAL, Element, GammaDerivation, Generator,
    GradedAlgebra, basis_slice, derivation_matrix,
)
from shukla.errors import WindowTooSmall
from shukla.linalg import GroundRing, HomologyGroup, SparseMatrix
from shukla.mixed import (
    DoubleMixedComplex, cyclic_total, e1_term, filtration_layers,
    hochschild_total, validate,
)

Z = GroundRing.Z()


def point_complex(ring, rank=1, window=6):
    """k^rank concentrated at (0, 0) with zero maps."""
    return DoubleMixedComplex(ring, {(0, 0): tuple(range(rank))},
                              window_total=window)


def test_validate_zero_maps():
    assert validate(point_complex(Z))


def test_validate_detects_wrong_sign():
    # gamma-forms of the model with boundary y -> x^2, but with the sign
    # of delta on dy flipped: the (B del + del B) identity must fail
    alg = GradedAlgebra(Z, [
        Generator("x", 0, POLYNOMIAL, poly_weight=1),
        Generator("y", 1, EXTERIOR, poly_weight=2),
        Generator("dx", 1, EXTERIOR, weight=1, poly_weight=1),
        Generator("dy", 2, DIVIDED_POWER, weight=1, poly_weight=2),
    ])
    d = GammaDerivation(alg, +1, {
        "x": alg.gen_element("dx"), "y": alg.gen_element("dy"),
        "dx": Element(alg), "dy": Element(alg)})
    for sign, expect_ok in ((-1, True), (+1, False)):
        delta = GammaDerivation(alg, -1, {
            "x": Element(alg),
            "y": alg.element({(("x", 2),): 1}),
            "dx": Element(alg),
            "dy": alg.element({(("x", 1), ("dx", 1)): 2 * sign}),
        })
        bound = 8
        htop = 3
        slices = {}
        for h in range(htop + 1):
            for q in range(h + 1):
                slices[(h, q)] = basis_slice(alg, h, q, bound)
        cplx_slices, maps_del, maps_b = {}, {}, {}
        for (h, q), s in slices.items():
            if not s.dim:
                continue
            cplx_slices[(h - q, q)] = s.monomials
            tgt = slices.get((h - 1, q))
            if tgt is not None:
                maps_del[(h - q, q)] = derivation_matrix(delta, s, tgt)
            tgt = slices.get((h + 1, q + 1))
            if tgt is not None:
                maps_b[(h - q, q)] = derivation_matrix(d, s, tgt)
        M = DoubleMixedComplex(Z, cplx_slices, maps_del=maps_del,
                               maps_b=maps_b, window_total=htop)
        result = validate(M)
        assert bool(result) == expect_ok
        if not expect_ok:
            assert result.identity == "B*del + del*B"


def test_hochschild_total_point():
    M = point_complex(Z)
    hh = hochschild_total(M, 3)
    assert hh[0] == HomologyGroup(1, ())
    assert all(g.is_trivial() for g in hh[1:])


def test_cyclic_total_point_periodicity():
    M = point_complex(Z)
    hc = cyclic_total(M, 5)
    for n, g in enumerate(hc):
        if n % 2 == 0:
            assert g == HomologyGroup(1, ())
        else:
            assert g.is_trivial()


def test_window_too_small():
    M = point_complex(Z, window=2)
    with pytest.raises(WindowTooSmall):
        hochschild_total(M, 2)
    with pytest.raises(WindowTooSmall):
        cyclic_total(M, 2)


def test_e1_term_identity_on_zero_d():
    M = point_complex(Z)
    page = e1_term(M)
    assert page.complex is M
    # idempotence
    again = e1_term(page.complex)
    assert again.complex is M


def test_e1_term_acyclic_column():
    # D = identity between (0,1) and (0,0): E1 vanishes there
    slices = {(0, 0): ("a",), (0, 1): ("b",)}
    maps_d = {(0, 1): SparseMatrix.from_rows([[1]], Z)}
    M = DoubleMixedComplex(Z, slices, maps_d=maps_d, window_total=4)
    page = e1_term(M)
    assert page.complex is None
    assert page.groups[(0, 0)].is_trivial()
    assert page.groups[(0, 1)].is_trivial()


def test_filtration_layers_single_row():
    # everything in the q = 0 row: layer p = 0 carries the whole group
    M = point_complex(Z)
    fg = filtration_layers(M, 2, "hh")
    assert fg.total[0] == HomologyGroup(1, ())
    assert fg.layer(0, 0) == HomologyGroup(1, ())
    assert fg.layer(0, 1).is_trivial()


def test_layer_consistency_hh_and_hc():
    # graded-pieces consistency on a nontrivial fixture
    from shukla.models import Presentation, koszul_model
    from shukla.gammaforms import build_gamma_forms
    P = Presentation.make(Z, ["x"], [{(3,): 1}])
    G = build_gamma_forms(koszul_model(P), 3)
    for mode in ("hh", "hc"):
        fg = filtration_layers(G.complex, 3, mode)
        for n, total in fg.total.items():
            ranks = sum(fg.layer(n, p).free_rank for p in range(n + 1))
            orders = 1
            for p in range(n + 1):
                orders *= fg.layer(n, p).torsion_order
            assert ranks == total.free_rank, (mode, n)
            assert orders == total.torsion_order, (mode, n)


def test_hc0_equals_hh0():
    from shukla.models import Presentation, koszul_model
    from shukla.gammaforms import build_gamma_forms
    for rels in ([{(2,): 1}], [{(3,): 1}]):
        P = Presentation.make(Z, ["x"], rels)
        G = build_gamma_forms(koszul_model(P), 2)
        hh = hochschild_total(G.complex, 0)
        hc = cyclic_total(G.complex, 0)
        assert hh[0] == hc[0]


def test_cyclic_total_builds_each_boundary_once(monkeypatch):
    import shukla.mixed
    from shukla.models import Presentation, koszul_model
    from shukla.gammaforms import build_gamma_forms
    P = Presentation.make(Z, ["x"], [{(2,): 1}])
    M = build_gamma_forms(koszul_model(P), 3).complex
    expected = cyclic_total(M, 3)
    built = []
    original = shukla.mixed._cyclic_matrix

    def counting(M, n):
        built.append(n)
        return original(M, n)

    monkeypatch.setattr(shukla.mixed, "_cyclic_matrix", counting)
    assert cyclic_total(M, 3) == expected
    assert sorted(built) == [0, 1, 2, 3, 4]
    built.clear()
    layers = filtration_layers(M, 3, "hc")
    assert [layers.total[n] for n in range(4)] == expected
    assert sorted(built) == [0, 1, 2, 3, 4]
