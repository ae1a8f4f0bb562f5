import pytest

from shukla.dpalgebra import DIVIDED_POWER, EXTERIOR, basis_slice, derive
from shukla.errors import HypothesisViolated, UnitP, WindowTooSmall
from shukla.gammaforms import (
    build_gamma_forms, hc_assemble, hh_assemble, hh_layers,
    witness_model, witness_nondegeneracy,
)
from shukla.linalg import GroundRing, HomologyGroup
from shukla.mixed import filtration_layers, validate
from shukla.models import Presentation, koszul_model, trivial_model

Z = GroundRing.Z()
Q = GroundRing.Q()


def forms_of(ring, variables, rels, n_max=4):
    P = Presentation.make(ring, variables, rels)
    return build_gamma_forms(koszul_model(P), n_max)


def test_build_hypersurface_generators():
    G = forms_of(Z, ["x"], [{(2,): 1}])
    dx = G.algebra.gen("dx")
    ds = G.algebra.gen("ds1")
    assert dx.kind == EXTERIOR and dx.hdeg == 1 and dx.weight == 1
    assert ds.kind == DIVIDED_POWER and ds.hdeg == 2 and ds.weight == 1
    # delta(d s1) = -d(x^2) = -2 x dx
    val = G.delta.value_of("ds1")
    assert val == G.algebra.element({(("x", 1), ("dx", 1)): -2})
    assert validate(G.complex)


def test_build_constant_relation_kills_delta():
    G = forms_of(Z, [], [{(): 5}])
    assert G.delta.value_of("ds1").is_zero()
    assert validate(G.complex)


def test_build_zero_boundary_model():
    P = Presentation.make(Z, ["x"], [])
    G = build_gamma_forms(koszul_model(P), 3)
    for g in G.model.algebra.generators:
        assert G.delta.value_of(g.name).is_zero()
    assert validate(G.complex)


# The strand homology E2_{p,q} (degree p + q, weight q under delta) is
# the Hodge layer (p + q, q) of hh_layers.

def test_e2_shukla_strands():
    # weight-q strand of the model of Z/p: Z y gamma_q -> Z gamma_q is *p
    p = 5
    G = forms_of(Z, [], [{(): p}], n_max=8)
    layers = hh_layers(G, 8).layers
    for q in range(1, 5):
        assert layers[(2 * q, q)] == HomologyGroup.from_factors(0, [p]), q
    for (n, b), grp in layers.items():
        a = n - b
        if a != b or b > 4:
            assert (a, b) == (0, 0) or grp.is_trivial() or a == b


def test_e2_dual_numbers_degree_one():
    G = forms_of(Z, ["x"], [{(2,): 1}])
    layers = hh_layers(G, 1).layers
    assert layers[(1, 1)] == HomologyGroup.from_factors(1, [2])
    assert (1, 0) not in layers  # strand of weight 0 is exact in degree 1


def test_e2_free_polynomial_line():
    # boundary zero, one degree-0 variable: every slice is its own homology
    P = Presentation.make(Z, ["x"], [])
    G = build_gamma_forms(koszul_model(P), 3)
    layers = hh_layers(G, 1).layers
    bound = G.poly_bound
    assert layers[(0, 0)].free_rank == bound + 1     # 1, x, ..., x^bound
    assert layers[(1, 1)].free_rank == bound         # x^a dx with a + 1 <= bound


def test_weight_bound_empty_slices():
    G = forms_of(Z, ["x"], [{(2,): 1}])
    for h in range(3):
        for q in range(h + 1, 5):
            s = basis_slice(G.algebra, h, q, G.poly_bound)
            assert s.dim == 0, (h, q)


def test_hh_assemble_examples():
    G = forms_of(Z, ["x"], [{(2,): 1}])
    hh = hh_assemble(G, 2)
    assert hh[2] == HomologyGroup(1, ())
    # the trivial model of k itself
    Gk = build_gamma_forms(trivial_model(Z), 3)
    hhk = hh_assemble(Gk, 3)
    assert hhk[0] == HomologyGroup(1, ())
    assert all(g.is_trivial() for g in hhk[1:])


def test_hh_assemble_reuses_stored_delta_matrices(monkeypatch):
    import shukla.gammaforms
    G = forms_of(Z, ["x", "y"], [{(2, 0): 1}, {(0, 2): 1}], n_max=3)
    calls = []
    monkeypatch.setattr(shukla.gammaforms, "derivation_matrix",
                        lambda *args: calls.append(args))
    hh = hh_assemble(G, 3)
    assert calls == []
    assert hh == [hh_layers(G, 3).total[n] for n in range(4)]


def test_hh_assemble_rejects_higher_generators():
    model = witness_model(Z, 4)
    G = build_gamma_forms(model, 3)
    with pytest.raises(HypothesisViolated):
        hh_assemble(G, 3)


def test_hc_assemble_examples():
    Gk = build_gamma_forms(trivial_model(Z), 4)
    fk = hc_assemble(Gk, 4)
    for n in range(5):
        expected = HomologyGroup(1, ()) if n % 2 == 0 else HomologyGroup(0, ())
        assert fk.total[n] == expected
    G = forms_of(Z, ["x"], [{(2,): 1}], n_max=1)
    f = hc_assemble(G, 1)
    assert f.total[0] == HomologyGroup(2, ())
    assert f.total[1] == HomologyGroup.from_factors(0, [2])


def test_window_too_small():
    G = forms_of(Z, ["x"], [{(2,): 1}], n_max=2)
    with pytest.raises(WindowTooSmall):
        hh_assemble(G, 3)
    with pytest.raises(WindowTooSmall):
        hc_assemble(G, 3)


def test_witness_over_z_and_z2():
    for ring in (Z, GroundRing.Zmod(2)):
        w = witness_nondegeneracy(ring, 2)
        assert w.cycle and not w.boundary and w.beta_identity
    # over Z the class of gamma^2(dy) has order dividing 2: twice the
    # class bounds (via -beta) even though the class itself does not
    from shukla.dpalgebra import derivation_matrix
    from shukla.linalg import preimage
    model = witness_model(Z, 6)
    G = build_gamma_forms(model, 5)
    src = G.slices[(5, 2)]
    tgt = G.slices[(4, 2)]
    mat = derivation_matrix(G.delta, src, tgt)
    doubled = tgt.vector_of(G.algebra.element({(("dy", 2),): 2}))
    sol = preimage(mat, doubled, Z)
    assert sol is not None
    beta = G.algebra.element({(("dy", 1), ("dz", 1)): 1})
    assert src.element_of(sol) == beta.scale(-1)


def test_witness_unit_p():
    with pytest.raises(UnitP):
        witness_nondegeneracy(Q, 2)
    w = witness_nondegeneracy(Q, 2, allow_unit=True)
    assert w.cycle and w.boundary and w.beta_identity
    # the preimage inverts the boundary identity: delta(-1/p beta) = gamma^p
    pre = w.preimage_element
    assert pre is not None
    from fractions import Fraction
    alg = pre.algebra
    beta = alg.element({(("dy", 1), ("dz", 1)): Fraction(-1, 2)})
    assert pre == beta


def test_witness_layer_nonzero_mod_2():
    # the weight-2 layer of the forms complex of the witness model is
    # nonzero in degree 4 although the ground ring has trivial homology
    model = witness_model(GroundRing.Zmod(2), 6)
    G = build_gamma_forms(model, 5)
    fg = filtration_layers(G.complex, 5, "hh")
    assert not fg.layer(4, 2).is_trivial()
    Gk = build_gamma_forms(trivial_model(GroundRing.Zmod(2)), 5)
    assert hh_assemble(Gk, 5)[4].is_trivial()


def test_model_independence_smoke():
    # permuting generator and relation order leaves every group unchanged
    P1 = Presentation.make(Z, ["x", "y"], [{(2, 0): 1}, {(0, 2): 1}])
    P2 = Presentation.make(Z, ["y", "x"], [{(2, 0): 1}, {(0, 2): 1}])
    G1 = build_gamma_forms(koszul_model(P1), 3)
    G2 = build_gamma_forms(koszul_model(P2), 3)
    assert hh_assemble(G1, 3) == hh_assemble(G2, 3)
    f1 = hc_assemble(G1, 3)
    f2 = hc_assemble(G2, 3)
    assert f1.total == f2.total
    assert f1.layers == f2.layers
