import pytest

from shukla.dpalgebra import DIVIDED_POWER, EXTERIOR, basis_slice, derive
from shukla import gammaforms
from shukla.errors import HypothesisViolated, WindowTooSmall
from shukla.gammaforms import (
    build_gamma_forms, hc_assemble, hh_assemble, hh_layers, witness_nondegeneracy,
)
from shukla.linalg import GroundRing, HomologyGroup
from shukla.mixed import _total_matrix, cyclic_total, hochschild_layers, validate
from shukla.models import Presentation, koszul_model
from witness import witness_top6

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
    # the model of the empty presentation: k itself
    Gk = build_gamma_forms(koszul_model(Presentation.make(Z, (), ())), 3)
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
    model = witness_top6(Z)
    G = build_gamma_forms(model, 3)
    with pytest.raises(HypothesisViolated):
        hh_assemble(G, 3)


def test_hc_assemble_examples():
    Gk = build_gamma_forms(koszul_model(Presentation.make(Z, (), ())), 4)
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
    model = witness_top6(Z)
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
    w = witness_nondegeneracy(Q, 2)
    assert w.cycle and w.boundary and w.beta_identity
    # the preimage inverts the boundary identity: delta(-1/p beta) = gamma^p
    pre = w.preimage_element
    assert pre is not None
    from fractions import Fraction
    alg = pre.algebra
    beta = alg.element({(("dy", 1), ("dz", 1)): Fraction(-1, 2)})
    assert pre == beta


@pytest.mark.parametrize("ring", [Z, GroundRing.Zmod(2), GroundRing.Zmod(4), Q], ids=repr)
@pytest.mark.parametrize("p", [2, 3, 5])
def test_witness_block_is_the_forms_complex_block(monkeypatch, ring, p):
    # the witness builds only the delta block (2p+1, p) -> (2p, p) it
    # solves in, on the start model alone; it must be that block of the
    # whole forms complex of a model with generators above degree 2
    solved = []
    real_preimage = gammaforms.preimage

    def spy(mat, b, r):
        solved.append((mat, b))
        return real_preimage(mat, b, r)

    def whole_complex(*args, **kwargs):
        raise AssertionError("the witness built the whole forms complex")

    monkeypatch.setattr(gammaforms, "preimage", spy)
    monkeypatch.setattr(gammaforms, "build_gamma_forms", whole_complex)
    witness_nondegeneracy(ring, p)
    monkeypatch.undo()
    (mat, b), = solved
    G = build_gamma_forms(witness_top6(ring), 2 * p + 1)
    assert mat == _total_matrix(G.complex, 2 * p + 1, p)
    gamma = G.algebra.element({(("dy", p),): 1})
    assert b == G.slices[(2 * p, p)].vector_of(gamma)


def test_witness_layer_nonzero_mod_2():
    # the weight-2 layer of the forms complex of the witness model is
    # nonzero in degree 4 although the ground ring has trivial homology
    model = witness_top6(GroundRing.Zmod(2))
    G = build_gamma_forms(model, 5)
    fg = hochschild_layers(G.complex, 5)
    assert not fg.layer(4, 2).is_trivial()
    F2 = GroundRing.Zmod(2)
    Gk = build_gamma_forms(koszul_model(Presentation.make(F2, (), ())), 5)
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


def test_q_forms_complex_with_integer_relations_has_int_entries():
    G = forms_of(Q, ["x", "y"], [{(2, 0): 1}, {(0, 2): 1}], n_max=3)
    blocks = list(G.complex.b.values()) + list(G.complex.B.values())
    assert G.complex.b and G.complex.B
    for block in blocks:
        assert all(type(v) is int for v in block.entries.values())


@pytest.fixture
def built(monkeypatch):
    """(parity, source, target) of every derivation matrix the forms
    complex builds, source and target as (hdeg, weight)."""
    calls = []
    real = gammaforms.derivation_matrix

    def spy(deriv, source, target):
        calls.append((deriv.parity, (source.hdeg, source.weight),
                      (target.hdeg, target.weight)))
        return real(deriv, source, target)

    monkeypatch.setattr(gammaforms, "derivation_matrix", spy)
    return calls


def test_hh_builds_only_delta_blocks(built):
    G = forms_of(Z, ["x", "y"], [{(2, 0): 1}, {(0, 2): 1}], n_max=3)
    hh_assemble(G, 3)
    assert built and all(parity == -1 for parity, _, _ in built)


def test_cyclic_total_builds_each_d_block_once(built):
    G = forms_of(Z, ["x"], [{(2,): 1}], n_max=3)
    n_delta = len(built)
    hc = hc_assemble(G, 3).total
    d_calls = built[n_delta:]
    assert d_calls and all(parity == +1 for parity, _, _ in d_calls)
    blocks = [(src, tgt) for _, src, tgt in d_calls]
    assert len(set(blocks)) == len(blocks)
    assert set(blocks) == {((h, q), (h + 1, q + 1)) for (h, q), s in G.slices.items()
                           if s.dim and (h + 1, q + 1) in G.slices}
    assert set(G.complex.B) <= set(blocks)
    assert cyclic_total(G.complex, 3) == [hc[n] for n in range(4)]
    assert len(built) == n_delta + len(d_calls)


def test_validate_checks_d_blocks_built_on_first_read(monkeypatch):
    real = gammaforms.derivation_matrix

    def doubled_entry(deriv, source, target):
        # d with its first entry doubled: B^2 = 0 or bB + Bb = 0 must fail
        mat = real(deriv, source, target)
        if deriv.parity == +1 and mat.entries:
            (r, c), v = min(mat.entries.items())
            mat[r, c] = 2 * v
        return mat

    assert validate(forms_of(Z, ["x"], [{(2,): 1}], n_max=3).complex)
    monkeypatch.setattr(gammaforms, "derivation_matrix", doubled_entry)
    result = validate(forms_of(Z, ["x"], [{(2,): 1}], n_max=3).complex)
    assert not result and result.identity in ("B^2", "bB + Bb")
