import pytest

from shukla.dpalgebra import (
    DIVIDED_POWER, EXTERIOR, POLYNOMIAL, Element, GammaDerivation, Generator,
    GradedAlgebra, basis_slice, derivation_matrix,
)
from shukla.errors import WindowTooSmall
from shukla.linalg import GroundRing, HomologyGroup
from shukla.mixed import (
    MixedComplex, cyclic_layers, cyclic_total, hochschild_layers,
    hochschild_total, validate,
)

Z = GroundRing.Z()


def point_complex(ring, rank=1, window=6):
    """k^rank concentrated at (0, 0) with zero maps."""
    return MixedComplex(ring, {(0, 0): tuple(range(rank))}, window_total=window)


def test_validate_zero_maps():
    assert validate(point_complex(Z))


def test_validate_detects_wrong_sign():
    # gamma-forms of the model with boundary y -> x^2, but with the sign
    # of delta on dy flipped: the bB + Bb identity must fail
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
        cplx_slices, maps_b, maps_B = {}, {}, {}
        for (h, q), s in slices.items():
            if not s.dim:
                continue
            cplx_slices[(h, q)] = s.monomials
            tgt = slices.get((h - 1, q))
            if tgt is not None:
                maps_b[((h, q), (h - 1, q))] = derivation_matrix(delta, s, tgt)
            tgt = slices.get((h + 1, q + 1))
            if tgt is not None:
                maps_B[((h, q), (h + 1, q + 1))] = derivation_matrix(d, s, tgt)
        M = MixedComplex(Z, cplx_slices, b=maps_b, build_B=lambda: maps_B,
                         window_total=htop)
        result = validate(M)
        assert bool(result) == expect_ok
        if not expect_ok:
            assert result.identity == "bB + Bb"


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


def test_hochschild_layers_single_row():
    # everything in the weight-0 slice: layer 0 carries the whole group
    M = point_complex(Z)
    fg = hochschild_layers(M, 2)
    assert fg.total[0] == HomologyGroup(1, ())
    assert fg.layer(0, 0) == HomologyGroup(1, ())
    assert fg.layer(0, 1).is_trivial()


def test_layer_consistency_hh_and_hc():
    # graded-pieces consistency on a nontrivial fixture; over Q every
    # layer is torsion-free like the totals
    from shukla.models import Presentation, koszul_model
    from shukla.gammaforms import build_gamma_forms
    for ring in (Z, GroundRing.Q()):
        P = Presentation.make(ring, ["x"], [{(3,): 1}])
        G = build_gamma_forms(koszul_model(P), 3)
        for mode in (hochschild_layers, cyclic_layers):
            fg = mode(G.complex, 3)
            for n, total in fg.total.items():
                ranks = sum(fg.layer(n, p).free_rank for p in range(n + 1))
                orders = 1
                for p in range(n + 1):
                    orders *= fg.layer(n, p).torsion_order
                assert ranks == total.free_rank, (ring, mode, n)
                assert orders == total.torsion_order, (ring, mode, n)


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
    layers = cyclic_layers(M, 3)
    assert [layers.total[n] for n in range(4)] == expected
    assert sorted(built) == [0, 1, 2, 3, 4]


def _graded_pieces_per_level(d_in, d_out, cols_mid, ring):
    """Reference for _column_graded_pieces: two kernels per level c, one
    for the cycles in F_c and one for the boundaries in F_c."""
    from shukla.linalg import _int_columns, kernel_basis, subquotient
    n = len(cols_mid)
    if n == 0:
        return {}
    out_cols = _int_columns(d_out)
    target_rels = out_cols[n:]
    gens_in = [g for g in _int_columns(d_in) if g]
    pieces = {}
    prev_cycles = []
    for c in range(max(cols_mid) + 1):
        keep = [j for j, cv in enumerate(cols_mid) if cv <= c]
        if not keep:
            continue
        kb = kernel_basis([out_cols[j] for j in keep] + target_rels, d_out.rows)
        cycles = []
        for vec in kb:
            g = {keep[jj]: v for jj, v in vec.items() if jj < len(keep)}
            if g:
                cycles.append(g)
        outside = {j for j, cv in enumerate(cols_mid) if cv > c}
        bnd = []
        proj = [{r: v for r, v in g.items() if r in outside} for g in gens_in]
        for vec in kernel_basis(proj, n):
            img = {}
            for jj, v in vec.items():
                for r, w in gens_in[jj].items():
                    img[r] = img.get(r, 0) + v * w
            img = {r: v for r, v in img.items() if v}
            if img:
                bnd.append(img)
        group, _ = subquotient(cycles, prev_cycles + bnd, n, ring)
        if not group.is_trivial():
            pieces[c] = group
        prev_cycles = cycles
    return pieces


@pytest.mark.parametrize("ring", [Z, GroundRing.Zmod(4), GroundRing.Zmod(9),
                                  GroundRing.Q()], ids=repr)
def test_column_graded_pieces_match_per_level_reference(ring, monkeypatch):
    # column values: the real ones of cyclic_layers, then seeded random
    # ones in 0..3 (ties, gaps, unsorted order) and in 1..3 (no level 0)
    import random
    import shukla.mixed
    from shukla.gammaforms import build_gamma_forms
    from shukla.mixed import _column_graded_pieces, _cyclic_matrix, _cyclic_summands
    from shukla.models import Presentation, koszul_model
    calls = []

    def counted(name):
        original = getattr(shukla.mixed, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)
        return wrapper

    for name in ("kernel_basis", "lattice_echelon"):
        monkeypatch.setattr(shukla.mixed, name, counted(name))
    rng = random.Random(7)
    for rels in ([{(2,): 1}], [{(3,): 1, (1,): -1}], [{(0,): 2}, {(2,): 1}]):
        M = build_gamma_forms(koszul_model(Presentation.make(ring, ["x"], rels)),
                              3).complex
        for n in range(4):
            d_in, d_out = _cyclic_matrix(M, n + 1), _cyclic_matrix(M, n)
            real = [n - w - i for (i, (m, w)) in _cyclic_summands(M, n)
                    for _ in range(M.dim(m, w))]
            for cols in (real, [rng.randint(0, 3) for _ in real],
                         [rng.randint(1, 3) for _ in real]):
                expected = _graded_pieces_per_level(d_in, d_out, cols, ring)
                calls.clear()
                got = _column_graded_pieces(d_in, d_out, cols, ring)
                assert got == expected, (rels, n, cols)
                # one kernel and one echelon per degree, whatever the levels
                assert sorted(calls) == (["kernel_basis", "lattice_echelon"]
                                         if cols else [])
