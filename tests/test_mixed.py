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


# -- one sweep per chain -----------------------------------------------------

def _forms_complex(text):
    from shukla.cli import parse
    from shukla.gammaforms import build_gamma_forms
    from shukla.models import koszul_model
    job = parse(text)
    return build_gamma_forms(koszul_model(job.presentation), job.n_max,
                             job.poly_bound).complex, job.n_max


def _oracle_complex(text):
    from shukla.baroracle import cyclic_mixed, from_presentation
    from shukla.cli import parse
    job = parse(text)
    return cyclic_mixed(from_presentation(job.presentation), job.n_max), job.n_max


def _text(ring, variables, rels, n_max):
    lines = [f"ring {ring}", "vars " + " ".join(variables)]
    return "\n".join(lines + [f"rel {r}" for r in rels] + [f"nmax {n_max}"]) + "\n"


def _layer_golden_texts():
    import json
    from pathlib import Path
    goldens = json.loads((Path(__file__).resolve().parent
                          / "layer_goldens.json").read_text())
    return {name: g["text"] for name, g in sorted(goldens.items())}


SWEEP_COMPLEXES = {
    **{f"forms_{name}": (_forms_complex, text)
       for name, text in _layer_golden_texts().items()},
    "forms_Z_x2_y2_n3": (_forms_complex, _text("Z", "xy", ["x^2", "y^2"], 3)),
    "forms_Z_2_x2_n4": (_forms_complex, _text("Z", "x", ["2", "x^2"], 4)),
    "forms_Q_x2_y2_n3": (_forms_complex, _text("Q", "xy", ["x^2", "y^2"], 3)),
    "oracle_Z_x4m2x_n3": (_oracle_complex, _text("Z", "x", ["x^4-2*x"], 3)),
    "oracle_Z4_x2m2_n4": (_oracle_complex, _text("Z/4", "x", ["x^2-2"], 4)),
    "oracle_Z6_x3mx_n3": (_oracle_complex, _text("Z/6", "x", ["x^3-x"], 3)),
    "oracle_Z9_x2p3x_n4": (_oracle_complex, _text("Z/9", "x", ["x^2+3*x"], 4)),
    "oracle_Q_x3m2x_n3": (_oracle_complex, _text("Q", "x", ["x^3-2*x"], 3)),
}


def _homology_per_degree(ds, ring):
    """The reference sweep: one homology_at per degree, no rank passed on."""
    from shukla.linalg import homology_at
    return [homology_at(ds[n + 1], ds[n], ring) for n in range(len(ds) - 1)]


@pytest.mark.parametrize("name", sorted(SWEEP_COMPLEXES))
def test_sweeps_match_homology_per_degree(name):
    from shukla.mixed import _cyclic_matrix, _degree_slices, _total_matrix
    build, text = SWEEP_COMPLEXES[name]
    M, n_max = build(text)
    fg = hochschild_layers(M, n_max)
    totals, layers = {}, {}
    for n in range(n_max + 1):
        parts = []
        for (_, w) in _degree_slices(M, n):
            h, = _homology_per_degree([_total_matrix(M, n, w),
                                       _total_matrix(M, n + 1, w)], M.ring)
            if not h.is_trivial():
                layers[(n, w)] = h
            parts.append(h)
        totals[n] = HomologyGroup(0, ()).direct_sum(*parts)
    assert fg.total == totals
    assert fg.layers == layers
    d = [_cyclic_matrix(M, n) for n in range(n_max + 2)]
    assert cyclic_total(M, n_max) == _homology_per_degree(d, M.ring)


@pytest.mark.parametrize("text", [
    _text("Z", "x", ["x^2"], 3),
    _text("Z", "x", ["x^3-x"], 3),
    _text("Z/4", "x", ["x^2"], 3),
    _text("Q", "xy", ["x^2", "y^2"], 2),
], ids=["Z_x2", "Z_x3mx", "Z4_x2", "Q_x2_y2"])
def test_cyclic_e2_matches_homology_per_degree(text):
    from shukla.mixed import _shifted_matrix, cyclic_e2
    M, n_max = _forms_complex(text)

    def row(a, c):
        return [(i, (a + c - 2 * i, c - i)) for i in range(min(a, c) + 1)
                if M.dim(a + c - 2 * i, c - i)]

    expected = {}
    for c in range(n_max + 1):
        for a in range(n_max + 1 - c):
            ds = [_shifted_matrix(M, row(a, c), row(a - 1, c)),
                  _shifted_matrix(M, row(a + 1, c), row(a, c))]
            expected[(a, c)] = _homology_per_degree(ds, M.ring)[0]
    page = cyclic_e2(M, n_max)
    assert list(page) == list(expected)
    assert page == expected


@pytest.fixture
def eliminated(monkeypatch):
    """The boundaries whose integer lifts reach integer_rank and
    invariant_factors_sparse, in call order, as SparseMatrix objects."""
    import shukla.linalg as linalg
    seen = {"integer_rank": [], "invariant_factors_sparse": []}
    lifted = {}  # id of a column list -> (the list, its matrix), both kept alive
    int_columns = linalg._int_columns

    def spy_columns(matrix):
        cols = int_columns(matrix)
        lifted[id(cols)] = (cols, matrix)
        return cols

    def spy(name):
        original = getattr(linalg, name)

        def wrapper(columns, nrows):
            seen[name].append(lifted[id(columns)][1])
            return original(columns, nrows)
        return wrapper

    # chain_homology and homology_at, in linalg, are the only callers
    monkeypatch.setattr(linalg, "_int_columns", spy_columns)
    for name in seen:
        monkeypatch.setattr(linalg, name, spy(name))
    return seen


@pytest.mark.parametrize("name", ["oracle_Z_x4m2x_n3", "forms_Z_x2_y2_n3",
                                  "forms_Q_x2_y2_n3"])
def test_sweeps_eliminate_each_boundary_once(name, eliminated):
    from shukla.mixed import _cyclic_matrix
    build, text = SWEEP_COMPLEXES[name]
    M, n_max = build(text)
    over_q = M.ring.kind == "Q"
    sweeps = len({w for (n, w) in M.slices if n <= n_max and M.dim(n, w)})

    def ids(key):
        return [id(m) for m in eliminated[key]]

    def check(first_ranks):
        both = ids("integer_rank") + ids("invariant_factors_sparse")
        assert both and len(set(both)) == len(both)
        if over_q:
            assert not eliminated["invariant_factors_sparse"]
        else:
            assert len(ids("integer_rank")) <= first_ranks
        for key in eliminated:
            eliminated[key].clear()

    hochschild_total(M, n_max)
    check(sweeps)
    d = [_cyclic_matrix(M, n) for n in range(n_max + 2)]
    assert all(m.cols for m in d[:-1])  # no zero middle is skipped
    cyclic_total(M, n_max, d)
    ranked = ids("integer_rank")
    if over_q:
        assert sorted(ranked) == sorted(map(id, d))
    else:
        # over Z only the boundary into degree -1, which has no rows, is
        # ranked; every other rank is read back from a group
        assert d[0].rows == 0
        assert ranked == [id(d[0])]
        assert ids("invariant_factors_sparse") == [id(m) for m in d[1:]]
    check(1)


@pytest.mark.parametrize("ring", [Z, GroundRing.Q()], ids=repr)
def test_flipped_sign_in_a_b_block_fails_both_sweeps(ring):
    from shukla.baroracle import cyclic_mixed, from_presentation
    from shukla.errors import CompositionNonzero
    from shukla.linalg import SparseMatrix
    from shukla.models import Presentation
    P = Presentation.make(ring, ["x"], [{(4,): 1, (1,): -2}])
    M = cyclic_mixed(from_presentation(P), 3)
    key = ((3, 0), (2, 0))
    block, below = M.b[key], M.b[((2, 0), (1, 0))]
    for (i, j), v in block.entries.items():
        flipped = SparseMatrix(block.rows, block.cols, ring, block.entries)
        flipped[i, j] = -v
        if not (below * flipped).is_zero():
            break
    else:
        pytest.fail("no single sign flip breaks b^2 = 0")
    M.b[key] = flipped
    with pytest.raises(CompositionNonzero):
        hochschild_total(M, 2)
    with pytest.raises(CompositionNonzero):
        cyclic_total(M, 2)


@pytest.mark.parametrize("table", ["b", "B"])
def test_block_of_wrong_shape_is_refused(table):
    from shukla.linalg import SparseMatrix
    # k at (0, 0) and (1, 0); b maps (1, 0) -> (0, 0) and B (0, 0) -> (1, 0)
    slices = {(0, 0): ("a",), (1, 0): ("u",)}
    b = {((1, 0), (0, 0)): SparseMatrix(1, 1, Z)}
    B = {((0, 0), (1, 0)): SparseMatrix(1, 1, Z)}
    # one column (b) or one row (B) more than its slices have
    if table == "b":
        b[((1, 0), (0, 0))] = SparseMatrix(1, 2, Z, {(0, 1): 1})
    else:
        B[((0, 0), (1, 0))] = SparseMatrix(2, 1, Z, {(1, 0): 1})
    M = MixedComplex(Z, slices, b=b, build_B=lambda: B, window_total=2)
    with pytest.raises(ValueError, match="block"):
        cyclic_total(M, 1)
