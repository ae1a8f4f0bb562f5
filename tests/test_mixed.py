import random
from fractions import Fraction as F

import pytest

from shukla.dpalgebra import (
    DIVIDED_POWER, EXTERIOR, POLYNOMIAL, Element, GammaDerivation, Generator,
    GradedAlgebra, basis_slice, derivation_matrix,
)
from shukla.errors import HypothesisViolated, WindowTooSmall
from shukla.linalg import GroundRing, HomologyGroup
from shukla.mixed import (
    FilteredGroups, MixedComplex, cyclic_layers, cyclic_total, hochschild_layers,
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


def test_of_layers_drops_trivial_layers_and_sums_each_degree():
    zero = HomologyGroup(0, ())
    fg = FilteredGroups.of_layers({
        (0, 0): HomologyGroup(1, ()), (0, 1): zero,
        (1, 0): HomologyGroup(0, (2,)), (1, 1): HomologyGroup(1, (4,)),
        (2, 2): zero, (3, 1): HomologyGroup(0, (3,)),
    }, 3)
    assert fg.layers == {(0, 0): HomologyGroup(1, ()), (1, 0): HomologyGroup(0, (2,)),
                         (1, 1): HomologyGroup(1, (4,)), (3, 1): HomologyGroup(0, (3,))}
    # C2 + Z + C4 = Z + C2 + C4; degree 2 has no nonzero layer
    assert fg.total == {0: HomologyGroup(1, ()), 1: HomologyGroup(1, (2, 4)),
                        2: zero, 3: HomologyGroup(0, (3,))}


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
def test_column_graded_pieces_match_per_level_reference(ring):
    # the column values of cyclic_layers, the shifted weights: on the forms
    # complex the filtration by them splits, so its graded pieces are the
    # homology of the blocks
    from shukla.gammaforms import build_gamma_forms
    from shukla.mixed import _column_graded_pieces, _cyclic_matrix, _cyclic_summands
    from shukla.models import Presentation, koszul_model
    for rels in ([{(2,): 1}], [{(3,): 1, (1,): -1}], [{(0,): 2}, {(2,): 1}]):
        M = build_gamma_forms(koszul_model(Presentation.make(ring, ["x"], rels)),
                              3).complex
        for n in range(4):
            d_in, d_out = _cyclic_matrix(M, n + 1), _cyclic_matrix(M, n)
            cols = [w + i for (i, (m, w)) in _cyclic_summands(M, n)
                    for _ in range(M.dim(m, w))]
            expected = _graded_pieces_per_level(d_in, d_out, cols, ring)
            assert _column_graded_pieces(d_in, d_out, cols, ring) == expected, (rels, n)


def test_cyclic_layers_reject_a_complex_that_does_not_split():
    # the bar complex puts every slice in weight 0, and its B keeps it
    from shukla.baroracle import cyclic_mixed, from_presentation
    from shukla.models import Presentation
    M = cyclic_mixed(from_presentation(Presentation.make(Z, ["x"], [{(2,): 1}])), 3)
    assert M.B
    with pytest.raises(HypothesisViolated):
        cyclic_layers(M, 3)


# -- one sweep per chain -----------------------------------------------------

def _forms_complex(text):
    from shukla.cli import parse
    from shukla.gammaforms import build_gamma_forms
    from shukla.models import koszul_model
    job = parse(text)
    return build_gamma_forms(koszul_model(job.presentation), job.n_max,
                             job.poly_bound).complex, job.n_max


def _command_forms_complex(text):
    """The forms complex that `layers` sweeps for the job: over Z for a
    Z/m presentation.  Over Z/m chain_homology is one
    homology_at per degree, so the sweep check has content over Z and Q,
    and the oracle entries below keep Z/m complexes in it; the presented
    Z/6 complex of Z6_x3mxy_y2m3_n2 ran for minutes in this check."""
    from shukla.cli import _lifted, parse
    from shukla.gammaforms import build_gamma_forms
    from shukla.models import koszul_model
    job = parse(text)
    pres, _ = _lifted(job.presentation)
    return build_gamma_forms(koszul_model(pres), job.n_max,
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
    **{f"forms_{name}": (_command_forms_complex, text)
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
    """The reference sweep: one homology_at per degree, no rank passed on
    and no row cancelled."""
    from shukla.linalg import homology_at
    return [homology_at(ds[n + 1], ds[n], ring) for n in range(len(ds) - 1)]


def _unimodular(rng, n):
    """A random unimodular n x n integer matrix P and its inverse."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    p_inv = [row[:] for row in p]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        q = rng.choice([-2, -1, 1, 2])
        # P <- (1 + q e_ij) P and P^-1 <- P^-1 (1 - q e_ij)
        p[i] = [a + q * b for a, b in zip(p[i], p[j])]
        for row in p_inv:
            row[j] -= q * row[i]
    return p, p_inv


def test_chain_homology_matches_known_groups_on_random_complexes():
    """C_n is split as B_n + F_n + E_n: D_n sends the k-th basis vector of
    E_n to s_k times the k-th of B_{n-1}, with s_k in {+-1, 2, 3, 4, 6},
    so H_n = Z^|F_n| plus Z/|s| over the non-unit s of D_{n+1}.  The
    boundaries are d_n = P_{n-1} D_n P_n^-1 for random unimodular P_n."""
    from shukla.linalg import SparseMatrix, chain_homology
    rng = random.Random(18)
    for _ in range(1500):
        top = rng.randint(1, 3)  # degrees 0..top
        ranks = [0] + [rng.randint(0, 2) for _ in range(top)] + [0]
        free = [rng.randint(0, 2) for _ in range(top + 1)]
        dims = [ranks[n + 1] + free[n] + ranks[n] for n in range(top + 1)]
        if not all(dims) or max(dims) > 6:
            continue
        scales = [[rng.choice([1, -1, 2, 3, 4, 6]) for _ in range(r)] for r in ranks]
        ps = [_unimodular(rng, c) for c in dims]
        ds = [SparseMatrix(0, dims[0], Z)]
        for n in range(1, top + 1):
            # B_{n-1} leads C_{n-1}; E_n trails C_n
            d = [[0] * dims[n] for _ in range(dims[n - 1])]
            for k, s in enumerate(scales[n]):
                d[k][dims[n] - ranks[n] + k] = s
            ds.append(SparseMatrix.from_rows(ps[n - 1][0], Z)
                      * SparseMatrix.from_rows(d, Z)
                      * SparseMatrix.from_rows(ps[n][1], Z))
        ds.append(SparseMatrix(dims[top], 0, Z))
        known = [HomologyGroup.from_factors(
            free[n], [abs(s) for s in scales[n + 1] if abs(s) != 1])
            for n in range(top + 1)]
        assert chain_homology(ds, Z) == known
        assert _homology_per_degree(ds, Z) == known


def _signed_permutation(rng, n):
    """A random signed n x n permutation matrix: sparse and unimodular."""
    perm = rng.sample(range(n), n)
    return [[rng.choice((1, -1)) if j == perm[i] else 0 for j in range(n)]
            for i in range(n)]


def _unit_heavy_block(rng, nrows, ncols):
    """A signed partial permutation with a few non-unit entries added."""
    rows = [[0] * ncols for _ in range(nrows)]
    k = rng.randint(0, min(nrows, ncols))
    for i, j in zip(rng.sample(range(nrows), k), rng.sample(range(ncols), k)):
        rows[i][j] = rng.choice((1, -1))
    for _ in range(rng.randint(0, (nrows * ncols) // 8 + 1)):
        rows[rng.randrange(nrows)][rng.randrange(ncols)] = rng.choice((2, -2, 3, 4, -6))
    return rows


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _columns(rows, ncols):
    return [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(ncols)]


def _unit_heavy_matrices(rng, trials, most):
    """(columns, nrows): unit-heavy blocks, half of them as they are and
    half conjugated to P M Q^-1 by random unimodular P and Q."""
    for _ in range(trials):
        nrows, ncols = rng.randint(1, most), rng.randint(1, most)
        rows = _unit_heavy_block(rng, nrows, ncols)
        if rng.random() < 0.5:
            rows = _matmul(_matmul(_unimodular(rng, nrows)[0], rows),
                           _unimodular(rng, ncols)[1])
        yield _columns(rows, ncols), nrows


def _snf_invariants(columns, nrows):
    """(factors, rank) of the matrix through dense_snf."""
    from shukla.linalg import dense_snf
    rows = [[col.get(i, 0) for col in columns] for i in range(nrows)]
    _, s, _, _ = dense_snf(rows)
    diag = [s[i][i] for i in range(min(nrows, len(columns)))]
    return [d for d in diag if d not in (0, 1)], sum(1 for d in diag if d)


def test_invariant_factors_sparse_unit_heavy_conjugated_matches_dense():
    from shukla.linalg import invariant_factors_sparse
    rng = random.Random(2121)
    for trial, (columns, nrows) in enumerate(_unit_heavy_matrices(rng, 300, 14)):
        factors, rank = invariant_factors_sparse(columns, nrows, set())
        assert (list(factors), rank) == _snf_invariants(columns, nrows), trial


def test_invariant_factors_sparse_unit_heavy_conjugated_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    from shukla.linalg import invariant_factors_sparse
    rng = random.Random(2122)
    for trial, (columns, nrows) in enumerate(_unit_heavy_matrices(rng, 25, 9)):
        rows = [[col.get(i, 0) for col in columns] for i in range(nrows)]
        diag = [abs(int(d)) for d in
                invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)]
        want = ([d for d in diag if d not in (0, 1)], sum(1 for d in diag if d))
        factors, rank = invariant_factors_sparse(columns, nrows)
        assert (list(factors), rank) == want, trial


def test_chain_homology_with_unit_heavy_boundaries_matches_reference(monkeypatch):
    """The reference sweep cancels nothing, so the sets of cancelled
    columns are checked against it: those of the singleton pass and the
    heap, and those of the heap alone (a pass that isolates nothing)."""
    from shukla import linalg
    peel = linalg._peel_unit_singletons
    eliminate = linalg.invariant_factors_sparse
    for peel_on in (True, False):
        peeled, cancels = [], []

        def spy(rows, cols, cancelled):
            out = peel(rows, cols, cancelled) if peel_on else []
            peeled.append(len(out))
            return out

        def count(columns, nrows, cancelled=None):
            out = eliminate(columns, nrows, cancelled)
            cancels.append(len(cancelled or ()))
            return out

        monkeypatch.setattr(linalg, "_peel_unit_singletons", spy)
        monkeypatch.setattr(linalg, "invariant_factors_sparse", count)
        _check_unit_heavy_chains(random.Random(21))
        if peel_on:
            assert sum(peeled) > 200  # the peel did take part
        else:
            assert sum(peeled) == 0 and sum(cancels) > 200


def _check_unit_heavy_chains(rng):
    """C_n is split as B_n + F_n + E_n and D_n maps E_n to B_{n-1} by a
    unit-heavy block, so D_{n-1} D_n = 0; d_n = P_{n-1} D_n P_n^-1 with
    P_n a signed permutation (which keeps the units alone in their rows
    and columns) or a random unimodular matrix.  chain_homology must
    match the reference sweep on each."""
    from shukla.linalg import SparseMatrix, chain_homology
    for _ in range(300):
        top = rng.randint(1, 4)
        ranks = [0] + [rng.randint(0, 4) for _ in range(top)] + [0]
        free = [rng.randint(0, 2) for _ in range(top + 1)]
        dims = [ranks[n + 1] + free[n] + ranks[n] for n in range(top + 1)]
        if not all(dims):
            continue
        ps = []
        for c in dims:
            if rng.random() < 0.5:
                p = _signed_permutation(rng, c)
                ps.append((p, [list(col) for col in zip(*p)]))  # P^-1 = P^T
            else:
                ps.append(_unimodular(rng, c))
        ds = [SparseMatrix(0, dims[0], Z)]
        for n in range(1, top + 1):
            d = [[0] * dims[n] for _ in range(dims[n - 1])]
            if ranks[n]:
                block = _unit_heavy_block(rng, ranks[n], ranks[n])
                for k, row in enumerate(block):
                    d[k][dims[n] - ranks[n]:] = row
            ds.append(SparseMatrix.from_rows(_matmul(_matmul(ps[n - 1][0], d),
                                                     ps[n][1]), Z))
        ds.append(SparseMatrix(dims[top], 0, Z))
        assert chain_homology(ds, Z) == _homology_per_degree(ds, Z)


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
    invariant_factors_sparse, in call order, as SparseMatrix objects;
    under "columns", the lifts that invariant_factors_sparse saw."""
    import shukla.linalg as linalg
    seen = {"integer_rank": [], "invariant_factors_sparse": []}
    lifted = {}  # id of a column list -> (the list, its matrix), both kept alive
    int_columns = linalg._int_columns
    columns_seen = []

    def spy_columns(matrix, *drop):
        cols = int_columns(matrix, *drop)
        lifted[id(cols)] = (cols, matrix)
        return cols

    def spy(name):
        original = getattr(linalg, name)

        def wrapper(columns, nrows, *cancelled):
            seen[name].append(lifted[id(columns)][1])
            if name == "invariant_factors_sparse":
                columns_seen.append(columns)
            return original(columns, nrows, *cancelled)
        return wrapper

    # chain_homology and homology_at, in linalg, are the only callers
    monkeypatch.setattr(linalg, "_int_columns", spy_columns)
    for name in seen:
        monkeypatch.setattr(linalg, name, spy(name))
    seen["columns"] = columns_seen
    return seen


@pytest.mark.parametrize("name", ["oracle_Z_x4m2x_n3", "forms_Z_x2_y2_n3",
                                  "forms_Q_x2_y2_n3"])
def test_sweeps_eliminate_each_boundary_once(name, eliminated):
    from shukla.mixed import _cyclic_matrix
    build, text = SWEEP_COMPLEXES[name]
    M, n_max = build(text)
    sweeps = len({w for (n, w) in M.slices if n <= n_max and M.dim(n, w)})

    def ids(key):
        return [id(m) for m in eliminated[key]]

    def check(first_ranks):
        both = ids("integer_rank") + ids("invariant_factors_sparse")
        assert both and len(set(both)) == len(both)
        assert len(ids("integer_rank")) <= first_ranks
        for key in eliminated:
            eliminated[key].clear()

    hochschild_total(M, n_max)
    check(sweeps)
    d = [_cyclic_matrix(M, n) for n in range(n_max + 2)]
    assert all(m.cols for m in d[:-1])  # no zero middle is skipped
    cyclic_total(M, n_max, d)
    # over Z and Q only the boundary into degree -1, which has no rows, is
    # ranked; every other rank is read back from a group
    assert d[0].rows == 0
    assert ids("integer_rank") == [id(d[0])]
    assert ids("invariant_factors_sparse") == [id(m) for m in d[1:]]
    if name in ("oracle_Z_x4m2x_n3", "forms_Q_x2_y2_n3"):
        # the unit pivots of a boundary cancel rows of the next one
        seen = zip(eliminated["invariant_factors_sparse"],
                   eliminated["columns"])
        assert any(len({i for col in cols for i in col})
                   < len({i for (i, _) in m.entries}) for m, cols in seen)
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


# -- each identity checked once ----------------------------------------------

CORRUPTED_COMPLEXES = {
    "oracle_Z_x3_n3": (_oracle_complex, _text("Z", "x", ["x^3"], 3)),
    "forms_Z_x2_n4": (_forms_complex, _text("Z", "x", ["x^2"], 4)),
}


def _single_entry_corruptions(M):
    """(table, block key, entry, value): each entry of every b and B block
    plus one, and a 1 at the first zero position of each block."""
    for table in ("b", "B"):
        for key, mat in sorted(getattr(M, table).items()):
            for pos, v in sorted(mat.entries.items()):
                yield table, key, pos, v + 1
            free = (pos for pos in ((i, j) for i in range(mat.rows)
                                    for j in range(mat.cols))
                    if pos not in mat.entries)
            pos = next(free, None)
            if pos is not None:
                yield table, key, pos, 1


def _products_vanish(ds):
    return all((ds[n] * ds[n + 1]).is_zero() for n in range(len(ds) - 1))


@pytest.mark.parametrize("name", sorted(CORRUPTED_COMPLEXES))
def test_slice_checks_raise_exactly_when_totalized_products_do(name):
    """The per-slice identities refuse a corrupted complex exactly when a
    product of consecutive totalized boundaries is nonzero."""
    from shukla.errors import CompositionNonzero
    from shukla.mixed import _cyclic_matrix, _total_matrix
    build, text = CORRUPTED_COMPLEXES[name]

    def corrupted(table, key, pos, value):
        M, n_max = build(text)  # a fresh complex, with nothing verified
        getattr(M, table)[key][pos] = value
        return M, n_max

    def raises(sweep, M, n_max):
        try:
            sweep(M, n_max)
        except CompositionNonzero:
            return True
        return False

    outcomes = set()
    for corruption in _single_entry_corruptions(build(text)[0]):
        M, n_max = corrupted(*corruption)
        weights = {w for (_, w) in M.slices}
        expected = not all(_products_vanish([_total_matrix(M, n, w)
                                             for n in range(n_max + 2)])
                           for w in weights)
        assert raises(hochschild_total, M, n_max) == expected, corruption
        outcomes.add(("hh", expected))
        M, n_max = corrupted(*corruption)
        expected = not _products_vanish([_cyclic_matrix(M, n) for n in range(n_max + 2)])
        assert raises(cyclic_total, M, n_max) == expected, corruption
        outcomes.add(("hc", expected))
    # both sweeps met corruptions that break them and ones that do not
    assert outcomes == {("hh", True), ("hh", False), ("hc", True), ("hc", False)}


def test_revalidating_a_changed_block_makes_both_sweeps_raise():
    from shukla.errors import CompositionNonzero
    M, n_max = _oracle_complex(_text("Z", "x", ["x^3"], 3))
    assert validate(M)
    hochschild_total(M, n_max)
    cyclic_total(M, n_max)
    # a unit more in a row of b_3 whose column of b_2 is nonzero
    i = min(j for (_, j) in M.b[((2, 0), (1, 0))].entries)
    block = M.b[((3, 0), (2, 0))]
    block[i, 0] = block.entries.get((i, 0), 0) + 1
    result = validate(M)
    assert not result and result.identity == "b^2"
    for sweep in (hochschild_total, cyclic_total):
        with pytest.raises(CompositionNonzero, match=r"b\^2 != 0 on slice"):
            sweep(M, n_max)


# -- the checks against explicit products --------------------------------------

_IDENTITY_PATHS = {
    "b^2": (("b", "b"),),
    "B^2": (("B", "B"),),
    "bB + Bb": (("B", "b"), ("b", "B")),
}


def _reference_sums(M, name, s):
    """(target slice, row, col) -> entry of identity name on slice s, from
    SparseMatrix products added entrywise."""
    sums = {}
    for first, second in _IDENTITY_PATHS[name]:
        for (s1, t), m1 in getattr(M, first).items():
            for (t2, u), m2 in getattr(M, second).items():
                if s1 == s and t2 == t:
                    for (i, j), v in (m2 * m1).entries.items():
                        sums[u, i, j] = sums.get((u, i, j), 0) + v
    return {key: v for key, v in sums.items() if M.ring.normalize(v)}


def _reference_failure(M, name, top):
    """The first nonzero slice of degree at most top on which identity
    name fails, by explicit products, or None."""
    return next((s for s in sorted(k for k in M.slices if M.dim(*k))
                 if s[0] <= top and _reference_sums(M, name, s)), None)


def _reference_validate(M):
    """(identity, slice) of the first failure validate must report."""
    for name, slack in (("b^2", 0), ("B^2", 2), ("bB + Bb", 1)):
        s = _reference_failure(M, name, M.window_total - slack)
        if s is not None:
            return name, s
    return None, None


def _row_major(ring, b, B, window=3):
    """A complex whose blocks are written row by row (from_rows), so a
    column of a block with two or more rows comes in several runs."""
    from shukla.linalg import SparseMatrix
    slices = {}
    for table in (b, B):
        for (s, t), rows in table.items():
            slices[t] = tuple(range(len(rows)))
            slices[s] = tuple(range(len(rows[0])))
    b = {key: SparseMatrix.from_rows(rows, ring) for key, rows in b.items()}
    B = {key: SparseMatrix.from_rows(rows, ring) for key, rows in B.items()}
    return MixedComplex(ring, slices, b=b, build_B=lambda: B, window_total=window)


def _chain(ring, b1, b2):
    """b1 from (1, 0) to (0, 0) after b2 from (2, 0) to (1, 0); no B."""
    return _row_major(ring, {((1, 0), (0, 0)): b1, ((2, 0), (1, 0)): b2}, {})


def _square(ring, u, v, x, y):
    """Forms-shaped: bB + Bb on slice (1, 0) is u v + x y, b from (2, 1)
    is the column u, B from (1, 0) the row v, B from (0, 0) the column x
    and b from (1, 0) the row y; no other composite has a path."""
    return _row_major(ring, {((1, 0), (0, 0)): [y], ((2, 1), (1, 1)): [[e] for e in u]},
                      {((1, 0), (2, 1)): [v], ((0, 0), (1, 1)): [[e] for e in x]})


Z4 = GroundRing.Zmod(4)
Q = GroundRing.Q()

# name -> (complex, (identity, slice) of the first failure, or (None, None))
CHECK_FIXTURES = {
    # column 0 of b2 comes as two runs whose products cancel only together
    "runs_cancel_Z": (lambda: _chain(Z, [[1, 1]], [[1, 1], [-1, -1]]), (None, None)),
    "runs_leave_one_Z": (lambda: _chain(Z, [[1, 1]], [[1, 1], [-1, 0]]),
                         ("b^2", (2, 0))),
    # the two runs of column 0 add to 4: zero mod 4, not over Z
    "runs_sum_4_Z": (lambda: _chain(Z, [[1, 1]], [[2, 1], [2, -1]]), ("b^2", (2, 0))),
    "runs_sum_4_Z4": (lambda: _chain(Z4, [[1, 1]], [[2, 1], [2, -1]]), (None, None)),
    "runs_cancel_Q": (lambda: _chain(Q, [[F(1, 2), F(1, 3)]],
                                     [[F(2, 3), 1], [-1, F(-3, 2)]]), (None, None)),
    # bB = [[1, 1], [0, 0]] and Bb = [[-1, 0], [0, 0]]: the sum is one entry
    "one_entry_Z": (lambda: _square(Z, (1, 0), (1, 1), (1, 0), (-1, 0)),
                    ("bB + Bb", (1, 0))),
    # bB + Bb = [[0, 4], [0, 0]]
    "sum_4_Z": (lambda: _square(Z, (1, 0), (1, 1), (1, 0), (-1, 3)), ("bB + Bb", (1, 0))),
    "sum_4_Z4": (lambda: _square(Z4, (1, 0), (1, 1), (1, 0), (-1, 3)), (None, None)),
    # bB = [[1/3, 1/2], [0, 0]] = -Bb, and with y = (-1, -1) a 1/6 is left
    "cancel_Q": (lambda: _square(Q, (F(1, 2), 0), (F(2, 3), 1), (F(1, 3), 0),
                                 (-1, F(-3, 2))), (None, None)),
    "leave_sixth_Q": (lambda: _square(Q, (F(1, 2), 0), (F(2, 3), 1), (F(1, 3), 0),
                                      (-1, -1)), ("bB + Bb", (1, 0))),
}


@pytest.mark.parametrize("name", sorted(CHECK_FIXTURES))
def test_checks_agree_with_explicit_products(name):
    """validate, both sweeps and homology_at refuse a complex exactly when
    sums of SparseMatrix products say so, whatever the order of the
    blocks' entries and over Z, Z/4 and Q."""
    from shukla.errors import CompositionNonzero
    from shukla.linalg import homology_at
    build, expected = CHECK_FIXTURES[name]
    M = build()
    assert _reference_validate(M) == expected
    result = validate(M)
    assert (result.identity, result.slice) == expected
    assert bool(result) == (expected == (None, None))
    n_max = M.window_total - 1
    for sweep, tops in ((hochschild_total, {"b^2": n_max + 1}),
                        (cyclic_total, {"b^2": n_max + 1, "B^2": n_max - 3,
                                        "bB + Bb": n_max - 1})):
        fails = any(_reference_failure(M, n, top) for n, top in tops.items())
        M = build()
        try:
            sweep(M, n_max)
        except CompositionNonzero:
            assert fails
        else:
            assert not fails
    for (s, t), d_in in M.b.items():
        for (t2, _), d_out in M.b.items():
            if t2 == t:
                fails = any(M.ring.normalize(v) for v in (d_out * d_in).entries.values())
                if fails:
                    with pytest.raises(CompositionNonzero):
                        homology_at(d_in, d_out, M.ring)
                else:
                    homology_at(d_in, d_out, M.ring)


def test_one_entry_defect_has_two_nonzero_products():
    M = CHECK_FIXTURES["one_entry_Z"][0]()
    s, t1, t2, u = (1, 0), (2, 1), (0, 0), (1, 1)
    assert not (M.b[t1, u] * M.B[s, t1]).is_zero()
    assert not (M.B[t2, u] * M.b[s, t2]).is_zero()
    assert _reference_sums(M, "bB + Bb", s) == {(u, 0, 1): 1}


@pytest.mark.parametrize("name", sorted(CORRUPTED_COMPLEXES))
def test_validate_names_the_slice_explicit_products_do(name):
    """On every single-entry corruption, validate reports the identity and
    slice that the first nonzero sum of block products names."""
    build, text = CORRUPTED_COMPLEXES[name]
    failures = set()
    for table, key, pos, value in _single_entry_corruptions(build(text)[0]):
        M, _ = build(text)
        getattr(M, table)[key][pos] = value
        result = validate(M)
        expected = _reference_validate(M)
        assert (result.identity, result.slice) == expected, (table, key, pos)
        failures.add(expected[0])
    assert failures == {None, "b^2", "B^2", "bB + Bb"}
