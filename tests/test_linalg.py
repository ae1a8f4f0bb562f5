import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from shukla.errors import CompositionNonzero
from shukla.linalg import (
    ColumnEchelon, GroundRing, HomologyGroup, SparseMatrix, chain_homology,
    composite_is_zero, dense_snf, det, homology_at, homology_from_presentation,
    invariant_factors_sparse, kernel_basis, preimage, snf, subquotient,
    universal_coefficients, _int_columns, integer_rank,
)

Z = GroundRing.Z()
Q = GroundRing.Q()


def mat(rows, ring=Z):
    return SparseMatrix.from_rows(rows, ring)


def gcd_of_minors(rows, k):
    """Independent SNF oracle: gcd of all k x k minors."""
    m, n = len(rows), len(rows[0])
    g = 0
    for rset in _subsets(range(m), k):
        for cset in _subsets(range(n), k):
            sub = [[rows[i][j] for j in cset] for i in rset]
            g = gcd(g, det(sub))
    return abs(g)


def _subsets(seq, k):
    seq = list(seq)
    if k == 0:
        yield []
        return
    for i in range(len(seq) - k + 1):
        for rest in _subsets(seq[i + 1:], k - 1):
            yield [seq[i]] + rest


def rational_rank(rows):
    """Dense row reduction over Q, independent of the integer path."""
    a = [[Fraction(x) for x in row] for row in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    rank = 0
    for j in range(n):
        p = next((i for i in range(rank, m) if a[i][j]), None)
        if p is None:
            continue
        a[rank], a[p] = a[p], a[rank]
        a[rank] = [x / a[rank][j] for x in a[rank]]
        for i in range(m):
            if i != rank and a[i][j]:
                f = a[i][j]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def diag_of(S):
    return [S[i, i] for i in range(min(S.rows, S.cols))]


def test_snf_zero_matrix():
    U, S, V = snf(SparseMatrix(2, 3, Z))
    assert S.is_zero() and S.rows == 2 and S.cols == 3
    assert U == SparseMatrix.identity(2, Z)
    assert V == SparseMatrix.identity(3, Z)


def test_snf_identity():
    U, S, V = snf(SparseMatrix.identity(3, Z))
    assert diag_of(S) == [1, 1, 1]


def test_snf_2x2_example():
    # oracle: d1 = gcd of entries = 2, d1*d2 = gcd of 2x2 minors = |det| = 8
    rows = [[2, 4], [6, 8]]
    assert gcd_of_minors(rows, 1) == 2
    assert gcd_of_minors(rows, 2) == 8
    _, S, _ = snf(mat(rows))
    assert diag_of(S) == [2, 4]


def test_snf_random_suite():
    rng = random.Random(20407)
    for trial in range(500):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        M = mat(rows)
        U, S, V = snf(M)
        assert (U * M) * V == S, (rows, trial)
        assert abs(det(U.to_rows())) == 1
        assert abs(det(V.to_rows())) == 1
        d = diag_of(S)
        for i, j in S.entries:
            assert i == j
        for a, b in zip(d, d[1:]):
            assert a >= 0 and b >= 0
            if b:
                assert a and b % a == 0
            # zeros only at the tail
            if a == 0:
                assert b == 0


def test_snf_matches_minor_gcds():
    rng = random.Random(7)
    for _ in range(50):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        _, S, _ = snf(mat(rows))
        d = diag_of(S)
        prod = 1
        for k in range(1, min(m, n) + 1):
            g = gcd_of_minors(rows, k)
            prod_k = prod * (d[k - 1] if k - 1 < len(d) else 0)
            assert g == abs(prod_k)
            prod = prod_k


def test_invariant_factors_sparse_agrees_with_dense():
    rng = random.Random(99)
    for _ in range(100):
        m = rng.randint(1, 7)
        n = rng.randint(1, 7)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        M = mat(rows)
        _, S, _ = snf(M)
        dense_factors = [x for x in diag_of(S) if x not in (0, 1)]
        dense_rank = sum(1 for x in diag_of(S) if x)
        factors, rank = invariant_factors_sparse(_int_columns(M), m)
        assert rank == dense_rank == rational_rank(rows)
        assert list(factors) == dense_factors


def _sparse_unit_heavy(rng, live_rows, ncols, per_col=3):
    """Columns with 0..per_col entries each, mostly +-1, in rows below
    live_rows."""
    columns = []
    for _ in range(ncols):
        col = {}
        for _ in range(rng.randint(0, per_col)):
            col[rng.randrange(live_rows)] = rng.choice((1, -1, 1, -1, 1, -1, 2, 3, -4))
        columns.append(col)
    return columns


def _dense_invariants(columns, nrows):
    """(factors, rank) of the same matrix through dense_snf."""
    if not nrows or not columns:
        return [], 0
    rows = [[col.get(i, 0) for col in columns] for i in range(nrows)]
    _, s, _, _ = dense_snf(rows)
    diag = [s[i][i] for i in range(min(nrows, len(columns)))]
    return [d for d in diag if d not in (0, 1)], sum(1 for d in diag if d)


def _no_peel(rows, cols, cancelled):
    """A singleton pass that isolates nothing: the heap takes every pivot."""
    return []


def test_invariant_factors_sparse_unit_heavy_matches_dense(monkeypatch):
    # the same matrices with the singleton pass and without it: behind
    # the pass the heap sees few units, so its unit pivots are checked
    # on their own too
    import shukla.linalg
    for peel in (shukla.linalg._peel_unit_singletons, _no_peel):
        monkeypatch.setattr(shukla.linalg, "_peel_unit_singletons", peel)
        rng = random.Random(4141)
        for trial in range(60):
            nrows = rng.randint(1, 40)
            ncols = rng.randint(1, 60)
            # some trailing rows stay zero; columns with no draw are zero
            columns = _sparse_unit_heavy(rng, rng.randint(1, nrows), ncols,
                                         rng.choice((2, 3, 6)))
            factors, rank = invariant_factors_sparse(columns, nrows)
            assert ((list(factors), rank)
                    == _dense_invariants(columns, nrows)), (peel.__name__, trial)


def _no_dense_residue(monkeypatch):
    import shukla.linalg

    def no_residue(*args, **kwargs):
        raise AssertionError("invariant_factors_sparse called dense_snf")

    monkeypatch.setattr(shukla.linalg, "dense_snf", no_residue)


def test_invariant_factors_sparse_zero_and_empty(monkeypatch):
    _no_dense_residue(monkeypatch)
    assert invariant_factors_sparse([], 0) == ([], 0)
    assert invariant_factors_sparse([], 5) == ([], 0)
    assert invariant_factors_sparse([{}, {}, {}], 4) == ([], 0)
    assert invariant_factors_sparse([{}, {2: 0}, {}], 4) == ([], 0)
    for nrows, ncols in ((0, 3), (1, 1), (4, 2), (2, 7)):
        columns = [{i: 0 for i in range(nrows)} for _ in range(ncols)]
        assert invariant_factors_sparse(columns, nrows) == ([], 0)
    columns = [{}, {3: 6}, {}, {3: 4, 0: 0}]
    assert invariant_factors_sparse(columns, 5) == ([2], 1)
    assert invariant_factors_sparse([{2: -4}], 3) == ([4], 1)


def test_unit_created_by_elimination_is_peeled(monkeypatch):
    # [[1, 2], [1, 3]]: the second unit pivot appears only after the
    # first elimination step (3 - 2 = 1)
    _no_dense_residue(monkeypatch)
    assert invariant_factors_sparse([{0: 1, 1: 1}, {0: 2, 1: 3}], 2) == ([], 2)


def _spy_peel(monkeypatch):
    """The units each call's singleton pass isolated, one list per call."""
    import shukla.linalg
    peeled = []
    peel = shukla.linalg._peel_unit_singletons

    def spy(rows, cols, cancelled):
        out = peel(rows, cols, cancelled)
        peeled.append(list(out))
        return out

    monkeypatch.setattr(shukla.linalg, "_peel_unit_singletons", spy)
    return peeled


def test_peel_unit_alone_in_its_column(monkeypatch):
    # [[1, 3, 2], [0, 4, 6]]: the unit's row goes without a row op, and
    # columns 1 and 2 are left with 4 and 6 for the heap
    peeled = _spy_peel(monkeypatch)
    cancelled = set()
    columns = [{0: 1}, {0: 3, 1: 4}, {0: 2, 1: 6}]
    assert invariant_factors_sparse(columns, 2, cancelled) == ([2], 2)
    assert peeled == [[1]]
    assert cancelled == {0}


def test_peel_unit_alone_in_its_row(monkeypatch):
    # [[-1, 0], [5, 6], [7, 9]]: row ops clear column 0 and touch no
    # other column, leaving [[6], [9]]
    peeled = _spy_peel(monkeypatch)
    cancelled = set()
    columns = [{0: -1, 1: 5, 2: 7}, {1: 6, 2: 9}]
    assert invariant_factors_sparse(columns, 3, cancelled) == ([3], 2)
    assert peeled == [[-1]]
    assert cancelled == {0}


@pytest.mark.parametrize("transpose", [False, True], ids=["rows", "columns"])
def test_peel_bidiagonal_chain(monkeypatch, transpose):
    # entries (i, i) = 1 and (i + 1, i) = 2 in n + 1 rows: only row 0 is
    # alone, and each unit it isolates leaves the next one alone in its
    # row; transposed, each leaves the next alone in its column.  At this
    # size a pass that re-scanned the matrix per pivot would crawl.
    peeled = _spy_peel(monkeypatch)
    n = 5000
    entries = [(i, i, 1) for i in range(n)] + [(i + 1, i, 2) for i in range(n)]
    if transpose:
        entries = [(j, i, v) for i, j, v in entries]
    nrows, ncols = (n, n + 1) if transpose else (n + 1, n)
    columns = [{} for _ in range(ncols)]
    for i, j, v in entries:
        columns[j][i] = v
    cancelled = set()
    assert invariant_factors_sparse(columns, nrows, cancelled) == ([], n)
    assert len(peeled[0]) == n
    assert len(cancelled) == n


def test_peel_leaves_non_units_to_the_heap(monkeypatch):
    peeled = _spy_peel(monkeypatch)
    cancelled = set()
    # 2 and 3 are each alone in their row and column
    assert invariant_factors_sparse([{0: 2}, {1: 3}], 2, cancelled) == ([6], 2)
    # [[-5, 17]]: no unit until column operations, so nothing is cancelled
    assert invariant_factors_sparse([{0: -5}, {0: 17}], 1, cancelled) == ([], 1)
    assert peeled == [[], []]
    assert cancelled == set()


def test_invariant_factors_sparse_leaves_columns_unchanged():
    rng = random.Random(77)
    for _ in range(20):
        columns = _sparse_unit_heavy(rng, 12, 15)
        before = [dict(col) for col in columns]
        invariant_factors_sparse(columns, 12, set())
        assert columns == before


def test_invariant_factors_sparse_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    rng = random.Random(515)
    for trial in range(25):
        nrows = rng.randint(1, 10)
        ncols = rng.randint(1, 14)
        columns = _sparse_unit_heavy(rng, nrows, ncols)
        rows = [[col.get(i, 0) for col in columns] for i in range(nrows)]
        diag = [abs(int(d)) for d in
                invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)]
        want = ([d for d in diag if d not in (0, 1)], sum(1 for d in diag if d))
        factors, rank = invariant_factors_sparse(columns, nrows)
        assert (list(factors), rank) == want, trial


UNIT_FREE_VALUES = ((2, -2, 3, -3, 4, 6, 9, -9), (2, 3), (6, 10, 15))


def _unit_free(rng, nrows, ncols, density, values):
    """Columns with no +-1 entry; each cell is nonzero with the given
    probability."""
    return [{i: rng.choice(values) for i in range(nrows) if rng.random() < density}
            for _ in range(ncols)]


def test_invariant_factors_sparse_unit_free_matches_dense(monkeypatch):
    # the reference goes through this module's own dense_snf binding,
    # which the patch of shukla.linalg leaves alone
    _no_dense_residue(monkeypatch)
    rng = random.Random(2001)
    trials = 0
    for values in UNIT_FREE_VALUES:
        for density, most in ((0.1, 30), (0.5, 14), (1.0, 9)):
            for _ in range(24):
                nrows = rng.randint(1, most)
                ncols = rng.randint(1, most + 10)
                columns = _unit_free(rng, nrows, ncols, density, values)
                want = _dense_invariants(columns, nrows)
                factors, rank = invariant_factors_sparse(columns, nrows)
                assert (list(factors), rank) == want, (values, density, trials)
                trials += 1
    assert trials >= 200


def test_invariant_factors_sparse_fibonacci_pivot_moves(monkeypatch):
    # consecutive Fibonacci numbers make every Euclidean step leave a
    # remainder, so the pivot moves many times before it is isolated
    _no_dense_residue(monkeypatch)
    fib = [1, 1]
    while len(fib) < 60:
        fib.append(fib[-1] + fib[-2])
    a, b, c = fib[-1], fib[-2], fib[-3]
    assert invariant_factors_sparse([{0: a, 1: b}], 2) == ([], 1)
    assert invariant_factors_sparse([{0: a}, {0: b}], 1) == ([], 1)
    # [[a, b], [b, c]] has determinant +-1
    assert invariant_factors_sparse([{0: a, 1: b}, {0: b, 1: c}], 2) == ([], 2)
    assert invariant_factors_sparse([{0: 7 * a, 1: 7 * b}, {0: 7 * b, 1: 7 * c}],
                                    2) == ([7, 7], 2)
    # next to other nonzeros in the pivot's rows and columns
    columns = [{0: a, 1: b, 2: 6}, {0: b, 1: c}, {1: 4, 2: 10}]
    assert invariant_factors_sparse(columns, 3) == _dense_invariants(columns, 3)


def test_invariant_factors_sparse_unit_free_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    rng = random.Random(1009)
    for trial in range(25):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 10)
        columns = _unit_free(rng, nrows, ncols, rng.choice((0.2, 0.5, 1.0)),
                             UNIT_FREE_VALUES[trial % 3])
        rows = [[col.get(i, 0) for col in columns] for i in range(nrows)]
        diag = [abs(int(d)) for d in
                invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)]
        want = ([d for d in diag if d not in (0, 1)], sum(1 for d in diag if d))
        factors, rank = invariant_factors_sparse(columns, nrows)
        assert (list(factors), rank) == want, trial


def _sorted_walk_reduce(ech, col):
    """ColumnEchelon.reduce as a walk over every pivot in sorted order."""
    col = dict(col)
    coords = {}
    for r in sorted(ech.pivots):
        b = col.get(r, 0)
        if not b:
            continue
        piv = ech.pivots[r]
        if b % piv[r]:
            break
        coords[r] = q = b // piv[r]
        for row, val in piv.items():
            col[row] = col.get(row, 0) - q * val
            if not col[row]:
                del col[row]
    return coords, col


def test_reduce_matches_sorted_walk():
    rng = random.Random(808)
    stops = 0
    for trial in range(150):
        limit = rng.randint(1, 12)
        ech = ColumnEchelon(limit)
        gens = []
        for _ in range(rng.randint(0, 10)):
            # rows >= limit ride along as witnesses
            gen = {i: rng.choice((1, -1, 2, 3, -4, 6))
                   for i in range(limit + 3) if rng.random() < 0.4}
            gens.append(gen)
            ech.add(gen)
        for _ in range(6):
            col = {}
            for gen in rng.sample(gens, min(len(gens), 3)):
                q = rng.randint(-3, 3)
                for i, v in gen.items():
                    col[i] = col.get(i, 0) + q * v
            if rng.random() < 0.5:
                # usually pulls the column out of the lattice
                i = rng.randrange(limit)
                col[i] = col.get(i, 0) + rng.choice((1, 2, 5))
            col = {i: v for i, v in col.items() if v}
            want = _sorted_walk_reduce(ech, col)
            assert ech.reduce(col) == want, trial
            coords, rem = want
            stops += any(r in ech.pivots and rem[r] % ech.pivots[r][r]
                         for r in rem)
    assert stops
    ech = ColumnEchelon(2)
    ech.add({0: 2})
    assert ech.reduce({0: 1, 1: 3}) == ({}, {0: 1, 1: 3})


def test_subquotient_rejects_lattice_outside():
    big = [{0: 2}, {1: 1}]
    assert subquotient(big, [{0: 4}], 2, Z)[0] == HomologyGroup(1, (2,))
    # over Q the torsion dies: the result is (big/small) (x) Q
    assert subquotient(big, [{0: 4}], 2, Q)[0] == HomologyGroup(1, ())
    with pytest.raises(ValueError):
        subquotient(big, [{0: 1}], 2, Z)
    with pytest.raises(ValueError):
        subquotient(big, [{2: 1}], 3, Z)


def test_kernel_basis_is_saturated():
    rng = random.Random(5)
    for _ in range(60):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        M = mat(rows)
        kb = kernel_basis(_int_columns(M), m)
        for vec in kb:
            assert all(x == 0 for x in M.apply([vec.get(j, 0) for j in range(n)]))
        assert len(kb) == n - rational_rank(rows)
        if kb:
            # saturation: the kernel basis spans a direct summand, so its
            # nontrivial invariant factors are all 1
            factors, rank = invariant_factors_sparse(kb, n)
            assert rank == len(kb)
            assert not factors


def test_homology_trivial_examples():
    # cokernel of multiplication by p
    p = 5
    d_in = mat([[p]])
    d_out = SparseMatrix(0, 1, Z)
    assert homology_at(d_in, d_out, Z) == HomologyGroup(0, (p,))
    # zero differentials on Z^3
    z3_in = SparseMatrix(3, 0, Z)
    z3_out = SparseMatrix(0, 3, Z)
    assert homology_at(z3_in, z3_out, Z) == HomologyGroup(3, ())
    # derived from the snf example
    d_in = mat([[2, 4], [6, 8]])
    d_out = SparseMatrix(0, 2, Z)
    assert homology_at(d_in, d_out, Z) == HomologyGroup(0, (2, 4))


def test_homology_composition_check():
    d_in = mat([[1], [0]])
    d_out = mat([[1, 0]])
    with pytest.raises(CompositionNonzero):
        homology_at(d_in, d_out, Z)


def test_chain_homology_cancels_no_unit_reached_by_column_operations():
    # d_1 = [[-5, 17]] reaches a unit pivot only after column operations;
    # its column is no cancellation, and dropping the row of d_2 there
    # would read H_1 = C10 instead of ker d_1 / im d_2 = Z(17, 5) / 2Z
    ds = [SparseMatrix(0, 1, Z), mat([[-5, 17]]), mat([[68, 34], [20, 10]]),
          SparseMatrix(2, 0, Z)]
    assert chain_homology(ds, Z) == [HomologyGroup(0, ()), HomologyGroup(0, (2,)),
                                     HomologyGroup(1, ())]
    cancelled = set()
    assert invariant_factors_sparse([{0: -5}, {0: 17}], 1, cancelled) == ([], 1)
    assert cancelled == set()


def test_homology_free_rank_against_rational_oracle():
    rng = random.Random(31337)
    for _ in range(100):
        # build a random composable pair d_out * d_in = 0 by factoring
        # through a middle space: d_in = B*C, d_out = A with A*B = 0
        n = rng.randint(1, 5)
        k = rng.randint(1, 5)
        rows_a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        A = mat(rows_a)
        kb = kernel_basis(_int_columns(A), k)
        r = len(kb)
        if r == 0:
            B = SparseMatrix(n, 0, Z)
        else:
            B = SparseMatrix(n, r, Z)
            for j, vec in enumerate(kb):
                for i, v in vec.items():
                    B[i, j] = v
        t = rng.randint(0, 4)
        C = SparseMatrix(r, t, Z)
        for i in range(r):
            for j in range(t):
                C[i, j] = rng.randint(-3, 3)
        d_in = B * C
        h = homology_at(d_in, A, Z)
        rank_in = rational_rank(d_in.to_rows()) if t and r else 0
        expected_free = (n - rational_rank(rows_a)) - rank_in
        assert h.free_rank == expected_free
        # a known rank of d_out stands in for its elimination
        assert homology_at(d_in, A, Z, rational_rank(rows_a)) == h
        q_in = SparseMatrix(n, d_in.cols, Q, {
            k2: Fraction(v) for k2, v in d_in.entries.items()})
        q_out = SparseMatrix(k, n, Q, {k2: Fraction(v) for k2, v in A.entries.items()})
        hq = homology_at(q_in, q_out, Q)
        assert hq.free_rank == expected_free
        assert hq.invariant_factors == ()
        assert homology_at(q_in, q_out, Q, rational_rank(rows_a)) == hq


def test_homology_mod_m():
    Zm = GroundRing.Zmod(4)
    # multiplication by 2 on Z/4: ker = {0,2}, im = {0,2}: H = 0
    d = SparseMatrix.from_rows([[2]], Zm)
    h = homology_at(d, d, Zm)
    assert h.is_trivial()
    # zero maps on (Z/4)^2
    zero_in = SparseMatrix(2, 0, Zm)
    zero_out = SparseMatrix(0, 2, Zm)
    h = homology_at(zero_in, zero_out, Zm)
    assert h == HomologyGroup.from_factors(0, [4, 4])


def test_universal_coefficients_tor_of_the_degree_below():
    # H_0 = Z/6 over Z gives Z/2 in H_0 mod 4 and Tor(Z/6, Z/4) = Z/2 in H_1
    got = universal_coefficients([HomologyGroup(0, (6,)), HomologyGroup(0, ())],
                                 GroundRing.Zmod(4))
    assert got == [HomologyGroup(0, (2,)), HomologyGroup(0, (2,))]


def test_universal_coefficients_drops_factors_prime_to_m():
    got = universal_coefficients([HomologyGroup(0, (3,)), HomologyGroup(0, (5, 15))],
                                 GroundRing.Zmod(4))
    assert got == [HomologyGroup(0, ()), HomologyGroup(0, ())]


def test_universal_coefficients_free_rank_becomes_m_torsion():
    # Z has no Tor, so a free H_0 adds nothing to H_1
    got = universal_coefficients([HomologyGroup(2, ()), HomologyGroup(1, (4,))],
                                 GroundRing.Zmod(6))
    assert got == [HomologyGroup(0, (6, 6)), HomologyGroup.from_factors(0, [6, 2])]
    assert all(g.free_rank == 0 for g in got)


@pytest.mark.parametrize("m", [4, 6, 9])
def test_universal_coefficients_matches_the_presented_path(m):
    # random free chains over Z: C_2 -> C_1 -> C_0, d_2 built from integer
    # kernel vectors of d_1; their reductions mod m go through the cone
    rng = random.Random(m)
    Zm = GroundRing.Zmod(m)
    for _ in range(30):
        c0, c1, c2 = rng.randint(1, 4), rng.randint(1, 5), rng.randint(1, 4)
        d1 = [[rng.choice([0, 0, 1, 2, 3, -6]) for _ in range(c1)] for _ in range(c0)]
        ker = kernel_basis(_int_columns(mat(d1)), c0)
        d2 = [[0] * c2 for _ in range(c1)]
        for j in range(c2):
            for vec in ker:
                s = rng.choice([0, 1, 2, 3, 4])
                for i, v in vec.items():
                    d2[i][j] += s * v

        def chain(ring):
            return [SparseMatrix(0, c0, ring), mat(d1, ring), mat(d2, ring),
                    SparseMatrix(c2, 0, ring)]
        assert (universal_coefficients(chain_homology(chain(Z), Z), Zm)
                == chain_homology(chain(Zm), Zm))


def _random_zmod_chain(rng, m):
    """Boundaries ds[0..N + 1] of a chain over Z/m, as chain_homology
    takes them.  The columns of each d_n are combinations of the kernel
    of d_{n-1} mod m (integer kernel vectors of d_{n-1} and its relations,
    cut to C_n); then a random unimodular change of basis acts on every
    C_n, so the entries, reduced mod m, mostly lift to a chain whose
    boundaries do not compose to 0 over Z."""
    Zm = GroundRing.Zmod(m)
    dims = [rng.randint(1, 4) for _ in range(rng.randint(3, 5))]
    ds = [[]]  # into degree -1, no rows
    for n in range(1, len(dims)):
        lo, hi = dims[n - 1], dims[n]
        d = SparseMatrix(len(ds[-1]), lo, Zm, {
            (i, j): v for i, row in enumerate(ds[-1]) for j, v in enumerate(row)})
        ker = [[vec.get(i, 0) for i in range(lo)]
               for vec in kernel_basis(_int_columns(d), d.rows)]
        cols = []
        for _ in range(hi):
            coeffs = [rng.randint(-3, 3) for _ in ker]
            cols.append([sum(c * v[i] for c, v in zip(coeffs, ker)) % m
                         for i in range(lo)])
        ds.append([[cols[j][i] for j in range(hi)] for i in range(lo)])
    for n, c in enumerate(dims):
        for _ in range(3 * c if c > 1 else 0):
            i, j = rng.sample(range(c), 2)
            t = rng.randint(1, m - 1)
            # e_j' = e_j + t*e_i: d_n column j += t * column i, and
            # d_{n+1} row i -= t * row j, so d_n d_{n+1} stays 0 mod m
            for row in ds[n]:
                row[j] = (row[j] + t * row[i]) % m
            if n + 1 < len(ds):
                ds[n + 1][i] = [(a - t * b) % m for a, b in zip(ds[n + 1][i], ds[n + 1][j])]
    chain = [SparseMatrix(0, dims[0], Zm)]
    chain += [SparseMatrix(dims[n - 1], dims[n], Zm, {
        (i, j): v for i, row in enumerate(ds[n]) for j, v in enumerate(row)})
        for n in range(1, len(dims))]
    return chain + [SparseMatrix(dims[-1], 0, Zm)]


def _lift_squares_to_zero(ds):
    lifts = [SparseMatrix(d.rows, d.cols, Z, d.entries) for d in ds]
    return all((a * b).is_zero() for a, b in zip(lifts, lifts[1:]))


def test_chain_homology_mod_m_matches_the_presented_path():
    rng = random.Random(2027)
    unsquared = 0
    for k in range(280):
        m = (4, 6, 8, 9, 12, 27, 30)[k % 7]
        ds = _random_zmod_chain(rng, m)
        want = [homology_from_presentation(
            _int_columns(ds[n + 1]), _int_columns(ds[n]), ds[n].cols, ds[n].rows,
            ds[n].ring)[0] for n in range(len(ds) - 1)]
        assert chain_homology(ds, ds[0].ring) == want
        assert all(homology_at(ds[n + 1], ds[n], ds[n].ring) == want[n]
                   for n in range(len(ds) - 1))
        unsquared += not _lift_squares_to_zero(ds)
    # most lifts need the cone's h: d~ d~ = m*h with h != 0
    assert unsquared > 140


def test_chain_homology_mod_m_by_hand():
    # Z/8 -4-> Z/8 -2-> Z/8: the lifts compose to 8 = 8*1, not 0 over Z
    Z8 = GroundRing.Zmod(8)
    ds = [SparseMatrix(0, 1, Z8), mat([[4]], Z8), mat([[2]], Z8),
          SparseMatrix(1, 0, Z8)]
    assert chain_homology(ds, Z8) == [HomologyGroup(0, (4,)), HomologyGroup(0, ()),
                                      HomologyGroup(0, (2,))]


def test_chain_homology_mod_m_checks_the_square_in_the_cone():
    # 2 * 2 = 4 != 0 mod 8: the division by m in the cone fails even
    # when the caller says the chain is checked
    Z8 = GroundRing.Zmod(8)
    ds = [SparseMatrix(0, 1, Z8), mat([[2]], Z8), mat([[2]], Z8),
          SparseMatrix(1, 0, Z8)]
    with pytest.raises(CompositionNonzero) as err:
        chain_homology(ds, Z8, checked=True)
    assert err.traceback[-1].name == "_mod_cone"
    with pytest.raises(CompositionNonzero):
        homology_at(ds[2], ds[1], Z8)


def test_preimage_identity_and_parity():
    I = SparseMatrix.identity(3, Z)
    assert preimage(I, [4, -1, 0], Z) == [4, -1, 0]
    two = mat([[2]])
    assert preimage(two, [1], Z) is None
    assert preimage(two, [6], Z) == [3]
    Zm2 = GroundRing.Zmod(2)
    two_mod2 = SparseMatrix.from_rows([[2]], Zm2)
    assert preimage(two_mod2, [1], Zm2) is None
    assert preimage(two_mod2, [0], Zm2) is not None


def test_preimage_random_certified():
    rng = random.Random(11)
    for _ in range(80):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        M = mat(rows)
        x0 = [rng.randint(-3, 3) for _ in range(n)]
        b = M.apply(x0)
        x = preimage(M, b, Z)
        assert x is not None
        assert M.apply(x) == b
        # random targets: preimage exactness
        b2 = [rng.randint(-4, 4) for _ in range(m)]
        x2 = preimage(M, b2, Z)
        if x2 is not None:
            assert M.apply(x2) == b2


def test_preimage_rational():
    M = SparseMatrix.from_rows([[2, 0], [0, 3]], Q)
    x = preimage(M, [1, 1], Q)
    assert x == [Fraction(1, 2), Fraction(1, 3)]
    M2 = SparseMatrix.from_rows([[1, 1], [2, 2]], Q)
    assert preimage(M2, [1, 3], Q) is None


@pytest.mark.parametrize("m", [4, 6, 9])
def test_preimage_matches_brute_force_mod_m(m):
    ring = GroundRing.Zmod(m)
    rng = random.Random(m)
    cases = [(SparseMatrix(2, 0, ring), [0, 0]),
             (SparseMatrix(2, 0, ring), [1, 0]),
             (SparseMatrix(2, 3, ring), [0, 0]),
             (SparseMatrix(2, 3, ring), [0, m - 1])]
    for _ in range(60):
        r, n = rng.randint(1, 3), rng.randint(1, 3)
        M = mat([[rng.randrange(m) for _ in range(n)] for _ in range(r)], ring)
        b = [rng.randrange(m) if rng.randrange(5) else 0 for _ in range(r)]
        cases.append((M, b))
    for M, b in cases:
        hit = any(M.apply(list(x)) == b
                  for x in itertools.product(range(m), repeat=M.cols))
        x = preimage(M, b, ring)
        assert (x is not None) == hit, (M.to_rows(), b)
        if x is not None:
            assert M.apply(x) == b
            assert all(0 <= v < m for v in x)


def test_preimage_rational_exists_iff_rank_does_not_grow():
    rng = random.Random(23)
    cases = [([[], []], [0, 0]), ([[], []], [0, Fraction(1, 2)]),
             ([[0, 0]] * 3, [0, 0, 0]), ([[0, 0]] * 3, [1, 0, 0])]
    for _ in range(80):
        r, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 for _ in range(n)] for _ in range(r)]
        if rng.randrange(2):
            x0 = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
            b = mat(rows, Q).apply(x0)
        else:
            b = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(r)]
        cases.append((rows, b))
    for rows, b in cases:
        M = SparseMatrix(len(rows), len(rows[0]), Q)
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                M[i, j] = v
        grows = (rational_rank([row + [v] for row, v in zip(rows, b)])
                 > rational_rank(rows))
        x = preimage(M, b, Q)
        assert (x is None) == grows, (rows, b)
        if x is not None:
            assert M.apply(x) == b


def test_homology_group_normalization():
    g = HomologyGroup.from_factors(1, [4, 2, 3])
    assert g.invariant_factors == (2, 12)
    assert g.torsion_order == 24
    s = g.direct_sum(HomologyGroup.from_factors(0, [2]))
    assert s.invariant_factors == (2, 2, 12)
    assert str(HomologyGroup(0, ())) == "0"


def _valuation(d, p):
    e = 0
    while d % p == 0:
        d //= p
        e += 1
    return e


def test_torsion_chain_keeps_prime_power_parts():
    rng = random.Random(2024)
    primes = [p for p in range(2, 51) if all(p % q for q in range(2, p))]
    for _ in range(500):
        factors = [rng.randint(0, 50) for _ in range(rng.randint(0, 7))]
        chain = HomologyGroup.from_factors(0, factors).invariant_factors
        assert all(d >= 2 for d in chain), factors
        assert all(b % a == 0 for a, b in zip(chain, chain[1:])), factors
        for p in primes:
            want = sorted(_valuation(f, p) for f in factors
                          if f > 1 and f % p == 0)
            got = sorted(_valuation(d, p) for d in chain if d % p == 0)
            assert got == want, (factors, p)


def test_integer_rank_matches_rational():
    rng = random.Random(4242)
    for _ in range(60):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        M = mat(rows)
        assert integer_rank(_int_columns(M), m) == rational_rank(rows)


def test_q_scalars_stay_ints_when_integral():
    two = Q.normalize(Fraction(4, 2))
    assert two == 2 and type(two) is int
    assert Q.inv(2) == Fraction(1, 2)
    back = Q.inv(Fraction(1, 2))
    assert back == 2 and type(back) is int
    assert type(Q.mul(Fraction(2, 3), Fraction(3, 2))) is int
    with pytest.raises(ZeroDivisionError):
        Q.inv(0)


def test_dense_snf_tracks_u_only_on_request():
    rng = random.Random(31)
    for _ in range(100):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        u, s, v, uinv = dense_snf(rows, want_u=True, want_v=True, want_uinv=True)
        assert (mat(u) * mat(uinv)).to_rows() == [[int(i == j) for j in range(m)]
                                                  for i in range(m)]
        assert (mat(u) * mat(rows)) * mat(v) == mat(s)
        u_alone, s_alone, _, uinv_alone = dense_snf(rows, want_uinv=True)
        assert u_alone is None
        assert uinv_alone == uinv and s_alone == s


@pytest.mark.parametrize("ring", [Z, GroundRing.Zmod(6), Q], ids=repr)
def test_sparse_product_and_sum_match_dense_reference(ring):
    rng = random.Random(17)

    def scalar():
        v = rng.choice([0, 0, 1, -1, 2, -2, 3])
        return Fraction(v, rng.choice([1, 2, 3])) if ring.kind == "Q" else v

    cancelled = 0
    for _ in range(80):
        m, k, n = (rng.randint(1, 5) for _ in range(3))
        a = mat([[scalar() for _ in range(k)] for _ in range(m)], ring)
        b = mat([[scalar() for _ in range(n)] for _ in range(k)], ring)
        c = mat([[scalar() for _ in range(n)] for _ in range(m)], ring)
        ra, rb, rc = a.to_rows(), b.to_rows(), c.to_rows()
        prod = [[ring.normalize(sum(ra[i][t] * rb[t][j] for t in range(k)))
                 for j in range(n)] for i in range(m)]
        cancelled += sum(1 for i in range(m) for j in range(n) if not prod[i][j]
                         and any(ra[i][t] and rb[t][j] for t in range(k)))
        total = [[ring.add(x, y) for x, y in zip(row, col)]
                 for row, col in zip(prod, rc)]
        # mat writes b row by row; the same entries written column by
        # column give the same matrix and the same products
        by_col = SparseMatrix(b.rows, b.cols, ring,
                              dict(sorted(b.entries.items(), key=lambda e: e[0][::-1])))
        for got, expected in ((a * b, prod), (a * by_col, prod)):
            assert got == mat(expected, ring)
            assert all(v and v == ring.normalize(v) for v in got.entries.values())
        # a * b + c and a * b - a * b as sums of two products, never formed
        one = SparseMatrix.identity(n, ring)
        minus = mat([[ring.neg(x) for x in row] for row in prod], ring)
        for right in (b, by_col):
            assert composite_is_zero([(right, a)], ring) == (not any(map(any, prod)))
            assert composite_is_zero([(right, a), (one, c)], ring) == (
                not any(map(any, total)))
            assert composite_is_zero([(right, a), (one, minus)], ring)
    assert cancelled


@pytest.mark.parametrize("ring", [Z, GroundRing.Zmod(4), Q], ids=repr)
def test_entries_view_rebuilds_the_matrix(ring):
    rng = random.Random(f"entries view {ring!r}")
    for _ in range(20):
        r, c = rng.randint(1, 4), rng.randint(0, 4)
        m = mat([[rng.choice([0, 0, 1, -1, 3]) for _ in range(c)] for _ in range(r)], ring)
        assert SparseMatrix(r, c, ring, m.entries) == m


def test_equality_ignores_insertion_order():
    cells = {(0, 0): 1, (2, 0): -3, (1, 0): 2, (1, 2): 5, (0, 2): 7}
    forward = SparseMatrix(3, 3, Z, cells)
    backward = SparseMatrix(3, 3, Z, dict(reversed(list(cells.items()))))
    assert [list(col) for col in forward.columns] != [list(col) for col in backward.columns]
    assert forward == backward
    backward[2, 1] = 4
    assert forward != backward


@pytest.mark.parametrize("ring", [Z, GroundRing.Zmod(6), Q], ids=repr)
def test_three_leg_composite_matches_dense_reference(ring):
    # sum over three legs of second * first, against dense products; in
    # every other draw the third leg cancels the first two
    rng = random.Random(f"three legs {ring!r}")

    def scalars(r, c):
        return [[rng.choice([0, 0, 1, -1, 2, 3]) for _ in range(c)] for _ in range(r)]

    for trial in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        dense = []
        for _ in range(2 if trial % 2 else 3):
            k = rng.randint(1, 4)
            dense.append((scalars(k, n), scalars(m, k)))
        partial = [[sum(second[i][t] * first[t][j] for first, second in dense
                        for t in range(len(first)))
                    for j in range(n)] for i in range(m)]
        legs = [(mat(first, ring), mat(second, ring)) for first, second in dense]
        if trial % 2:
            legs.append((SparseMatrix.identity(n, ring),
                         mat([[-v for v in row] for row in partial], ring)))
            partial = [[0] * n for _ in range(m)]
        want = not any(ring.normalize(v) for row in partial for v in row)
        assert composite_is_zero(legs, ring) == want


def _random_chain(rng, ring):
    """Boundaries ds[0..N + 1] of a chain over the ring: a sum of pieces
    Z -c-> Z (c in 1, -1, 2, 3) and lone Z in random unimodular bases, so
    the sweep cancels the rows of unit pivots.  Over Q one basis vector
    is also halved, which gives entries with denominators."""
    top = rng.randint(2, 4)
    dims = [0] * (top + 1)
    cells = [dict() for _ in range(top + 2)]  # cells[n]: (row, col) -> v of d_n
    for _ in range(rng.randint(4, 9)):
        n = rng.randint(0, top)
        if n and rng.random() < 0.7:
            cells[n][dims[n - 1], dims[n]] = rng.choice([1, -1, 2, 3])
            dims[n - 1] += 1
        dims[n] += 1
    ds = [[[cells[n].get((i, j), 0) for j in range(dims[n])] for i in range(dims[n - 1])]
          if n else [] for n in range(top + 1)]
    for n, c in enumerate(dims):
        for _ in range(2 * c if c > 1 else 0):
            i, j = rng.sample(range(c), 2)
            t = rng.choice([1, -1, 2])
            # e_j' = e_j + t*e_i: d_n column j += t * column i, and
            # d_{n+1} row i -= t * row j
            for row in ds[n]:
                row[j] += t * row[i]
            if n < top:
                ds[n + 1][i] = [a - t * b for a, b in zip(ds[n + 1][i], ds[n + 1][j])]
    if ring.kind == "Q" and dims[1]:
        # e_0' = e_0 / 2 in degree 1
        for row in ds[1]:
            row[0] = Fraction(row[0], 2)
        if top > 1:
            ds[2][0] = [2 * v for v in ds[2][0]]
    chain = [SparseMatrix(0, dims[0], ring)]
    chain += [SparseMatrix(dims[n - 1], dims[n], ring, {
        (i, j): v for i, row in enumerate(ds[n]) for j, v in enumerate(row)})
        for n in range(1, top + 1)]
    return chain + [SparseMatrix(dims[top], 0, ring)]


@pytest.mark.parametrize("ring", [Z, GroundRing.Zmod(4), Q], ids=repr)
def test_consumers_leave_the_stored_columns_unchanged(ring, monkeypatch):
    # _int_columns hands out a matrix's own column dicts, so every
    # consumer of the lift must read them or copy them first
    import copy

    from shukla import models
    from shukla.crystalline import L_complex, Lprime_complex
    from shukla.dpalgebra import EXTERIOR, POLYNOMIAL, Element, GammaDerivation, Generator, GradedAlgebra
    from shukla.mixed import _column_graded_pieces

    watched = []

    def watch(*mats):
        watched.extend((m, copy.deepcopy(m.columns)) for m in mats)
        return mats

    rng = random.Random(f"shared columns {ring!r}")
    cancelled_rows = 0
    for _ in range(30):
        ds = watch(*_random_chain(rng, ring))
        chain_homology(list(ds), ring)
        for n in range(len(ds) - 1):
            homology_at(ds[n + 1], ds[n], ring)
            if ring.kind != "Zmod":
                cancelled = set()
                invariant_factors_sparse(_int_columns(ds[n]), ds[n].rows, cancelled)
                cancelled_rows += len(cancelled)
                homology_at(ds[n + 1], ds[n], ring, cancelled=cancelled)
        # two chains side by side split by value
        other = _random_chain(rng, ring)
        if len(other) == len(ds):
            blocks = [SparseMatrix(a.rows + b.rows, a.cols + b.cols, ring, {
                **a.entries, **{(i + a.rows, j + a.cols): v for (i, j), v in b.entries.items()}})
                for a, b in zip(ds, other)]
            watch(*blocks)
            for n in range(len(ds) - 1):
                values = [0] * ds[n].cols + [1] * other[n].cols
                _column_graded_pieces(blocks[n + 1], blocks[n], values, ring)
        d = ds[1]
        if d.rows:
            x = [rng.randint(-2, 2) for _ in range(d.cols)]
            preimage(d, d.apply(x), ring)
            preimage(d, [1] + [0] * (d.rows - 1), ring)
    if ring.kind != "Zmod":
        assert cancelled_rows

    P = models.Presentation.make(ring, ["x", "y"], [{(2, 0): 1}, {(0, 3): 1, (1, 0): 2}])
    for build in (L_complex, Lprime_complex):
        for p in range(3):
            F = build(P, p)
            watch(*F.mats.values())
            for j in range(p + 1):
                F.homology(j)

    def boundaries(*args):
        mid, d_in, d_out = weight0(*args)
        watch(d_in, d_out)
        return mid, d_in, d_out

    weight0 = models._weight0_boundaries
    monkeypatch.setattr(models, "_weight0_boundaries", boundaries)
    alg = GradedAlgebra(ring, [Generator("y", 1, EXTERIOR), Generator("z", 2, POLYNOMIAL)])
    start = models.FreeDGA(alg, GammaDerivation(alg, -1, {
        "y": Element(alg), "z": alg.gen_element("y")}))
    models.tate_extend(start, 5)

    assert len(watched) > 100
    for m, columns in watched:
        assert m.columns == columns
