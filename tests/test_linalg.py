import random
from fractions import Fraction
from math import gcd

import pytest

from shukla.errors import CompositionNonzero
from shukla.linalg import (
    GroundRing, HomologyGroup, SparseMatrix, dense_snf, det, homology_at,
    invariant_factors_sparse, kernel_basis, preimage, snf, _int_columns,
    integer_rank,
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


def test_invariant_factors_sparse_unit_heavy_matches_dense():
    rng = random.Random(4141)
    for trial in range(60):
        nrows = rng.randint(1, 40)
        ncols = rng.randint(1, 60)
        # some trailing rows stay zero; columns with no draw are zero
        columns = _sparse_unit_heavy(rng, rng.randint(1, nrows), ncols,
                                     rng.choice((2, 3, 6)))
        factors, rank = invariant_factors_sparse(columns, nrows)
        assert (list(factors), rank) == _dense_invariants(columns, nrows), trial


def test_invariant_factors_sparse_zero_and_empty():
    assert invariant_factors_sparse([], 0) == ([], 0)
    assert invariant_factors_sparse([], 5) == ([], 0)
    assert invariant_factors_sparse([{}, {}, {}], 4) == ([], 0)
    assert invariant_factors_sparse([{}, {2: 0}, {}], 4) == ([], 0)
    columns = [{}, {3: 6}, {}, {3: 4, 0: 0}]
    assert invariant_factors_sparse(columns, 5) == ([2], 1)


def test_unit_created_by_elimination_is_peeled(monkeypatch):
    import shukla.linalg

    def no_residue(*args, **kwargs):
        raise AssertionError("dense_snf called on a matrix of unit pivots")

    # [[1, 2], [1, 3]]: the second unit pivot appears only after the
    # first elimination step (3 - 2 = 1)
    monkeypatch.setattr(shukla.linalg, "dense_snf", no_residue)
    assert invariant_factors_sparse([{0: 1, 1: 1}, {0: 2, 1: 3}], 2) == ([], 2)


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


def test_kernel_basis_is_saturated():
    rng = random.Random(5)
    for _ in range(60):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        M = mat(rows)
        kb = kernel_basis(_int_columns(M), m)
        for vec in kb:
            assert all(x == 0 for x in M.apply(vec))
        assert len(kb) == n - rational_rank(rows)
        if kb:
            # saturation: the kernel basis spans a direct summand, so its
            # nontrivial invariant factors are all 1
            cols = [{i: v for i, v in enumerate(vec) if v} for vec in kb]
            factors, rank = invariant_factors_sparse(cols, n)
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
                for i, v in enumerate(vec):
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
        hq = homology_at(SparseMatrix(n, d_in.cols, Q, {
            k2: Fraction(v) for k2, v in d_in.entries.items()}),
            SparseMatrix(k, n, Q, {k2: Fraction(v) for k2, v in A.entries.items()}),
            Q)
        assert hq.free_rank == expected_free
        assert hq.invariant_factors == ()


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
