import random
from fractions import Fraction

import pytest

from shukla.baroracle import FiniteAlgebra, cyclic_mixed, from_presentation
from shukla.errors import CompositionNonzero, NotQuasiMonic
from shukla.linalg import GroundRing, HomologyGroup, SparseMatrix
from shukla.mixed import cyclic_total, hochschild_total, validate
from shukla.models import Presentation

Z = GroundRing.Z()
Q = GroundRing.Q()


def test_from_presentation_bases():
    A = from_presentation(Presentation.make(Z, ["x"], [{(2,): 1}]))
    assert A.basis == ((0,), (1,))
    assert A.mult[(1, 1)] == {}
    B = from_presentation(Presentation.make(Z, ["x"], [{(3,): 1}]))
    assert B.basis == ((0,), (1,), (2,))
    assert B.mult[(1, 2)] == {}
    assert B.mult[(1, 1)] == {2: 1}
    Zm4 = GroundRing.Zmod(4)
    C = from_presentation(Presentation.make(Zm4, ["x"], [{(2,): 1, (0,): -2}]))
    assert C.basis == ((0,), (1,))
    assert C.mult[(1, 1)] == {0: 2}


def test_from_presentation_refuses_constant_relations():
    with pytest.raises(NotQuasiMonic):
        from_presentation(Presentation.make(Z, [], [{(): 5}]))


@pytest.mark.parametrize("ring", [Z, Q, GroundRing.Zmod(9)])
def test_unit_constant_gives_the_zero_algebra(ring):
    # 1 = 0 in A: free of rank 0 even on variables with no rule
    A = from_presentation(Presentation.make(ring, ["x", "y"], [{(2, 0): 1}, {(0, 0): 1}]))
    assert A.rank == 0
    cplx = cyclic_mixed(A, 2)
    assert validate(cplx)
    zero = [HomologyGroup(0, ())] * 3
    assert hochschild_total(cplx, 2) == zero
    assert cyclic_total(cplx, 2) == zero


def test_bar_boundary_vanishes_on_length_one():
    # b(a (x) x) = ax - xa = 0 for commutative A
    A = from_presentation(Presentation.make(Z, ["x"], [{(2,): 1}]))
    C = cyclic_mixed(A, 2)
    assert C.b[((1, 0), (0, 0))].is_zero()


def test_connes_on_degree_zero():
    A = from_presentation(Presentation.make(Z, ["x"], [{(2,): 1}]))
    C = cyclic_mixed(A, 2)
    B0 = C.B[((0, 0), (1, 0))]
    # B(1) = 0 and B(x) = 1 (x) x in the normalized complex
    labels0 = C.slices[(0, 0)]
    labels1 = C.slices[(1, 0)]
    col_one = labels0.index((0,))
    col_x = labels0.index((1,))
    assert all(B0[i, col_one] == 0 for i in range(B0.rows))
    target = labels1.index((0, 1))
    assert B0[target, col_x] == 1
    assert sum(1 for (i, j) in B0.entries if j == col_x) == 1


def test_oracle_self_validation():
    A = from_presentation(Presentation.make(Z, ["x"], [{(2,): 1}]))
    assert validate(cyclic_mixed(A, 4))


@pytest.mark.parametrize("table, key, identity, where", [
    ("b", ((3, 0), (2, 0)), "b^2", (3, 0)),
    ("B", ((1, 0), (2, 0)), "bB + Bb", (1, 0)),
])
def test_validate_detects_corrupted_bar_complex(table, key, identity, where):
    # one Hochschild or Connes entry of the bar complex of Z[x]/(x^3)
    # with its sign flipped breaks the named identity, and the homology
    # sweeps refuse the complex as well
    A = from_presentation(Presentation.make(Z, ["x"], [{(3,): 1}]))
    C = cyclic_mixed(A, 3)
    assert validate(C)
    mat = getattr(C, table)[key]
    (i, j), v = min(mat.entries.items())
    mat[i, j] = -v
    result = validate(C)
    assert not result
    assert (result.identity, result.slice) == (identity, where)
    sweeps = (hochschild_total, cyclic_total) if table == "b" else (cyclic_total,)
    for sweep in sweeps:
        with pytest.raises(CompositionNonzero):
            sweep(C, 3)


def test_oracle_dual_numbers_over_z():
    A = from_presentation(Presentation.make(Z, ["x"], [{(2,): 1}]))
    hh = hochschild_total(cyclic_mixed(A, 2), 2)
    assert hh[0] == HomologyGroup(2, ())
    assert hh[1] == HomologyGroup.from_factors(1, [2])
    assert hh[2] == HomologyGroup(1, ())
    hc = cyclic_total(cyclic_mixed(A, 1), 1)
    assert hc[0] == HomologyGroup(2, ())
    assert hc[1] == HomologyGroup.from_factors(0, [2])


def test_oracle_dual_numbers_over_q():
    A = from_presentation(Presentation.make(Q, ["x"], [{(2,): 1}]))
    hh = hochschild_total(cyclic_mixed(A, 4), 4)
    assert hh[0] == HomologyGroup(2, ())
    for n in range(1, 5):
        assert hh[n] == HomologyGroup(1, ()), n


def test_basis_independence():
    # permuting the k-basis of A leaves all homology groups unchanged
    P = Presentation.make(Z, ["x"], [{(3,): 1}])
    A = from_presentation(P)
    perm = [2, 0, 1]  # images of old indices, with 1 staying a unit? no:
    # keep index 0 (the unit) fixed, swap the two others
    perm = [0, 2, 1]
    inv = [perm.index(i) for i in range(3)]
    basis = tuple(A.basis[inv[i]] for i in range(3))
    mult = {}
    for i in range(3):
        for j in range(3):
            old = A.mult[(inv[i], inv[j])]
            mult[(i, j)] = {perm[k]: c for k, c in old.items()}
    B = FiniteAlgebra(Z, basis, mult)
    cA, cB = cyclic_mixed(A, 3), cyclic_mixed(B, 3)
    assert hochschild_total(cA, 3) == hochschild_total(cB, 3)
    assert cyclic_total(cA, 2) == cyclic_total(cB, 2)


def test_hh0_hc0_are_the_algebra():
    for ring, rels in ((Z, [{(2,): 1}]), (GroundRing.Zmod(4), [{(2,): 1, (0,): -2}])):
        P = Presentation.make(ring, ["x"], rels)
        A = from_presentation(P)
        cplx = cyclic_mixed(A, 1)
        hh0 = hochschild_total(cplx, 0)[0]
        hc0 = cyclic_total(cplx, 0)[0]
        expected = (HomologyGroup(2, ()) if ring.kind == "Z"
                    else HomologyGroup.from_factors(0, [4, 4]))
        assert hh0 == expected
        assert hc0 == expected


def _reference_b(A, labels, index, q):
    """Hochschild b of the bar complex, term by term on label tuples."""
    sums = {}
    for col, lab in enumerate(labels):
        faces = [(i, lab[:i] + (0,) + lab[i + 2:], A.mult[(lab[i], lab[i + 1])],
                  (-1) ** i) for i in range(q)]
        faces.append((0, (0,) + lab[1:q], A.mult[(lab[q], lab[0])], (-1) ** q))
        for slot, tensor, prod, sign in faces:
            for k, v in prod.items():
                if slot == 0 or k != 0:
                    key = (index[tensor[:slot] + (k,) + tensor[slot + 1:]], col)
                    sums[key] = sums.get(key, 0) + sign * v
    return _through_setter(A.ring, len(index), len(labels), sums)


def _reference_B(A, labels, index, q):
    """Connes' B of the bar complex, term by term on label tuples."""
    sums = {}
    for col, lab in enumerate(labels):
        for i in range(q + 1):
            rotated = lab[i:] + lab[:i]
            if 0 not in rotated:
                key = (index[(0,) + rotated], col)
                sums[key] = sums.get(key, 0) + (-1) ** (q * i)
    return _through_setter(A.ring, len(index), len(labels), sums)


def _through_setter(ring, rows, cols, sums):
    """The matrix of sums, written through the entry setter in the order
    the keys first appeared, columns ascending."""
    mat = SparseMatrix(rows, cols, ring)
    for key, v in sums.items():
        mat[key] = v
    return mat


def _bar_blocks(ring, variables, rels):
    from shukla.cli import parse
    text = f"ring {ring}\nvars {variables}\n" + "".join(f"rel {r}\n" for r in rels)
    return _paired_blocks(from_presentation(parse(text + "nmax 2\n").presentation), 2)


def _paired_blocks(A, n_max):
    """(q, t) -> (block of cyclic_mixed, term-by-term reference) for every
    b and B block of the bar complex of A."""
    M = cyclic_mixed(A, n_max)
    blocks = {}
    for table, reference in ((M.b, _reference_b), (M.B, _reference_B)):
        for ((q, _), (t, _)), mat in table.items():
            index = {lab: p for p, lab in enumerate(M.slices[(t, 0)])}
            blocks[(q, t)] = (mat, reference(A, M.slices[(q, 0)], index, q))
    return blocks


@pytest.mark.parametrize("ring", ["Z", "Z/4", "Q"])
@pytest.mark.parametrize("variables, rels", [("x", ["x^4-2*x"]),
                                             ("x y", ["x^2", "y^3"])])
def test_bar_blocks_match_term_by_term_reference(ring, variables, rels):
    for (q, t), (mat, expected) in _bar_blocks(ring, variables, rels).items():
        assert mat == expected, (q, t)
        assert all(v and v == mat.ring.normalize(v) for v in mat.entries.values())


def test_bar_entries_that_cancel_mod_m_are_absent():
    # the Z entries of b on x^4 - 2x divisible by 4 vanish over Z/4
    over_z = _bar_blocks("Z", "x", ["x^4-2*x"])
    over_z4 = _bar_blocks("Z/4", "x", ["x^4-2*x"])
    cancelled = 0
    for key, (mat, _) in over_z.items():
        mod4 = over_z4[key][0]
        for entry, v in mat.entries.items():
            assert mod4[entry] == v % 4
            if v % 4 == 0:
                cancelled += 1
                assert entry not in mod4.entries
    assert cancelled


def _random_quasi_monic(rng, ring):
    """A quasi-monic presentation with a rule x_i^m = lower on every
    variable, lower of total degree < m; the pure-power leading terms are
    coprime, so the reduced monomials are a free basis."""
    nvars = rng.choice((1, 2))
    relations = []
    for i in range(nvars):
        m = rng.randint(2 if i == 0 else 1, 3)
        rel = {tuple(m if j == i else 0 for j in range(nvars)): 1}
        for _ in range(rng.randint(0, 3)):
            exps = [0] * nvars
            for _ in range(rng.randrange(m)):
                exps[rng.randrange(nvars)] += 1
            c = rng.randint(-3, 3)
            if ring.kind == "Q":
                c = Fraction(c, rng.randint(1, 3))
            rel[tuple(exps)] = c
        relations.append(rel)
    return Presentation.make(ring, [f"x{i}" for i in range(nvars)], relations)


def _largest_window(rank, labels=2000):
    """The largest n_max <= 4 whose top slice has at most `labels` labels."""
    return max([0] + [n for n in range(1, 5) if rank * (rank - 1) ** (n + 1) <= labels])


@pytest.mark.parametrize("ring", [Z, Q, GroundRing.Zmod(4), GroundRing.Zmod(9)],
                         ids=repr)
def test_digit_blocks_match_the_label_reference_on_random_algebras(ring):
    # the digit builders against the label-tuple builders, block for block
    # and entry for entry in order, on seeded random algebras of rank
    # 0 (rel 1), 1 (rel x) and up to 9
    rng = random.Random(f"bar digits {ring!r}")
    algebras = [from_presentation(Presentation.make(ring, [], [{(): 1}])),
                from_presentation(Presentation.make(ring, ["x"], [{(1,): 1}]))]
    algebras += [from_presentation(_random_quasi_monic(rng, ring)) for _ in range(8)]
    assert [A.rank for A in algebras[:2]] == [0, 1]
    for A in algebras:
        for (q, t), (mat, expected) in _paired_blocks(A, _largest_window(A.rank)).items():
            assert (mat.rows, mat.cols) == (expected.rows, expected.cols), (A.basis, q, t)
            assert list(mat.entries.items()) == list(expected.entries.items()), (A.basis, q, t)
