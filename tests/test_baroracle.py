import pytest

from shukla.baroracle import FiniteAlgebra, cyclic_mixed, from_presentation
from shukla.errors import NotQuasiMonic
from shukla.linalg import GroundRing, HomologyGroup, SparseMatrix
from shukla.mixed import cyclic_total, hochschild_total, validate
from shukla.models import Presentation

Z = GroundRing.Z()
Q = GroundRing.Q()


def test_from_presentation_bases():
    A = from_presentation(Presentation.make(Z, ["x"], [{(2,): 1}]))
    assert A.basis == ((0,), (1,))
    assert A.product(1, 1) == {}
    B = from_presentation(Presentation.make(Z, ["x"], [{(3,): 1}]))
    assert B.basis == ((0,), (1,), (2,))
    assert B.product(1, 2) == {}
    assert B.product(1, 1) == {2: 1}
    Zm4 = GroundRing.Zmod(4)
    C = from_presentation(Presentation.make(Zm4, ["x"], [{(2,): 1, (0,): -2}]))
    assert C.basis == ((0,), (1,))
    assert C.product(1, 1) == {0: 2}


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
    # with its sign flipped breaks the named identity
    A = from_presentation(Presentation.make(Z, ["x"], [{(3,): 1}]))
    C = cyclic_mixed(A, 3)
    assert validate(C)
    mat = getattr(C, table)[key]
    (i, j), v = min(mat.entries.items())
    mat[i, j] = -v
    result = validate(C)
    assert not result
    assert (result.identity, result.slice) == (identity, where)


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
            old = A.product(inv[i], inv[j])
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
    """Hochschild b of the bar complex, term by term through the entry setter."""
    ring = A.ring
    mat = SparseMatrix(len(index), len(labels), ring)
    for col, lab in enumerate(labels):
        faces = [(i, lab[:i] + (0,) + lab[i + 2:], A.product(lab[i], lab[i + 1]),
                  (-1) ** i) for i in range(q)]
        faces.append((0, (0,) + lab[1:q], A.product(lab[q], lab[0]), (-1) ** q))
        for slot, tensor, prod, sign in faces:
            for k, v in prod.items():
                if slot == 0 or k != 0:
                    row = index[tensor[:slot] + (k,) + tensor[slot + 1:]]
                    mat[row, col] = ring.add(mat[row, col], ring.mul(sign, v))
    return mat


def _reference_B(A, labels, index, q):
    """Connes' B of the bar complex, term by term through the entry setter."""
    ring = A.ring
    mat = SparseMatrix(len(index), len(labels), ring)
    for col, lab in enumerate(labels):
        for i in range(q + 1):
            rotated = lab[i:] + lab[:i]
            if 0 not in rotated:
                row = index[(0,) + rotated]
                mat[row, col] = ring.add(mat[row, col], (-1) ** (q * i))
    return mat


def _bar_blocks(ring, variables, rels):
    from shukla.cli import parse
    text = f"ring {ring}\nvars {variables}\n" + "".join(f"rel {r}\n" for r in rels)
    A = from_presentation(parse(text + "nmax 2\n").presentation)
    M = cyclic_mixed(A, 2)
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
